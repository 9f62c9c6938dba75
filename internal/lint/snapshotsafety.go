package lint

import (
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
)

// SnapshotSafety guards the snapshot-isolation invariant of the index
// backends: a segment published in a snapshot is immutable, and the
// proof rests on every touch of the raw segment storage living in the
// storage-owner files (segment.go, the accessors and seal/compact
// rebuilds) or snapshot.go (the read-side view). Any other file
// reaching for those fields bypasses the accessor boundary, and a
// write through such a path would corrupt data that lock-free readers
// are scanning. The same goes for the segment engine's master segment
// list, which Compact replaces, and its per-segment reference lists,
// which Remove's tombstoning and compaction read and rewrite: only
// engine.go — which copies what a view needs into every view it
// publishes — may touch them, so no kernel can hand a reader an alias
// of them, and a reference's lifecycle stays the engine's decision.
//
// The check is syntactic — it flags any selector of a scoped field
// name in the package — because the field names are unique within each
// scoped package, and a syntactic rule keeps working when type
// information is incomplete. Each package declares its scopes in
// snapshotScopes: the HDC kernel's bucket slice, packed probe arena and
// sketch plane, the engine's master list and reference lists, and the
// bit-sliced kernel's column arena.
type SnapshotSafety struct{}

// Name implements Analyzer.
func (SnapshotSafety) Name() string { return "snapshotsafety" }

// Doc implements Analyzer.
func (SnapshotSafety) Doc() string {
	return "index backends may touch raw segment storage only in segment.go and snapshot.go"
}

// snapshotScope lists one package's raw-storage fields and the files
// allowed to touch them.
type snapshotScope struct {
	fields map[string]bool
	files  map[string]bool
}

// snapshotScopes maps import-path suffixes to their storage scopes.
var snapshotScopes = map[string][]snapshotScope{
	"internal/core": {
		{ // the HDC kernel's segment storage
			fields: map[string]bool{"bkts": true, "arena": true, "plane": true},
			files:  map[string]bool{"segment.go": true, "snapshot.go": true},
		},
		{ // the segment engine's master list and per-segment reference lists
			fields: map[string]bool{"sealedSegs": true, "members": true},
			files:  map[string]bool{"engine.go": true},
		},
	},
	"internal/cobs": {{
		fields: map[string]bool{"arena": true},
		files:  map[string]bool{"segment.go": true, "snapshot.go": true},
	}},
}

// Run implements Analyzer.
func (SnapshotSafety) Run(pkg *Package) []Diagnostic {
	var scopes []snapshotScope
	for suffix, sc := range snapshotScopes {
		if strings.HasSuffix(pkg.Path, suffix) {
			scopes = sc
			break
		}
	}
	var diags []Diagnostic
	for _, scope := range scopes {
		diags = append(diags, scope.run(pkg)...)
	}
	return diags
}

func (scope snapshotScope) run(pkg *Package) []Diagnostic {
	allowed := make([]string, 0, len(scope.files))
	for f := range scope.files {
		allowed = append(allowed, f)
	}
	sort.Strings(allowed)
	var diags []Diagnostic
	for _, f := range pkg.Files {
		name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		if scope.files[name] {
			continue
		}
		walkFuncs(f, func(n ast.Node, fs *funcStack) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !scope.fields[sel.Sel.Name] {
				return true
			}
			where := "package-level declaration"
			if d := fs.topDecl(); d != nil {
				where = d.Name.Name
			}
			diags = append(diags, Diagnostic{
				Pos:  pkg.Fset.Position(sel.Sel.Pos()),
				Rule: "snapshotsafety",
				Message: where + " touches raw segment storage ." + sel.Sel.Name +
					" outside " + strings.Join(allowed, "/") +
					" (go through the segment accessors so published snapshots stay immutable)",
			})
			return true
		})
	}
	return diags
}
