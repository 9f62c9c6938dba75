package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// DimSafety guards the binary kernels of internal/bitvec and
// internal/hdc: any exported function that touches the raw storage
// (packed words or counters) of two or more vector operands must
// check that their lengths/dimensions agree first. The word-parallel
// loops index one operand's storage with the other's extent, so a
// missing guard turns a dimension mismatch into an out-of-bounds read
// or, worse, a silently truncated similarity — exactly the corruption
// a hyperdimensional memory cannot detect downstream.
//
// Operands come in two shapes: the storage-carrying vector types
// (*HV, *Acc), whose raw storage is reached through their
// words/counts fields and accessors, and the bare word-slice forms the
// flat kernels take ([]uint64 rows, [][]uint64 query blocks), which
// ARE raw storage — for those, indexing or reslicing the operand is
// the raw access.
//
// Accepted guards, which must precede the first combining access:
//   - a call to a checker helper (mustMatch / check / sameLen) with a
//     vector operand as receiver or argument
//   - an if statement whose condition takes the length or dimension of
//     two distinct operands — len(…), .Dim() or .Width() of each (the
//     length-comparison idiom, e.g. "if len(h.words) != len(o.words)");
//     comparing the operands themselves (if h == a) is not a guard
//
// Functions that only delegate to other guarded operations (e.g.
// HV.Dot calling HV.Hamming) touch no raw storage and need no guard.
// Unexported helpers are exempt: they run behind an exported guard.
type DimSafety struct{}

// Name implements Analyzer.
func (DimSafety) Name() string { return "dimsafety" }

// Doc implements Analyzer.
func (DimSafety) Doc() string {
	return "bitvec/hdc binary operations must guard operand dimensions before raw storage access"
}

// vectorTypeNames are the storage-carrying types of the two packages.
var vectorTypeNames = map[string]bool{"HV": true, "Acc": true}

// rawFields are struct fields that expose raw storage.
var rawFields = map[string]bool{"words": true, "counts": true}

// rawMethods are accessor methods that expose raw storage.
var rawMethods = map[string]bool{"Words": true, "Counts": true, "Count": true}

// guardNames are checker-helper method names accepted as guards.
var guardNames = map[string]bool{
	"mustMatch": true,
	"check":     true,
	"sameLen":   true,
}

// Run implements Analyzer.
func (DimSafety) Run(pkg *Package) []Diagnostic {
	if !strings.HasSuffix(pkg.Path, "internal/bitvec") &&
		!strings.HasSuffix(pkg.Path, "internal/hdc") {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			if d, ok := checkDims(pkg, fn); ok {
				diags = append(diags, d)
			}
		}
	}
	return diags
}

// checkDims analyzes one exported function for an unguarded combining
// access.
func checkDims(pkg *Package, fn *ast.FuncDecl) (Diagnostic, bool) {
	operands := vectorOperands(fn)
	if len(operands) < 2 {
		return Diagnostic{}, false
	}

	guardPos := token.NoPos
	accessed := map[string]token.Pos{} // operand name -> first raw access
	combinePos := token.NoPos          // first moment two operands were raw-accessed

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if guardPos == token.NoPos && sizesTwoOperands(n.Cond, operands) {
				guardPos = n.Pos()
			}
		case *ast.CallExpr:
			if guardPos == token.NoPos && isGuardCall(n, operands) {
				guardPos = n.Pos()
			}
			if name, ok := rawMethodAccess(n, operands); ok {
				recordAccess(accessed, name, n.Pos(), &combinePos)
			}
		case *ast.SelectorExpr:
			if name, ok := rawFieldAccess(n, operands); ok {
				recordAccess(accessed, name, n.Pos(), &combinePos)
			}
		case *ast.IndexExpr:
			// Word-slice operands are raw storage; indexing one is the
			// access itself (row[w], qs[i][w]).
			if name, ok := operandBase(n.X, operands); ok {
				recordAccess(accessed, name, n.Pos(), &combinePos)
			}
		case *ast.SliceExpr:
			if name, ok := operandBase(n.X, operands); ok {
				recordAccess(accessed, name, n.Pos(), &combinePos)
			}
		}
		return true
	})

	if combinePos == token.NoPos {
		return Diagnostic{}, false
	}
	if guardPos != token.NoPos && guardPos < combinePos {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Pos:  pkg.Fset.Position(combinePos),
		Rule: "dimsafety",
		Message: fn.Name.Name + " combines the raw storage of two operands " +
			"without a preceding length/dimension guard " +
			"(call mustMatch or compare lengths first)",
	}, true
}

// recordAccess notes a raw access and captures the position at which a
// second distinct operand is first touched.
func recordAccess(accessed map[string]token.Pos, name string, pos token.Pos, combine *token.Pos) {
	if _, seen := accessed[name]; !seen {
		accessed[name] = pos
	}
	if len(accessed) >= 2 && *combine == token.NoPos {
		*combine = pos
	}
}

// vectorOperands collects the receiver and parameters with a vector
// storage type, keyed by identifier name.
func vectorOperands(fn *ast.FuncDecl) map[string]bool {
	ops := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if !isVectorType(field.Type) && !isWordSliceType(field.Type) {
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					ops[name.Name] = true
				}
			}
		}
	}
	addFields(fn.Recv)
	addFields(fn.Type.Params)
	return ops
}

// isVectorType matches *HV, *Acc, and their pkg-qualified forms
// (*hdc.HV, *hdc.Acc).
func isVectorType(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch t := star.X.(type) {
	case *ast.Ident:
		return vectorTypeNames[t.Name]
	case *ast.SelectorExpr:
		return vectorTypeNames[t.Sel.Name]
	}
	return false
}

// isWordSliceType matches the flat-kernel operand shapes []uint64 and
// [][]uint64.
func isWordSliceType(e ast.Expr) bool {
	arr, ok := e.(*ast.ArrayType)
	if !ok || arr.Len != nil {
		return false
	}
	switch el := arr.Elt.(type) {
	case *ast.Ident:
		return el.Name == "uint64"
	case *ast.ArrayType:
		if el.Len != nil {
			return false
		}
		id, ok := el.Elt.(*ast.Ident)
		return ok && id.Name == "uint64"
	}
	return false
}

// operandBase resolves an expression to the operand identifier at its
// base, unwrapping selector chains (h.words -> h).
func operandBase(e ast.Expr, operands map[string]bool) (string, bool) {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if operands[v.Name] {
				return v.Name, true
			}
			return "", false
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return "", false
		}
	}
}

// rawFieldAccess matches operand.words / operand.counts selector chains.
func rawFieldAccess(sel *ast.SelectorExpr, operands map[string]bool) (string, bool) {
	if !rawFields[sel.Sel.Name] {
		return "", false
	}
	return operandBase(sel.X, operands)
}

// rawMethodAccess matches operand.Words() / .Counts() / .Count() calls,
// including through an intermediate field (h.row.Words()).
func rawMethodAccess(call *ast.CallExpr, operands map[string]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !rawMethods[sel.Sel.Name] {
		return "", false
	}
	return operandBase(sel.X, operands)
}

// isGuardCall matches calls to checker helpers that take or receive an
// operand: v.mustMatch(o), a.check(i), mustMatch(a, b).
func isGuardCall(call *ast.CallExpr, operands map[string]bool) bool {
	var name string
	var exprs []ast.Expr
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		exprs = append(exprs, fun.X)
	case *ast.Ident:
		name = fun.Name
	default:
		return false
	}
	if !guardNames[name] {
		return false
	}
	exprs = append(exprs, call.Args...)
	for _, e := range exprs {
		if _, ok := operandBase(e, operands); ok {
			return true
		}
	}
	return false
}

// sizesTwoOperands reports whether the condition takes the length or
// dimension of at least two distinct operands — len(…), .Dim() or
// .Width() of each, the inline length-comparison guard. A condition
// that names two operands only to compare them as pointers (if h == a)
// checks nothing about their sizes and does not count.
func sizesTwoOperands(cond ast.Expr, operands map[string]bool) bool {
	seen := map[string]bool{}
	ast.Inspect(cond, func(n ast.Node) bool {
		if name, ok := sizedOperand(n, operands); ok {
			seen[name] = true
		}
		return len(seen) < 2
	})
	return len(seen) >= 2
}

// sizedOperand matches len(x), x.Dim() and x.Width() of an operand x,
// also through a field or an index (len(h.words), len(qs[i])).
func sizedOperand(n ast.Node, operands map[string]bool) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "len" && len(call.Args) == 1 {
			return sizedBase(call.Args[0], operands)
		}
	case *ast.SelectorExpr:
		if (fun.Sel.Name == "Dim" || fun.Sel.Name == "Width") && len(call.Args) == 0 {
			return sizedBase(fun.X, operands)
		}
	}
	return "", false
}

// sizedBase is operandBase that also looks through an index.
func sizedBase(e ast.Expr, operands map[string]bool) (string, bool) {
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	return operandBase(e, operands)
}
