// Command biohdlint runs BioHD's repo-specific static analyzers over
// the module (see internal/lint for the rule set). It prints one line
// per finding in the form
//
//	file:line: [rule] message
//
// and exits 1 when anything is found, 2 on usage or load errors.
//
// Usage:
//
//	biohdlint [flags] [./...]
//
// The argument is accepted for familiarity with go tooling; the linter
// always analyzes the whole module enclosing the given directory
// (default: the current directory).
//
// -json switches the report to a machine-readable JSON array (one
// object per finding, repo-relative paths) for CI artifacts. -tags
// analyzes the module under additional build tags (e.g. -tags purego
// checks the portable kernel fallbacks).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("biohdlint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	rules := fs.String("rules", "", "comma-separated rule subset to run (default: all)")
	list := fs.Bool("list", false, "list the available rules and exit")
	jsonOut := fs.Bool("json", false, "report findings as a JSON array")
	tags := fs.String("tags", "", "comma-separated build tags to analyze under (e.g. purego)")
	fs.Usage = func() {
		fmt.Fprintln(errOut, "usage: biohdlint [flags] [./...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(out, "%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	dir := "."
	if fs.NArg() > 0 {
		// Accept "./...", "./internal/...", or a plain directory; the
		// module root is located from it.
		dir = strings.TrimSuffix(fs.Arg(0), "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" || dir == "." {
			dir = "."
		}
	}

	analyzers, err := selectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintln(errOut, "biohdlint:", err)
		return 2
	}
	root, _, err := lint.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(errOut, "biohdlint:", err)
		return 2
	}
	pkgs, err := lint.LoadWithTags(dir, splitTags(*tags))
	if err != nil {
		fmt.Fprintln(errOut, "biohdlint:", err)
		return 2
	}
	for _, p := range pkgs {
		if p.TypeErr != nil {
			fmt.Fprintf(errOut, "biohdlint: %s: incomplete type information: %v\n",
				p.Path, p.TypeErr)
		}
	}
	diags := lint.Run(pkgs, analyzers)

	if *jsonOut {
		if err := writeJSON(out, root, diags); err != nil {
			fmt.Fprintln(errOut, "biohdlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "biohdlint: %d finding(s) in %d package(s)\n",
			len(diags), len(pkgs))
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable finding shape: the text format's
// fields plus the line number, with a repo-relative path.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// writeJSON emits the findings as an indented JSON array ([] when
// clean, so the artifact is always valid JSON).
func writeJSON(out io.Writer, root string, diags []lint.Diagnostic) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		// Root-relative slash paths, so the artifact is stable across
		// checkouts; a file outside root keeps its absolute path.
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && filepath.IsLocal(rel) {
			file = rel
		}
		findings = append(findings, jsonFinding{
			File: filepath.ToSlash(file), Line: d.Pos.Line, Rule: d.Rule, Message: d.Message,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// splitTags parses the -tags flag.
func splitTags(spec string) []string {
	if spec == "" {
		return nil
	}
	var tags []string
	for _, t := range strings.Split(spec, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tags = append(tags, t)
		}
	}
	return tags
}

// selectAnalyzers resolves the -rules flag against the registry.
func selectAnalyzers(spec string) ([]lint.Analyzer, error) {
	all := lint.All()
	if spec == "" {
		return all, nil
	}
	byName := map[string]lint.Analyzer{}
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (run -list for the rule set)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
