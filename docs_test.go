package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The drift tests hold the documents to the tree: a name DESIGN.md
// puts in backticks must exist in the code, and a citation of a DESIGN
// section or an EXPERIMENTS heading must name one that exists. Each
// check is a function of the text it reads, so the tests also run it on
// a seeded mismatch and require the mismatch to be reported.

// repoFiles returns the paths under the module root with one of the
// extensions, outside hidden directories and, if skipTestdata, outside
// testdata.
func repoFiles(t *testing.T, skipTestdata bool, exts ...string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || skipTestdata && d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		for _, e := range exts {
			if strings.HasSuffix(p, e) {
				paths = append(paths, p)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var (
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	goStyleName = regexp.MustCompile(`^\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(\))?$`)
	word        = regexp.MustCompile(`[A-Za-z_]\w*`)
)

// staleNames returns, in order and without repeats, the backticked
// Go-style names of doc (Name, pkg.Name or Type.Method, with an
// optional "()") that are neither a file's base name in files nor made
// of words that all occur whole in words.
func staleNames(doc string, words, files map[string]bool) []string {
	var stale []string
	seen := map[string]bool{}
	for _, m := range codeSpan.FindAllStringSubmatch(fencedBlock.ReplaceAllString(doc, ""), -1) {
		name := goStyleName.FindStringSubmatch(m[1])
		if name == nil || seen[name[1]] || files[name[1]] {
			continue
		}
		seen[name[1]] = true
		for _, part := range strings.Split(name[1], ".") {
			if !words[part] {
				stale = append(stale, name[1])
				break
			}
		}
	}
	return stale
}

// TestDesignNamesExist: every Go-style name DESIGN.md puts in
// backticks occurs as a whole word in a .go or .s file of the module
// (testdata aside), or is the name of a file, so a renamed or deleted
// function, type or test cannot stay described.
func TestDesignNamesExist(t *testing.T) {
	words, files := map[string]bool{}, map[string]bool{}
	for _, p := range repoFiles(t, true, ".go", ".s") {
		for _, w := range word.FindAllString(readFile(t, p), -1) {
			words[w] = true
		}
	}
	for _, p := range repoFiles(t, false, "") {
		files[filepath.Base(p)] = true
	}
	if stale := staleNames(readFile(t, "DESIGN.md"), words, files); len(stale) > 0 {
		t.Errorf("DESIGN.md names %d identifiers the module does not declare or use: %v", len(stale), stale)
	}
	// The check itself, on a name spelled so that this file does not
	// declare it: a missing name is reported, one in a fence is not.
	missing := "NoSuch" + "Func"
	seeded := "a `Engine.Search` call and `" + missing + "()`\n```\n`InAFence`\n```\n"
	if got := staleNames(seeded, map[string]bool{"Engine": true, "Search": true}, files); len(got) != 1 || got[0] != missing {
		t.Errorf("seeded stale name: got %v, want [%s]", got, missing)
	}
}

// headingIndex holds what a citation may name: DESIGN's "## N." and
// "### N.M" section numbers and EXPERIMENTS' "##"/"###" heading texts.
type headingIndex struct {
	design      map[string]bool
	experiments []string
}

var (
	designHeading = regexp.MustCompile(`(?m)^(?:## (\d+)\.|### (\d+\.\d+)) `)
	expHeading    = regexp.MustCompile(`(?m)^###? (.+)$`)
	// a section citation: the word before it, the number, and any
	// ", §M" that continues the list.
	sectionCite = regexp.MustCompile(`([\w.]+\s+)?§(\d+(?:\.\d+)?)((?:,\s*§\d+(?:\.\d+)?)*)`)
	listedCite  = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
	expCite     = regexp.MustCompile(`EXPERIMENTS(?:\.md)?,? "([^"]+)"`)
	commentJoin = regexp.MustCompile(`\n[ \t]*//[ \t]?`)
	space       = regexp.MustCompile(`\s+`)
)

func indexHeadings(design, experiments string) headingIndex {
	h := headingIndex{design: map[string]bool{}}
	for _, m := range designHeading.FindAllStringSubmatch(design, -1) {
		h.design[m[1]+m[2]] = true
	}
	for _, m := range expHeading.FindAllStringSubmatch(experiments, -1) {
		h.experiments = append(h.experiments, space.ReplaceAllString(m[1], " "))
	}
	return h
}

// badCitations returns the citations in text that name no heading of
// h. A §N counts as a DESIGN citation after "DESIGN" or "DESIGN.md",
// and, when inDesign, after any word that is not another document's
// name. Go comments wrapped across lines are read as one line.
func badCitations(text string, inDesign bool, h headingIndex) []string {
	text = space.ReplaceAllString(commentJoin.ReplaceAllString(text, " "), " ")
	var bad []string
	for _, m := range sectionCite.FindAllStringSubmatch(text, -1) {
		before := strings.TrimSpace(m[1])
		if before != "DESIGN" && before != "DESIGN.md" && (!inDesign || strings.HasSuffix(before, ".md")) {
			continue
		}
		for _, n := range listedCite.FindAllStringSubmatch("§"+m[2]+m[3], -1) {
			if !h.design[n[1]] {
				bad = append(bad, "DESIGN "+n[0])
			}
		}
	}
	for _, m := range expCite.FindAllStringSubmatch(text, -1) {
		found := false
		for _, title := range h.experiments {
			found = found || strings.HasPrefix(title, m[1])
		}
		if !found {
			bad = append(bad, "EXPERIMENTS"+" "+strconv.Quote(m[1]))
		}
	}
	return bad
}

// TestCitationsNameHeadings: every "DESIGN §N" / "DESIGN.md §N" in a
// .go file or a current-state document names a DESIGN section that
// exists, and every EXPERIMENTS citation (the name, an optional ".md,"
// and a quoted title) the start of an EXPERIMENTS heading. The
// current-state documents are README, DESIGN and EXPERIMENTS at the
// root and every .md below it; the other root documents are the change
// history, the plan and the source-paper material, which cite what was
// true when written.
func TestCitationsNameHeadings(t *testing.T) {
	h := indexHeadings(readFile(t, "DESIGN.md"), readFile(t, "EXPERIMENTS.md"))
	if len(h.design) == 0 || len(h.experiments) == 0 {
		t.Fatalf("found %d DESIGN sections and %d EXPERIMENTS headings; the heading parse is broken", len(h.design), len(h.experiments))
	}
	var paths []string
	for _, p := range repoFiles(t, false, ".go", ".md") {
		if strings.HasSuffix(p, ".go") || strings.ContainsRune(p, filepath.Separator) ||
			p == "README.md" || p == "DESIGN.md" || p == "EXPERIMENTS.md" {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		for _, c := range badCitations(readFile(t, p), p == "DESIGN.md", h) {
			t.Errorf("%s cites %s, which has no heading", p, c)
		}
	}
	seeded := "// see DESIGN §" + "99 and\n// EXPERIMENTS.md, \"No such\n// record\"; PAPER.md §" + "99 is not ours"
	got := badCitations(seeded, false, h)
	if want := []string{"DESIGN §" + "99", "EXPERIMENTS" + ` "No such record"`}; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("seeded citations: got %q, want %q", got, want)
	}
}
