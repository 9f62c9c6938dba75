package main

import (
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// subcommandFlags returns the flags "biohd sub -h" lists, read from the
// usage the subcommand's FlagSet prints to stderr; nil for an unknown
// subcommand.
func subcommandFlags(t *testing.T, sub string) map[string]bool {
	t.Helper()
	flags, _ := subcommandHelp(t, sub)
	return flags
}

// subcommandHelp runs "biohd sub -h" and returns the flags its usage
// lists with run's error.
func subcommandHelp(t *testing.T, sub string) (map[string]bool, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	runErr := run([]string{sub, "-h"}, io.Discard)
	os.Stderr = stderr
	if runErr != nil {
		return nil, runErr
	}
	usage, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(usage), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			flags[strings.Fields(name)[0]] = true
		}
	}
	return flags, nil
}

// subcommands lists every subcommand run dispatches.
var subcommands = []string{"gen", "build", "search", "classify", "experiment", "serve", "wire", "pim", "compact"}

// TestSubcommandHelpSucceeds: "biohd <sub> -h" prints the subcommand's
// flags and succeeds (exit 0) for every subcommand run dispatches.
func TestSubcommandHelpSucceeds(t *testing.T) {
	for _, sub := range subcommands {
		flags, err := subcommandHelp(t, sub)
		if err != nil {
			t.Errorf("%s -h: %v, want nil", sub, err)
		} else if len(flags) == 0 {
			t.Errorf("%s -h printed no flags", sub)
		}
	}
}

var (
	fenced   = regexp.MustCompile("(?ms)^```[^\n]*\n(.*?)^```")
	codeSpan = regexp.MustCompile("`([^`]+)`")
)

// readmeFlags returns the flags readme documents for each subcommand:
// those that follow "biohd <sub>" in a code block or code span, up to
// the end of the command, and those of its flag table, a row whose
// first cell names subcommands in code spans and whose second names
// their flags.
func readmeFlags(readme string) map[string]map[string]bool {
	doc := map[string]map[string]bool{}
	add := func(sub, flag string) {
		if doc[sub] == nil {
			doc[sub] = map[string]bool{}
		}
		doc[sub][flag] = true
	}
	var snippets []string
	for _, m := range fenced.FindAllStringSubmatch(readme, -1) {
		for _, line := range strings.Split(m[1], "\n") {
			line, _, _ = strings.Cut(line, " #") // a shell comment
			snippets = append(snippets, line)
		}
	}
	prose := fenced.ReplaceAllString(readme, "")
	for _, m := range codeSpan.FindAllStringSubmatch(prose, -1) {
		snippets = append(snippets, m[1])
	}
	for _, s := range snippets {
		tok, sub := strings.Fields(s), ""
		for i, a := range tok {
			switch {
			case a == "biohd" && i+1 < len(tok) && slices.Contains(subcommands, tok[i+1]):
				sub = tok[i+1]
			case a == "&&" || a == ";" || a == "&" || strings.HasPrefix(a, ">") ||
				a == "|" && (i+1 == len(tok) || !strings.HasPrefix(tok[i+1], "-")):
				sub = "" // the command ends; "|" between flags is a usage alternative
			case sub != "":
				if name, ok := flagName(a); ok {
					add(sub, name)
				}
			}
		}
	}
	for _, line := range strings.Split(prose, "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			continue
		}
		subs := codeSpan.FindAllStringSubmatch(cells[1], -1)
		for _, sub := range subs {
			if !slices.Contains(subcommands, sub[1]) {
				subs = nil
				break
			}
		}
		for _, sub := range subs {
			for _, f := range codeSpan.FindAllStringSubmatch(cells[2], -1) {
				if name, ok := flagName(f[1]); ok {
					add(sub[1], name)
				}
			}
		}
	}
	return doc
}

// flagName returns the flag a command-line token passes: "-name",
// "--name" or "-name=value", in usage brackets or not.
func flagName(tok string) (string, bool) {
	tok = strings.Trim(tok, "[](),")
	name, ok := strings.CutPrefix(tok, "-")
	name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
	if !ok || name == "" || !unicode.IsLetter(rune(name[0])) {
		return "", false
	}
	return name, true
}

// flagDrift compares what readme documents with what flagsOf(sub)
// defines: undefined lists each "sub -flag" readme names that sub
// lacks, undocumented each one sub defines that readme never names.
func flagDrift(readme string, flagsOf func(sub string) map[string]bool) (undefined, undocumented []string) {
	doc := readmeFlags(readme)
	for _, sub := range subcommands {
		defined := flagsOf(sub)
		for _, f := range sortedKeys(doc[sub]) {
			if !defined[f] {
				undefined = append(undefined, sub+" -"+f)
			}
		}
		for _, f := range sortedKeys(defined) {
			if !doc[sub][f] {
				undocumented = append(undocumented, sub+" -"+f)
			}
		}
	}
	return undefined, undocumented
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestReadmeFlagsDefined holds README to the CLI in both directions:
// every flag it passes to a subcommand ("biohd <sub> … -flag" anywhere
// in it, or its flag table) is one that subcommand defines, so a renamed
// or deleted flag cannot leave a documented command broken; and every
// flag "biohd <sub> -h" lists is documented there.
func TestReadmeFlagsDefined(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cache := map[string]map[string]bool{}
	flagsOf := func(sub string) map[string]bool {
		if _, ok := cache[sub]; !ok {
			cache[sub] = subcommandFlags(t, sub)
		}
		return cache[sub]
	}
	undefined, undocumented := flagDrift(string(readme), flagsOf)
	if len(undefined) > 0 {
		t.Errorf("README passes flags its subcommands do not define: %v", undefined)
	}
	if len(undocumented) > 0 {
		t.Errorf("README does not document these flags: %v", undocumented)
	}
	// The check itself: an unknown flag and an undocumented one are
	// reported; a usage alternative, a pipe and a table row are read as
	// such.
	seeded := "`biohd search -lib x [-bogus 1] | -long`, `biohd experiment all | grep -v x`\n\n| `pim` | `-rows` |\n"
	fake := map[string]map[string]bool{"search": {"lib": true, "long": true}, "pim": {"rows": true, "undocumented": true}}
	undefined, undocumented = flagDrift(seeded, func(sub string) map[string]bool { return fake[sub] })
	if strings.Join(undefined, ",") != "search -bogus" || strings.Join(undocumented, ",") != "pim -undocumented" {
		t.Errorf("seeded drift: got undefined %v, undocumented %v; want [search -bogus], [pim -undocumented]", undefined, undocumented)
	}
}
