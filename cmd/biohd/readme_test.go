package main

import (
	"io"
	"os"
	"strings"
	"testing"
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

// TestSubcommandHelpSucceeds: "biohd <sub> -h" prints the subcommand's
// flags and succeeds (exit 0) for every subcommand run dispatches.
func TestSubcommandHelpSucceeds(t *testing.T) {
	for _, sub := range []string{"gen", "build", "search", "classify", "experiment", "serve", "wire", "pim", "compact"} {
		flags, err := subcommandHelp(t, sub)
		if err != nil {
			t.Errorf("%s -h: %v, want nil", sub, err)
		} else if len(flags) == 0 {
			t.Errorf("%s -h printed no flags", sub)
		}
	}
}

// undefinedFlags returns every "sub -flag" that a "biohd sub ..." line
// of readme's Quickstart block passes and that flagsOf(sub) lacks.
func undefinedFlags(readme string, flagsOf func(sub string) map[string]bool) []string {
	_, block, _ := strings.Cut(readme, "## Quickstart\n\n```sh\n")
	block, _, _ = strings.Cut(block, "```")
	var bad []string
	for _, line := range strings.Split(block, "\n") {
		tok := strings.Fields(line)
		if len(tok) < 2 || tok[0] != "biohd" {
			continue
		}
		flags := flagsOf(tok[1])
		for _, a := range tok[2:] {
			name, ok := strings.CutPrefix(a, "-")
			if !ok {
				continue
			}
			name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
			if !flags[name] {
				bad = append(bad, tok[1]+" -"+name)
			}
		}
	}
	return bad
}

// TestReadmeQuickstartFlagsDefined: every flag README's Quickstart
// passes to a subcommand is one that subcommand defines, so a renamed
// or deleted flag cannot leave the documented commands broken.
func TestReadmeQuickstartFlagsDefined(t *testing.T) {
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
	if bad := undefinedFlags(string(readme), flagsOf); len(bad) > 0 {
		t.Errorf("README Quickstart passes flags its subcommands do not define: %v", bad)
	}
	if len(cache) < 8 {
		t.Errorf("Quickstart block yielded %d subcommands; the README parse is broken", len(cache))
	}
	// The check itself: a seeded unknown flag is reported.
	seeded := "## Quickstart\n\n```sh\nbiohd search -lib x -bogus 1\n```\n"
	if bad := undefinedFlags(seeded, flagsOf); len(bad) != 1 || bad[0] != "search -bogus" {
		t.Errorf("seeded unknown flag: got %v, want [search -bogus]", bad)
	}
}
