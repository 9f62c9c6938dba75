package workload

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestReferenceTables gates the figures: every table `biohd experiment
// all -scale 0.25` prints must match testdata/reference.txt byte for
// byte, except F5, whose cells are wall-clock throughput on the host
// that runs it. The harness is seeded and single-goroutine, so any other
// difference is a change to a reproduced number. A change that moves a
// figure on purpose regenerates the file with that command:
//
//	go run ./cmd/biohd experiment all -scale 0.25 > internal/workload/testdata/reference.txt
//
// The file is amd64 output; other architectures may fuse floating-point
// operations differently and are skipped.
func TestReferenceTables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("reference tables are amd64 output; GOARCH is %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("full harness run")
	}
	ref, err := os.ReadFile("testdata/reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RunAll(&sb, Config{Scale: 0.25, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	got, want := tableBlocks(sb.String()), tableBlocks(string(ref))
	if len(got) != len(want) {
		t.Fatalf("harness prints %d tables, reference has %d", len(got), len(want))
	}
	for i, w := range want {
		id := blockID(w)
		if g := blockID(got[i]); g != id {
			t.Fatalf("table %d is %s, reference has %s", i, g, id)
		}
		if id != "F5" && got[i] != w {
			t.Errorf("%s differs from the reference:\n--- got\n%s--- want\n%s", id, got[i], w)
		}
	}
}

// tableBlocks splits printed tables into one block each: Table.Fprint
// ends every table with a blank line, and nothing inside one is blank.
func tableBlocks(s string) []string {
	blocks := strings.SplitAfter(s, "\n\n")
	return blocks[:len(blocks)-1] // the empty remainder after the last table
}

// blockID returns the experiment ID of a block's "== ID: title ==" header.
func blockID(block string) string {
	id, _, _ := strings.Cut(strings.TrimPrefix(block, "== "), ":")
	return id
}

// gateHeading is the EXPERIMENTS.md heading whose one fenced block is
// the reference output, so the document and the gate are one file.
const gateHeading = "## The gate's tables"

// embeddedTables returns the one fenced block of doc's gateHeading
// section, and how many fenced blocks that section holds.
func embeddedTables(doc string) (string, int) {
	_, sec, ok := strings.Cut(doc, "\n"+gateHeading)
	if !ok {
		return "", 0
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	parts := strings.Split(sec, "\n```")
	if len(parts) < 3 {
		return "", 0
	}
	_, block, _ := strings.Cut(parts[1], "\n") // drop the info string
	return block + "\n", (len(parts) - 1) / 2
}

// TestReferenceTablesEmbedded: EXPERIMENTS.md carries the gate's
// reference output byte for byte, in the one fenced block under
// gateHeading.
func TestReferenceTablesEmbedded(t *testing.T) {
	ref, err := os.ReadFile("testdata/reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	block, n := embeddedTables(string(doc))
	if n != 1 {
		t.Fatalf("EXPERIMENTS.md %q section holds %d fenced blocks, want 1", gateHeading, n)
	}
	if block != string(ref) {
		t.Errorf("EXPERIMENTS.md %q differs from testdata/reference.txt; copy the file into the block", gateHeading)
	}
	// The check itself: a section holding the file passes, and one
	// holding the file with one byte changed fails.
	for _, c := range []struct {
		body string
		same bool
	}{{string(ref), true}, {strings.Replace(string(ref), "== T1:", "== T1;", 1), false}} {
		b, _ := embeddedTables("# doc\n\n" + gateHeading + "\n\n```text\n" + c.body + "```\n\n## Next\n")
		if (b == string(ref)) != c.same {
			t.Errorf("seeded section, one byte changed %v: equal to the file %v, want %v", !c.same, !c.same, c.same)
		}
	}
}
