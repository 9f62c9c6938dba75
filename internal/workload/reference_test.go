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
