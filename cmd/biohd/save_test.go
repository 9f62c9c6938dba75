package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// fileVersion reads a library file's format version word.
func fileVersion(t *testing.T, path string) uint32 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil || len(b) < 12 || string(b[:8]) != "BIOHDLIB" {
		t.Fatalf("%s is not a library file (err %v)", path, err)
	}
	return binary.LittleEndian.Uint32(b[8:12])
}

// buildSealedLib builds a library file from generated references and
// returns its path.
func buildSealedLib(t *testing.T) string {
	t.Helper()
	refs := genRefs(t)
	libPath := filepath.Join(t.TempDir(), "lib.bhd")
	var sb strings.Builder
	if err := run([]string{"build", "-ref", refs, "-o", libPath}, &sb); err != nil {
		t.Fatal(err)
	}
	return libPath
}

func TestSaveAtomicWritesAndSyncs(t *testing.T) {
	dst := filepath.Join(t.TempDir(), "out.bin")
	err := saveAtomic(dst, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil || string(got) != "payload" {
		t.Fatalf("dst content %q, err %v", got, err)
	}
	if _, err := os.Stat(dst + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temporary file survived a successful save")
	}
}

func TestSaveAtomicErrorLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "out.bin")
	if err := os.WriteFile(dst, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("writer failed")
	err := saveAtomic(dst, func(w io.Writer) error {
		//lint:ignore errcheck the injected failure is the point
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the writer's error", err)
	}
	// The failed save must leave the old file intact and no droppings.
	if got, _ := os.ReadFile(dst); string(got) != "old" {
		t.Fatalf("dst clobbered: %q", got)
	}
	if _, err := os.Stat(dst + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temporary file survived the error path")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("unexpected files after failed save: %v", entries)
	}
}

// TestLegacyFormatRejected: a v1 or v2 stream, alone or followed by
// junk, makes search, serve and serve -mmap fail with the core's typed
// error before anything listens.
func TestLegacyFormatRejected(t *testing.T) {
	dir := t.TempDir()
	pat := genome.Random(32, rng.New(1)).String()
	for _, version := range []uint32{1, 2} {
		head := binary.LittleEndian.AppendUint32([]byte("BIOHDLIB"), version)
		for i, data := range [][]byte{head, append(head, make([]byte, 4096)...)} {
			path := filepath.Join(dir, fmt.Sprintf("v%d-%d.lib", version, i))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, args := range [][]string{
				{"search", "-lib", path, "-pattern", pat},
				{"serve", "-lib", path, "-addr", "127.0.0.1:0"},
				{"serve", "-lib", path, "-mmap", "-addr", "127.0.0.1:0"},
			} {
				var sb strings.Builder
				if err := run(args, &sb); !errors.Is(err, core.ErrLegacyFormat) {
					t.Errorf("%s: %v, want core.ErrLegacyFormat", strings.Join(args, " "), err)
				}
				if strings.Contains(sb.String(), "serving ") {
					t.Errorf("%s: started listening:\n%s", strings.Join(args, " "), sb.String())
				}
			}
		}
	}
}

// TestCompactPreservesV3Format: compact saves the mappable format, in
// place or to -o.
func TestCompactPreservesV3Format(t *testing.T) {
	libPath := buildSealedLib(t)
	var sb strings.Builder
	if err := run([]string{"compact", "-lib", libPath, "-remove", "VAR-0000"}, &sb); err != nil {
		t.Fatal(err)
	}
	if v := fileVersion(t, libPath); v != 3 {
		t.Fatalf("compacted v3 file became version %d", v)
	}
	out := filepath.Join(t.TempDir(), "compacted.lib")
	if err := run([]string{"compact", "-lib", libPath, "-remove", "VAR-0001", "-o", out}, &sb); err != nil {
		t.Fatal(err)
	}
	if v := fileVersion(t, out); v != 3 {
		t.Fatalf("compacting to -o wrote version %d", v)
	}
}
