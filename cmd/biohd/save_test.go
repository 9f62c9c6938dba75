package main

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/rng"
)

// goldenV2 is the checked-in legacy stream the last v2 writer produced
// (three 400-base references drawn from rng.New(9001), D=2048, window
// 24, approximate mode) — the input of every convert test now that
// nothing writes the format.
const goldenV2 = "../../internal/core/testdata/golden_v2_sealed.lib"

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

func TestConvertV2ToV3AndSearch(t *testing.T) {
	if v := fileVersion(t, goldenV2); v != 2 {
		t.Fatalf("golden is version %d", v)
	}
	v3Path := filepath.Join(t.TempDir(), "lib.v3")
	var sb strings.Builder
	if err := run([]string{"convert", "-lib", goldenV2, "-o", v3Path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "converted") || !strings.Contains(sb.String(), "format v3") {
		t.Fatalf("no conversion report: %q", sb.String())
	}
	if v := fileVersion(t, v3Path); v != 3 {
		t.Fatalf("converted file version %d", v)
	}
	if _, err := os.Stat(v3Path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("convert left its temporary file behind")
	}
	// The converted library answers exactly as the legacy file does.
	pat := genome.Random(400, rng.New(9001)).Slice(80, 104).String()
	var want, got strings.Builder
	if err := run([]string{"search", "-lib", goldenV2, "-pattern", pat}, &want); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"search", "-lib", v3Path, "-pattern", pat}, &got); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.String(), "ref-0:80") || got.String() != want.String() {
		t.Fatalf("search against converted library:\n%s\nagainst the v2 file:\n%s", got.String(), want.String())
	}
}

// TestConvertRejectsUnsealed: a raw-counter library can only arrive as
// a legacy file, and no command opens one any more — each fails with the
// core's typed error and writes nothing.
func TestConvertRejectsUnsealed(t *testing.T) {
	const raw = "../../internal/core/testdata/golden_v2_raw.lib"
	v3Path := filepath.Join(t.TempDir(), "lib.v3")
	pat := genome.Random(24, rng.New(1)).String()
	for _, args := range [][]string{
		{"convert", "-lib", raw, "-o", v3Path},
		{"search", "-lib", raw, "-pattern", pat},
		{"serve", "-lib", raw, "-addr", "127.0.0.1:0"},
		{"serve", "-lib", "../../internal/core/testdata/golden_v1_raw.lib", "-mmap", "-addr", "127.0.0.1:0"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); !errors.Is(err, core.ErrRawCounters) {
			t.Errorf("%s: %v, want core.ErrRawCounters", strings.Join(args, " "), err)
		}
	}
	if _, err := os.Stat(v3Path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed convert left its temporary file behind")
	}
	if _, err := os.Stat(v3Path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed convert created the output file")
	}
}

func TestConvertFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"convert"}, &sb); err == nil {
		t.Fatal("convert without flags accepted")
	}
	if err := run([]string{"convert", "-lib", goldenV2}, &sb); err == nil {
		t.Fatal("convert without -o accepted")
	}
	// v3 is the only format written: the -format flag is gone.
	if err := run([]string{"convert", "-lib", goldenV2, "-o", filepath.Join(t.TempDir(), "x"), "-format", "v2"}, &sb); err == nil {
		t.Fatal("removed -format flag accepted")
	}
}

// TestCompactPreservesV3Format: whatever format the input arrived in,
// compact saves the mappable one.
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
	if err := run([]string{"compact", "-lib", goldenV2, "-remove", "ref-1", "-o", out}, &sb); err != nil {
		t.Fatal(err)
	}
	if v := fileVersion(t, out); v != 3 {
		t.Fatalf("compacting a v2 file wrote version %d", v)
	}
}
