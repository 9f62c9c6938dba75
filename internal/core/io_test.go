package core

import (
	"bytes"
	"testing"
)

// readLib loads an HDC library through the backend-dispatching entry
// point and asserts the concrete type.
func readLib(t testing.TB, data []byte) *Library {
	t.Helper()
	idx, err := ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	lib, ok := idx.(*Library)
	if !ok {
		t.Fatalf("ReadIndex returned %T, want *Library", idx)
	}
	return lib
}

// saveLoad round-trips a library through the file format.
func saveLoad(t *testing.T, lib *Library) *Library {
	t.Helper()
	return readLib(t, writeV3Bytes(t, lib))
}

func TestSaveLoadSealedExact(t *testing.T) {
	lib, ref := buildExactLib(t, 2000, 51)
	back := saveLoad(t, lib)
	if back.Describe().Buckets != lib.Describe().Buckets || back.NumWindows() != lib.NumWindows() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			back.Describe().Buckets, back.NumWindows(), lib.Describe().Buckets, lib.NumWindows())
	}
	if !back.Describe().Frozen {
		t.Fatal("loaded library not frozen")
	}
	// Identical query answers, including stats.
	for _, off := range []int{0, 777, 1500} {
		pat := ref.Slice(off, off+32)
		m1, s1, err := lib.Lookup(pat)
		if err != nil {
			t.Fatal(err)
		}
		m2, s2, err := back.Lookup(pat)
		if err != nil {
			t.Fatal(err)
		}
		if len(m1) != len(m2) || s1 != s2 {
			t.Fatalf("off %d: answers diverge: %v/%v vs %v/%v", off, m1, s1, m2, s2)
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("match %d differs: %+v vs %+v", i, m1[i], m2[i])
			}
		}
	}
	// Bucket vectors bit-identical.
	for i := 0; i < lib.Describe().Buckets; i++ {
		if !lib.BucketVector(i).Equal(back.BucketVector(i)) {
			t.Fatalf("bucket %d vector differs", i)
		}
	}
}

func TestSaveLoadApproxKeepsCalibration(t *testing.T) {
	lib := buildApproxLib(t, 1500, 52)
	back := saveLoad(t, lib)
	c1, ok1 := lib.Calibration()
	c2, ok2 := back.Calibration()
	if !ok1 || !ok2 || c1 != c2 {
		t.Fatalf("calibration lost: %+v vs %+v", c1, c2)
	}
	if lib.Describe().Threshold != back.Describe().Threshold {
		t.Fatal("operating thresholds differ")
	}
}

func TestSaveRejectsUnfrozen(t *testing.T) {
	lib := mustLibrary(t, Params{Dim: 1024, Window: 16, Seed: 55})
	var buf bytes.Buffer
	if _, err := lib.WriteToV3(&buf); err == nil {
		t.Fatal("unfrozen library saved")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("not a library"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadIndex(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	lib, _ := buildExactLib(t, 800, 56)
	data := writeV3Bytes(t, lib)
	// Flip a bit in the middle of the payload.
	data[len(data)/2] ^= 0x40
	if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted library accepted")
	}
}

func TestLoadDetectsTruncation(t *testing.T) {
	lib, _ := buildExactLib(t, 800, 57)
	data := writeV3Bytes(t, lib)
	data = data[:len(data)*2/3]
	if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated library accepted")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	lib, _ := buildExactLib(t, 800, 58)
	data := writeV3Bytes(t, lib)
	data[len(libMagic)] = 99 // version field
	if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
		t.Fatal("future version accepted")
	}
}
