package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"
)

// encodeFrame builds one complete frame for tests.
func encodeFrame(op Opcode, flags uint16, id uint64, payload []byte) []byte {
	buf, off := BeginFrame(nil)
	buf = append(buf, payload...)
	FinishFrame(buf, off, op, flags, id)
	return buf[off:]
}

func TestHeaderRoundTrip(t *testing.T) {
	var b [HeaderSize]byte
	want := Header{Opcode: OpSearch, Flags: FlagResponse, RequestID: 0xdeadbeefcafe, PayloadLen: 12345}
	PutHeader(b[:], want)
	got, err := ParseHeader(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	var good [HeaderSize]byte
	PutHeader(good[:], Header{Opcode: OpPing, RequestID: 7})
	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantErr error
	}{
		{"truncated", func(b []byte) []byte { return b[:HeaderSize-1] }, ErrShortHeader},
		{"empty", func(b []byte) []byte { return nil }, ErrShortHeader},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte {
			b[4] = Version + 1
			// Re-seal the CRC so the version check is what fires.
			binary.LittleEndian.PutUint32(b[20:24], crcOf(b[:20]))
			return b
		}, ErrBadVersion},
		{"bad crc", func(b []byte) []byte { b[20] ^= 0xff; return b }, ErrBadCRC},
		{"flipped payload byte", func(b []byte) []byte { b[17] ^= 0x01; return b }, ErrBadCRC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good[:]...)
			if _, err := ParseHeader(tc.mutate(b)); !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v want %v", err, tc.wantErr)
			}
		})
	}
}

func TestSearchRequestRoundTrip(t *testing.T) {
	for _, both := range []bool{false, true} {
		buf := AppendSearchRequest(nil, []byte("ACGTACGT"), both)
		pat, gotBoth, err := ParseSearchRequest(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(pat) != "ACGTACGT" || gotBoth != both {
			t.Fatalf("round trip: %q %v", pat, gotBoth)
		}
	}
	// Trailing garbage after a well-formed request is a protocol error.
	buf := AppendSearchRequest(nil, []byte("ACGT"), false)
	if _, _, err := ParseSearchRequest(append(buf, 0)); !errors.Is(err, ErrTrailingData) {
		t.Fatalf("trailing byte: got %v", err)
	}
	if _, _, err := ParseSearchRequest(buf[:len(buf)-1]); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("truncated: got %v", err)
	}
	// An out-of-range strand selector byte.
	bad := append([]byte(nil), buf...)
	bad[0] = 7
	if _, _, err := ParseSearchRequest(bad); !errors.Is(err, ErrBadStrands) {
		t.Fatalf("bad strands byte: got %v", err)
	}
}

func TestClassifyRequestRoundTrip(t *testing.T) {
	buf := AppendClassifyRequest(nil, []byte("ACGTAC"), 0.75)
	read, frac, err := ParseClassifyRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(read) != "ACGTAC" || frac != 0.75 {
		t.Fatalf("round trip: %q %v", read, frac)
	}
	if _, _, err := ParseClassifyRequest(buf[:3]); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("truncated: got %v", err)
	}
}

func TestSearchResultRoundTrip(t *testing.T) {
	want := SearchResult{
		Matches: []Match{
			{Ref: "chr1", Offset: 500, Distance: 0, Strand: "+"},
			{Ref: "chr2", Offset: 7, Distance: 3, Strand: "-"},
		},
		Probes: 42,
	}
	buf := AppendSearchResult(nil, &want)
	got, err := ParseSearchResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	assertJSONEqual(t, got, want)
	// Empty matches decode as an empty (non-nil) slice so the JSON twin
	// marshals as [] exactly like the HTTP layer.
	empty, err := ParseSearchResult(AppendSearchResult(nil, &SearchResult{Matches: []Match{}}))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Matches == nil {
		t.Fatal("empty matches decoded as nil")
	}
}

func TestClassifyResultRoundTrip(t *testing.T) {
	want := ClassifyResult{Ref: "chrX", Offset: 1234, Votes: 17, Windows: 20, Fraction: 0.85}
	got, err := ParseClassifyResult(AppendClassifyResult(nil, &want))
	if err != nil {
		t.Fatal(err)
	}
	assertJSONEqual(t, got, want)
}

func TestErrorPayloadRoundTrip(t *testing.T) {
	buf := AppendErrorPayload(nil, 422, "pattern shorter than window")
	se, err := ParseErrorPayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	if se.Code != 422 || se.Msg != "pattern shorter than window" {
		t.Fatalf("round trip: %+v", se)
	}
}

// FuzzWireFrame throws arbitrary bytes at every decoder: a full
// header parse, then each payload parser. Decoders must reject
// garbage with an error — never panic, never over-read.
func FuzzWireFrame(f *testing.F) {
	f.Add(encodeFrame(OpSearch, 0, 1, AppendSearchRequest(nil, []byte("ACGT"), true)))
	f.Add(encodeFrame(OpClassify, 0, 2, AppendClassifyRequest(nil, []byte("ACGTACGT"), 0.5)))
	f.Add(encodeFrame(OpClassify, FlagResponse, 3,
		AppendClassifyResult(nil, &ClassifyResult{Ref: "chr1", Votes: 3, Windows: 4, Fraction: 0.75})))
	f.Add(encodeFrame(OpStats, FlagResponse, 4, []byte(`{"references":1}`)))
	f.Add(encodeFrame(OpErr, FlagResponse|FlagError, 5, AppendErrorPayload(nil, 400, "boom")))
	f.Add(encodeFrame(OpSearch, FlagResponse, 6,
		AppendSearchResult(nil, &SearchResult{Matches: []Match{{Ref: "chr1", Strand: "+"}}, Probes: 1})))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize+8))
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := ParseHeader(data); err == nil {
			_ = validRequestOp(h.Opcode)
		}
		var payload []byte
		if len(data) > HeaderSize {
			payload = data[HeaderSize:]
		}
		for _, p := range [][]byte{data, payload} {
			_, _, _ = ParseSearchRequest(p)
			_, _, _ = ParseClassifyRequest(p)
			_, _ = ParseSearchResult(p)
			_, _ = ParseClassifyResult(p)
			var st StatsResult
			_ = json.Unmarshal(p, &st)
			_, _ = ParseErrorPayload(p)
		}
	})
}
