// Package wire implements the BioHD binary wire protocol: a
// length-prefixed little-endian frame format served over long-lived
// TCP connections beside the HTTP API. It exists to strip the
// per-query transport tax off small probes — request parsing, header
// churn, and JSON encode/decode dominate the ~46µs arena scan over
// HTTP/1.1 — and to keep every connection fully pipelined, so the
// server answers a burst of in-flight requests from even a single
// client without a goroutine hand-off and writes the answers together.
//
// Frame grammar (all integers little-endian):
//
//	header (24 bytes):
//	  [0:4)   magic      0x31444842 ("BHD1" on the wire)
//	  [4]     version    5
//	  [5]     opcode     SEARCH 1 | CLASSIFY 2 | STATS 4 | PING 5 | CANCEL 6 | ERR 7
//	                     (3, once BATCH, is retired and never reused)
//	  [6:8)   flags      bit 0 response, bit 1 error
//	  [8:16)  requestID  caller-chosen pipelining key
//	  [16:20) payloadLen bytes of payload following the header
//	  [20:24) headerCRC  CRC-32C (Castagnoli) of header bytes [0:20)
//	payload (payloadLen bytes): opcode-specific, see Append*/Parse*.
//
// A STATS response payload is the /v1/stats JSON body without its
// trailing newline, so a new stats key is one struct field, not a new
// binary layout.
//
// Requests and responses carry the same requestID; responses are
// written in completion order, not submission order, which is what
// makes pipelining useful. An application-level failure (a search
// that would have been an HTTP 4xx/5xx) sets FlagError on a response
// frame whose payload is {code u16, msgLen u32, msg} and leaves the
// connection open. A protocol-level failure — bad magic, bad CRC,
// oversized payload, duplicate in-flight requestID, a truncated or
// over-long payload, an unknown or retired opcode — is answered with
// an OpErr frame and the connection closes; malformed input must
// error, never panic.
//
// The encode/decode layer is allocation-free in steady state: all
// encoders are self-append (buf = Append*(buf, …)) into caller-owned
// buffers, and parsers return subslices of the input frame. The
// //biohd:hotpath annotations below root the lint proof of that.
package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

const (
	// Magic opens every frame; the four bytes read "BHD1" on the wire.
	Magic uint32 = 0x31444842
	// Version is the protocol revision this package speaks. A frame
	// with any other version is a protocol error: the format has no
	// negotiation, matching the one-binary deployments it serves — so
	// any payload layout change must bump this constant. Revisions 2
	// and 3 each grew the binary STATS record; revision 4 made the
	// STATS payload the /v1/stats JSON object, so adding a stats key
	// no longer changes the layout; revision 5 retired the BATCH
	// opcode.
	Version = 5
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 24
	// DefaultMaxFrame caps one frame's payload when the caller does
	// not choose a cap — the same bound the HTTP server puts on
	// request bodies.
	DefaultMaxFrame = 16 << 20
)

// Opcode selects the operation a frame carries.
type Opcode uint8

// Frame opcodes. OpErr only ever appears on a response: it reports a
// protocol-level failure and the server closes the connection after
// writing it. Opcode 3 carried BATCH until revision 5; it is retired,
// never reused, and a frame that carries it is ErrBadOpcode.
const (
	OpSearch   Opcode = 1
	OpClassify Opcode = 2
	OpStats    Opcode = 4
	OpPing     Opcode = 5
	OpCancel   Opcode = 6
	OpErr      Opcode = 7
)

// String names the opcode for metric labels and error messages.
func (op Opcode) String() string {
	switch op {
	case OpSearch:
		return "search"
	case OpClassify:
		return "classify"
	case OpStats:
		return "stats"
	case OpPing:
		return "ping"
	case OpCancel:
		return "cancel"
	case OpErr:
		return "err"
	}
	return "unknown"
}

// Header flag bits.
const (
	// FlagResponse marks a frame travelling server→client.
	FlagResponse uint16 = 1 << 0
	// FlagError marks a response whose payload is {code u16, msgLen
	// u32, msg} instead of the opcode's result encoding.
	FlagError uint16 = 1 << 1
)

// Protocol-level sentinel errors. Every malformed input maps to one
// of these (possibly wrapped); none of the parsers ever panics.
var (
	ErrShortHeader  = errors.New("wire: short frame header")
	ErrBadMagic     = errors.New("wire: bad frame magic")
	ErrBadVersion   = errors.New("wire: unsupported protocol version")
	ErrBadCRC       = errors.New("wire: frame header CRC mismatch")
	ErrFrameTooBig  = errors.New("wire: frame payload exceeds the connection cap")
	ErrShortPayload = errors.New("wire: truncated frame payload")
	ErrTrailingData = errors.New("wire: frame payload has trailing bytes")
	ErrBadOpcode    = errors.New("wire: unknown opcode")
	ErrBadStrands   = errors.New("wire: search strands byte must be 0 (forward) or 1 (both)")
	ErrBadFlags     = errors.New("wire: request frame carries response flags")
	ErrDuplicateID  = errors.New("wire: duplicate in-flight requestID")
)

// crcTable is the Castagnoli polynomial used by the header checksum —
// hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded fixed frame header. Magic, version, and CRC
// are validated by ParseHeader and supplied by PutHeader, so they do
// not appear here.
type Header struct {
	Opcode     Opcode
	Flags      uint16
	RequestID  uint64
	PayloadLen uint32
}

// PutHeader encodes h into b[0:HeaderSize], computing the header CRC.
// The caller guarantees len(b) ≥ HeaderSize.
//
//biohd:hotpath
func PutHeader(b []byte, h Header) {
	binary.LittleEndian.PutUint32(b[0:4], Magic)
	b[4] = Version
	b[5] = byte(h.Opcode)
	binary.LittleEndian.PutUint16(b[6:8], h.Flags)
	binary.LittleEndian.PutUint64(b[8:16], h.RequestID)
	binary.LittleEndian.PutUint32(b[16:20], h.PayloadLen)
	binary.LittleEndian.PutUint32(b[20:24], crc32.Checksum(b[0:20], crcTable))
}

// ParseHeader decodes and validates a frame header: length, magic,
// version, and CRC. It does not bound PayloadLen — the connection
// owns that cap (see ErrFrameTooBig).
//
//biohd:hotpath
func ParseHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, ErrShortHeader
	}
	if binary.LittleEndian.Uint32(b[0:4]) != Magic {
		return h, ErrBadMagic
	}
	if b[4] != Version {
		return h, ErrBadVersion
	}
	if binary.LittleEndian.Uint32(b[20:24]) != crc32.Checksum(b[0:20], crcTable) {
		return h, ErrBadCRC
	}
	h.Opcode = Opcode(b[5])
	h.Flags = binary.LittleEndian.Uint16(b[6:8])
	h.RequestID = binary.LittleEndian.Uint64(b[8:16])
	h.PayloadLen = binary.LittleEndian.Uint32(b[16:20])
	return h, nil
}

// BeginFrame reserves header space at the end of buf and returns the
// extended buffer plus the header's offset. The caller appends the
// payload with the Append* encoders and seals the frame with
// FinishFrame.
//
//biohd:hotpath
func BeginFrame(buf []byte) ([]byte, int) {
	off := len(buf)
	var zero [HeaderSize]byte
	buf = append(buf, zero[:]...)
	return buf, off
}

// FinishFrame writes the header for the frame whose payload occupies
// buf[off+HeaderSize:], as laid down by BeginFrame plus the payload
// encoders.
//
//biohd:hotpath
func FinishFrame(buf []byte, off int, op Opcode, flags uint16, id uint64) {
	PutHeader(buf[off:off+HeaderSize], Header{
		Opcode:     op,
		Flags:      flags,
		RequestID:  id,
		PayloadLen: uint32(len(buf) - off - HeaderSize),
	})
}

// Fixed-width little-endian append/parse helpers. Appends are the
// self-assign form into caller-owned buffers; parses advance an
// offset and report truncation with ErrShortPayload.

//biohd:hotpath
func appendU8(buf []byte, v uint8) []byte {
	buf = append(buf, v)
	return buf
}

//biohd:hotpath
func appendU16(buf []byte, v uint16) []byte {
	buf = append(buf, byte(v), byte(v>>8))
	return buf
}

//biohd:hotpath
func appendU32(buf []byte, v uint32) []byte {
	buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	return buf
}

//biohd:hotpath
func appendU64(buf []byte, v uint64) []byte {
	buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	return buf
}

//biohd:hotpath
func appendF64(buf []byte, v float64) []byte {
	return appendU64(buf, math.Float64bits(v))
}

//biohd:hotpath
func parseU8(p []byte, off int) (uint8, int, error) {
	if off+1 > len(p) {
		return 0, off, ErrShortPayload
	}
	return p[off], off + 1, nil
}

//biohd:hotpath
func parseU16(p []byte, off int) (uint16, int, error) {
	if off+2 > len(p) {
		return 0, off, ErrShortPayload
	}
	return binary.LittleEndian.Uint16(p[off:]), off + 2, nil
}

//biohd:hotpath
func parseU32(p []byte, off int) (uint32, int, error) {
	if off+4 > len(p) {
		return 0, off, ErrShortPayload
	}
	return binary.LittleEndian.Uint32(p[off:]), off + 4, nil
}

//biohd:hotpath
func parseU64(p []byte, off int) (uint64, int, error) {
	if off+8 > len(p) {
		return 0, off, ErrShortPayload
	}
	return binary.LittleEndian.Uint64(p[off:]), off + 8, nil
}

//biohd:hotpath
func parseF64(p []byte, off int) (float64, int, error) {
	v, off, err := parseU64(p, off)
	return math.Float64frombits(v), off, err
}

// parseBytes reads a u32 length prefix and returns that many bytes as
// a subslice of p — no copy, so the result aliases the frame buffer
// and must not outlive it.
//
//biohd:hotpath
func parseBytes(p []byte, off int) ([]byte, int, error) {
	n, off, err := parseU32(p, off)
	if err != nil {
		return nil, off, err
	}
	if uint32(len(p)-off) < n {
		return nil, off, ErrShortPayload
	}
	return p[off : off+int(n)], off + int(n), nil
}

// SEARCH request payload: {strands u8 (0 forward, 1 both), patLen
// u32, pattern}. The pattern is uppercase ACGT text, exactly the
// bytes the HTTP API takes in its JSON "pattern" field.

// AppendSearchRequest encodes a SEARCH request payload.
//
//biohd:hotpath
func AppendSearchRequest(buf []byte, pattern []byte, both bool) []byte {
	var b uint8
	if both {
		b = 1
	}
	buf = appendU8(buf, b)
	buf = appendU32(buf, uint32(len(pattern)))
	buf = append(buf, pattern...)
	return buf
}

// ParseSearchRequest decodes a SEARCH request payload. The pattern
// aliases p.
//
//biohd:hotpath
func ParseSearchRequest(p []byte) (pattern []byte, both bool, err error) {
	b, off, err := parseU8(p, 0)
	if err != nil {
		return nil, false, err
	}
	if b > 1 {
		return nil, false, ErrBadStrands
	}
	pattern, off, err = parseBytes(p, off)
	if err != nil {
		return nil, false, err
	}
	if off != len(p) {
		return nil, false, ErrTrailingData
	}
	return pattern, b == 1, nil
}

// CLASSIFY request payload: {minFraction f64, readLen u32, read}.

// AppendClassifyRequest encodes a CLASSIFY request payload.
//
//biohd:hotpath
func AppendClassifyRequest(buf []byte, read []byte, minFraction float64) []byte {
	buf = appendF64(buf, minFraction)
	buf = appendU32(buf, uint32(len(read)))
	buf = append(buf, read...)
	return buf
}

// ParseClassifyRequest decodes a CLASSIFY request payload. The read
// aliases p.
//
//biohd:hotpath
func ParseClassifyRequest(p []byte) (read []byte, minFraction float64, err error) {
	minFraction, off, err := parseF64(p, 0)
	if err != nil {
		return nil, 0, err
	}
	read, off, err = parseBytes(p, off)
	if err != nil {
		return nil, 0, err
	}
	if off != len(p) {
		return nil, 0, ErrTrailingData
	}
	return read, minFraction, nil
}

// Result types: the one schema of each reply. The HTTP API answers
// with these values JSON-encoded and the wire protocol frames the same
// values, so the two transports cannot drift apart; the
// golden-equivalence tests marshal both answers and compare bytes.

// Match is one verified match.
type Match struct {
	Ref      string `json:"ref"`
	Offset   int    `json:"offset"`
	Distance int    `json:"distance"`
	Strand   string `json:"strand"`
}

// SearchResult is a SEARCH response and the /v1/search body.
type SearchResult struct {
	Matches []Match `json:"matches"`
	Probes  int     `json:"bucketProbes"`
}

// ClassifyResult is a CLASSIFY response and the /v1/classify body.
type ClassifyResult struct {
	Ref      string  `json:"ref"`
	Offset   int     `json:"offset"`
	Votes    int     `json:"votes"`
	Windows  int     `json:"windows"`
	Fraction float64 `json:"fraction"`
}

// BatchItem is one pattern's result in a /v1/batch body.
type BatchItem struct {
	Matches []Match `json:"matches"`
	Error   string  `json:"error,omitempty"`
}

// BatchResult is the /v1/batch body. The wire protocol has no batch
// frame: a wire client pipelines SEARCH frames instead. Canceled
// reports that the request context was canceled (client disconnect or
// deadline) before every pattern was searched: the per-pattern results
// are partial, and unsearched patterns carry a context error in their
// Error field.
type BatchResult struct {
	Results  []BatchItem `json:"results"`
	Probes   int         `json:"bucketProbes"`
	Canceled bool        `json:"canceled,omitempty"`
}

// StatsResult is the /v1/stats body and, JSON-encoded, the STATS
// response payload. Backend names the index backend serving the
// collection ("hdc", "cobs", ...); Dim and Capacity are zero for
// backends they do not apply to.
type StatsResult struct {
	Backend       string  `json:"backend"`
	References    int     `json:"references"`
	Windows       int     `json:"windows"`
	Buckets       int     `json:"buckets"`
	Dim           int     `json:"dim"`
	Window        int     `json:"window"`
	Stride        int     `json:"stride"`
	Capacity      int     `json:"capacity"`
	Approx        bool    `json:"approx"`
	Tolerance     int     `json:"tolerance"`
	Threshold     float64 `json:"threshold"`
	MemBytes      int64   `json:"memoryBytes"`
	MappedBytes   int64   `json:"mappedBytes"`
	ResidentBytes int64   `json:"residentBytes"`
	Segments      int     `json:"segments"`
	Tombstones    float64 `json:"tombstoneRatio"`

	// The HDC probe cascade: stored row width and the words of it the
	// sketch stage reads, bytes of sketch plane resident, and the model's
	// predicted survivor ratio (compare biohd_core_sketch_survivors_total / _rows_total).
	RowWords            int     `json:"rowWords"`
	SketchWords         int     `json:"sketchWords"`
	SketchBytes         int64   `json:"sketchBytes"`
	SketchSurvivorRatio float64 `json:"sketchPredictedSurvivorRatio"`
}

// StatusError is an application-level failure carried in a FlagError
// response: the same status code and message the HTTP API would have
// answered with. The connection stays open.
type StatusError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *StatusError) Error() string { return e.Msg }

// Strand bytes on the wire.
const (
	strandForward = '+'
	strandReverse = '-'
)

// appendMatch encodes one match: {refLen u32, ref, offset u64,
// distance u32, strand u8}.
//
//biohd:hotpath
func appendMatch(buf []byte, m *Match) []byte {
	buf = appendU32(buf, uint32(len(m.Ref)))
	buf = append(buf, m.Ref...)
	buf = appendU64(buf, uint64(m.Offset))
	buf = appendU32(buf, uint32(m.Distance))
	s := uint8(strandForward)
	if m.Strand == "-" {
		s = strandReverse
	}
	buf = appendU8(buf, s)
	return buf
}

// parseMatch decodes one match. The ref string is copied out of p so
// results survive frame-buffer reuse; the per-match allocations make
// the client-side parsers non-hotpath by design.
func parseMatch(p []byte, off int) (Match, int, error) {
	var m Match
	ref, off, err := parseBytes(p, off)
	if err != nil {
		return m, off, err
	}
	o, off, err := parseU64(p, off)
	if err != nil {
		return m, off, err
	}
	d, off, err := parseU32(p, off)
	if err != nil {
		return m, off, err
	}
	s, off, err := parseU8(p, off)
	if err != nil {
		return m, off, err
	}
	m.Ref = string(ref)
	m.Offset = int(o)
	m.Distance = int(int32(d))
	m.Strand = "+"
	if s == strandReverse {
		m.Strand = "-"
	}
	return m, off, nil
}

// AppendSearchResult encodes a SEARCH response payload: {probes u64,
// nMatches u32, matches}.
//
//biohd:hotpath
func AppendSearchResult(buf []byte, res *SearchResult) []byte {
	buf = appendU64(buf, uint64(res.Probes))
	buf = appendU32(buf, uint32(len(res.Matches)))
	for i := range res.Matches {
		buf = appendMatch(buf, &res.Matches[i])
	}
	return buf
}

// ParseSearchResult decodes a SEARCH response payload.
func ParseSearchResult(p []byte) (SearchResult, error) {
	var res SearchResult
	probes, off, err := parseU64(p, 0)
	if err != nil {
		return res, err
	}
	n, off, err := parseU32(p, off)
	if err != nil {
		return res, err
	}
	res.Probes = int(probes)
	res.Matches = make([]Match, 0, minCap(n, p, off))
	for i := uint32(0); i < n; i++ {
		var m Match
		m, off, err = parseMatch(p, off)
		if err != nil {
			return res, err
		}
		res.Matches = append(res.Matches, m)
	}
	if off != len(p) {
		return res, ErrTrailingData
	}
	return res, nil
}

// minCap bounds a declared element count by what the remaining
// payload could possibly hold (every match needs ≥ 17 bytes), so a
// hostile count cannot size a huge slice before parsing fails.
func minCap(n uint32, p []byte, off int) int {
	max := (len(p) - off) / 17
	if int(n) < max {
		return int(n)
	}
	return max
}

// AppendClassifyResult encodes a CLASSIFY response payload: {refLen
// u32, ref, offset u64, votes u32, windows u32, fraction f64}.
//
//biohd:hotpath
func AppendClassifyResult(buf []byte, res *ClassifyResult) []byte {
	buf = appendU32(buf, uint32(len(res.Ref)))
	buf = append(buf, res.Ref...)
	buf = appendU64(buf, uint64(res.Offset))
	buf = appendU32(buf, uint32(res.Votes))
	buf = appendU32(buf, uint32(res.Windows))
	buf = appendF64(buf, res.Fraction)
	return buf
}

// ParseClassifyResult decodes a CLASSIFY response payload.
func ParseClassifyResult(p []byte) (ClassifyResult, error) {
	var res ClassifyResult
	ref, off, err := parseBytes(p, 0)
	if err != nil {
		return res, err
	}
	o, off, err := parseU64(p, off)
	if err != nil {
		return res, err
	}
	votes, off, err := parseU32(p, off)
	if err != nil {
		return res, err
	}
	windows, off, err := parseU32(p, off)
	if err != nil {
		return res, err
	}
	frac, off, err := parseF64(p, off)
	if err != nil {
		return res, err
	}
	if off != len(p) {
		return res, ErrTrailingData
	}
	res.Ref = string(ref)
	res.Offset = int(o)
	res.Votes = int(votes)
	res.Windows = int(windows)
	res.Fraction = frac
	return res, nil
}

// AppendErrorPayload encodes the FlagError / OpErr payload: {code
// u16, msgLen u32, msg}.
//
//biohd:hotpath
func AppendErrorPayload(buf []byte, code int, msg string) []byte {
	buf = appendU16(buf, uint16(code))
	buf = appendU32(buf, uint32(len(msg)))
	buf = append(buf, msg...)
	return buf
}

// ParseErrorPayload decodes a FlagError / OpErr payload into a
// StatusError.
func ParseErrorPayload(p []byte) (*StatusError, error) {
	code, off, err := parseU16(p, 0)
	if err != nil {
		return nil, err
	}
	msg, off, err := parseBytes(p, off)
	if err != nil {
		return nil, err
	}
	if off != len(p) {
		return nil, ErrTrailingData
	}
	return &StatusError{Code: int(code), Msg: string(msg)}, nil
}

// validRequestOp reports whether op may open a request frame.
//
//biohd:hotpath
func validRequestOp(op Opcode) bool {
	switch op {
	case OpSearch, OpClassify, OpStats, OpPing, OpCancel:
		return true
	}
	return false
}
