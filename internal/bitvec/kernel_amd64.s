//go:build amd64 && !purego

#include "textflag.h"

// Fused XNOR+popcount over packed 64-bit words using AVX2 and the
// nibble-LUT popcount (Muła's algorithm): each 32-byte vector of
// a XOR b is split into low and high nibbles, VPSHUFB looks every
// nibble's popcount up in a 16-entry table, and the per-byte counts
// accumulate in a byte vector that is flushed into 64-bit lanes with
// VPSADBW before it can overflow (each 64-byte block adds at most 16
// to a byte lane, so 15 blocks stay under 255).

// popcount of 0..15, one byte each, repeated in both 128-bit lanes
// (VPSHUFB shuffles within lanes).
DATA popcntLUT<>+0(SB)/8, $0x0302020102010100
DATA popcntLUT<>+8(SB)/8, $0x0403030203020201
DATA popcntLUT<>+16(SB)/8, $0x0302020102010100
DATA popcntLUT<>+24(SB)/8, $0x0403030203020201
GLOBL popcntLUT<>(SB), RODATA|NOPTR, $32

DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $32

// func hammingAVX2(a, b *uint64, nblocks int) int
// Hamming distance over nblocks consecutive 64-byte blocks (8 words
// each) of a and b. The caller guarantees both operands hold
// 8*nblocks words.
TEXT ·hammingAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ nblocks+16(FP), CX

	VPXOR Y8, Y8, Y8              // Y8: running 64-bit lane totals
	VPXOR Y9, Y9, Y9              // Y9: zero, VPSADBW's second operand
	VMOVDQU popcntLUT<>(SB), Y10  // Y10: nibble popcount table
	VMOVDQU nibbleMask<>(SB), Y11 // Y11: 0x0f byte mask

outer:
	TESTQ CX, CX
	JZ    done
	// Run at most 15 blocks into the byte accumulator, then flush.
	MOVQ CX, DX
	CMPQ DX, $15
	JLE  haveRun
	MOVQ $15, DX
haveRun:
	SUBQ  DX, CX
	VPXOR Y7, Y7, Y7 // Y7: per-byte counts for this run

blockloop:
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU 32(SI), Y1
	VPXOR   32(DI), Y1, Y1
	ADDQ    $64, SI
	ADDQ    $64, DI

	VPAND   Y0, Y11, Y2
	VPSRLW  $4, Y0, Y0
	VPAND   Y0, Y11, Y0
	VPSHUFB Y2, Y10, Y2
	VPSHUFB Y0, Y10, Y0
	VPADDB  Y2, Y7, Y7
	VPADDB  Y0, Y7, Y7

	VPAND   Y1, Y11, Y3
	VPSRLW  $4, Y1, Y1
	VPAND   Y1, Y11, Y1
	VPSHUFB Y3, Y10, Y3
	VPSHUFB Y1, Y10, Y1
	VPADDB  Y3, Y7, Y7
	VPADDB  Y1, Y7, Y7

	DECQ DX
	JNZ  blockloop

	VPSADBW Y9, Y7, Y7 // horizontal byte sums per 64-bit lane
	VPADDQ  Y7, Y8, Y8
	JMP     outer

done:
	// Reduce the four 64-bit lane totals to one scalar.
	VEXTRACTI128 $1, Y8, X1
	VPADDQ       X1, X8, X8
	VPSHUFD      $0xee, X8, X1
	VPADDQ       X1, X8, X8
	VMOVQ        X8, AX
	VZEROUPPER
	MOVQ         AX, ret+24(FP)
	RET

// func hammingPopcntAVX512(a, b *uint64, nblocks int) int
// Hamming distance over nblocks consecutive 64-byte blocks of a and b
// using the AVX-512 hardware popcount: one VPXORQ + VPOPCNTQ + VPADDQ
// per 64-byte block, no byte-accumulator flush cadence (the 64-bit
// lane totals cannot overflow). Two interleaved accumulators break the
// VPADDQ dependency chain across the unrolled pair. The caller
// guarantees both operands hold 8·nblocks words.
TEXT ·hammingPopcntAVX512(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ nblocks+16(FP), CX

	VPXORQ Z8, Z8, Z8 // Z8, Z9: interleaved 64-bit lane totals
	VPXORQ Z9, Z9, Z9

	MOVQ CX, DX
	SHRQ $1, DX
	JZ   ptail

ppair:
	VMOVDQU64 (SI), Z0
	VPXORQ    (DI), Z0, Z0
	VPOPCNTQ  Z0, Z0
	VPADDQ    Z0, Z8, Z8
	VMOVDQU64 64(SI), Z1
	VPXORQ    64(DI), Z1, Z1
	VPOPCNTQ  Z1, Z1
	VPADDQ    Z1, Z9, Z9
	ADDQ      $128, SI
	ADDQ      $128, DI
	DECQ      DX
	JNZ       ppair

ptail:
	TESTQ $1, CX
	JZ    preduce
	VMOVDQU64 (SI), Z0
	VPXORQ    (DI), Z0, Z0
	VPOPCNTQ  Z0, Z0
	VPADDQ    Z0, Z8, Z8

preduce:
	VPADDQ        Z9, Z8, Z8
	VEXTRACTI64X4 $1, Z8, Y1
	VPADDQ        Y1, Y8, Y8
	VEXTRACTI128  $1, Y8, X1
	VPADDQ        X1, X8, X8
	VPSHUFD       $0xee, X8, X1
	VPADDQ        X1, X8, X8
	VMOVQ         X8, AX
	VZEROUPPER
	MOVQ          AX, ret+24(FP)
	RET

// The range kernel's group tiers (kernel_plane.go). A group is eight
// rows interleaved by word, so line j of a group — 64 bytes — is word j
// of each of its rows, and the group's w lines lie one after another.
// The queries come word-major at a stride s of 1, 2, 4 or 8 words, the
// power of two at or above the query count k: word j of query q at
// (j·s + q)·8 bytes. Survivors of query q go to rows and dists from
// element q·ScanRoom on, its count in n[q]; before each group the
// kernel stops if any query holds more than ScanRoom − 8 (used tracks
// the largest count), so a group's eight rows always fit.

#define scanRoomBytes 2048 // ScanRoom int32 entries
#define scanRoomLast 504   // ScanRoom − 8

// BQ is query q's share of a line step on the AVX-512 tier at query
// stride s: XOR the line in Z16 with the query's word, broadcast from
// q·8(DX)(BX*s), popcount the eight row lanes and add them into the
// query's accumulator.
#define BQ(q, acc, t, s) \
	VPXORQ.BCST q*8(DX)(BX*s), Z16, t; \
	VPOPCNTQ    t, t;                   \
	VPADDQ      t, acc, acc

// BOPEN starts a group on the AVX-512 tier, or leaves for done when no
// group is left or a query's room could overflow. SI points just past
// the group's lines and DX just past the query words, and BX counts up
// from −8·w to 0 in steps of 8, so line j is at (SI)(BX*8) and word j of
// a query at stride s at (DX)(BX*s), both w − j back from the end.
#define BOPEN(done) \
	TESTQ CX, CX;             \
	JZ    done;               \
	CMPQ  R14, $scanRoomLast; \
	JGT   done;               \
	MOVQ  R8, BX;             \
	NEGQ  BX

// BNEXT moves to the group's next line and loops to top until the
// group's lines are done.
#define BNEXT(top) \
	ADDQ $8, BX; \
	JNZ  top

// BEMIT compares query q's eight distances in acc with the bound (Z30)
// and, where any passes, compresses their row indices (Z28) and
// distances into the query's room and counts them; skip is the label
// it ends at.
#define BEMIT(q, acc, skip) \
	VPCMPQ      $2, Z30, acc, K1;                    \
	KORTESTW    K1, K1;                              \
	JZ          skip;                                \
	MOVQ        q*8(R11), AX;                        \
	VPCOMPRESSD Z28, K1, q*scanRoomBytes(R9)(AX*4);  \
	VPMOVQD     acc, Y31;                            \
	VPCOMPRESSD Z31, K1, q*scanRoomBytes(R10)(AX*4); \
	KMOVW       K1, R13;                             \
	POPCNTL     R13, R13;                            \
	ADDQ        R13, AX;                             \
	MOVQ        AX, q*8(R11);                        \
	CMPQ        AX, R14;                             \
	CMOVQGT     AX, R14;                             \
skip:

// BSTEP moves the row indices and SI to the next group and counts it
// done.
#define BSTEP \
	VPADDD Z29, Z28, Z28; \
	LEAQ   (SI)(R8*8), SI; \
	DECQ   CX

// BZEROk clears the first k accumulators, BSTEPSk(s) is a line's step
// for the first k queries at stride s, and BEMITSk emits the first k
// queries' rows, one label each.
#define BZERO1 VPXORQ Z0, Z0, Z0
#define BZERO2 BZERO1; VPXORQ Z1, Z1, Z1
#define BZERO3 BZERO2; VPXORQ Z2, Z2, Z2
#define BZERO4 BZERO3; VPXORQ Z3, Z3, Z3
#define BZERO5 BZERO4; VPXORQ Z4, Z4, Z4
#define BZERO6 BZERO5; VPXORQ Z5, Z5, Z5
#define BZERO7 BZERO6; VPXORQ Z6, Z6, Z6
#define BZERO8 BZERO7; VPXORQ Z7, Z7, Z7

#define BSTEPS1(s) BQ(0, Z0, Z17, s)
#define BSTEPS2(s) BSTEPS1(s); BQ(1, Z1, Z18, s)
#define BSTEPS3(s) BSTEPS2(s); BQ(2, Z2, Z19, s)
#define BSTEPS4(s) BSTEPS3(s); BQ(3, Z3, Z20, s)
#define BSTEPS5(s) BSTEPS4(s); BQ(4, Z4, Z21, s)
#define BSTEPS6(s) BSTEPS5(s); BQ(5, Z5, Z22, s)
#define BSTEPS7(s) BSTEPS6(s); BQ(6, Z6, Z23, s)
#define BSTEPS8(s) BSTEPS7(s); BQ(7, Z7, Z24, s)

#define BEMITS1(a) BEMIT(0, Z0, a)
#define BEMITS2(a, b) BEMITS1(a); BEMIT(1, Z1, b)
#define BEMITS3(a, b, c) BEMITS2(a, b); BEMIT(2, Z2, c)
#define BEMITS4(a, b, c, d) BEMITS3(a, b, c); BEMIT(3, Z3, d)
#define BEMITS5(a, b, c, d, e) BEMITS4(a, b, c, d); BEMIT(4, Z4, e)
#define BEMITS6(a, b, c, d, e, f) BEMITS5(a, b, c, d, e); BEMIT(5, Z5, f)
#define BEMITS7(a, b, c, d, e, f, g) BEMITS6(a, b, c, d, e, f); BEMIT(6, Z6, g)
#define BEMITS8(a, b, c, d, e, f, g, h) BEMITS7(a, b, c, d, e, f, g); BEMIT(7, Z7, h)

// func scanGroupsAVX512(plane *uint64, ngroups, w int, q *uint64, k, bound, first int, rows, dists *int32, n *[MaxMultiQueries]int, used int) int
// The group tier on AVX-512: each line is loaded once into Z16 and, for
// every query, XORed with the query's word, popcounted and added into
// the query's accumulator Z0..Z7, whose eight lanes are the group's
// eight row distances — no reduction. One VPCMPQ per (group, query)
// gives the passing rows, and only a nonzero mask — rare at a selective
// bound — stores anything. There is one loop per query count k, picked
// once, so the line loop carries no test of k; the loop for one query
// takes lines in pairs into Z0 and Z1, so that its adds form two
// chains, not one a line long. Returns the groups
// scanned. The caller guarantees ngroups·8·w plane words, w·s query
// words, 1 ≤ k ≤ 8, bound ≥ 0 and used the largest count in n.
TEXT ·scanGroupsAVX512(SB), NOSPLIT, $0-96
	MOVQ plane+0(FP), SI
	MOVQ ngroups+8(FP), CX
	MOVQ w+16(FP), R8
	MOVQ q+24(FP), DI
	MOVQ k+32(FP), R12
	MOVQ rows+56(FP), R9
	MOVQ dists+64(FP), R10
	MOVQ n+72(FP), R11
	MOVQ used+80(FP), R14
	SHLQ $3, R8                      // R8: 8·w
	LEAQ (SI)(R8*8), SI              // SI: just past the first group's lines

	VPBROADCASTQ bound+40(FP), Z30   // Z30: the bound in every lane
	MOVQ         first+48(FP), AX
	VPBROADCASTD AX, Z28
	VPADDD       laneBlocks<>(SB), Z28, Z28 // Z28: the group's row indices, one a dword
	MOVL         $8, AX
	VPBROADCASTD AX, Z29              // Z29: eight rows, the index step

	CMPQ R12, $4
	JEQ  b5k4
	JGT  b5high
	CMPQ R12, $2
	JEQ  b5k2
	JGT  b5k3
	JMP  b5k1
b5high:
	CMPQ R12, $6
	JEQ  b5k6
	JLT  b5k5
	CMPQ R12, $7
	JEQ  b5k7
	JMP  b5k8

b5k1:
	LEAQ (DI)(R8*1), DX
b5k1group:
	BOPEN(b5done)
	BZERO2
	TESTQ $8, R8                     // an odd line count takes one line alone
	JZ    b5k1pair
	VMOVDQU64 (SI)(BX*8), Z16
	BQ(0, Z0, Z17, 1)
	ADDQ $8, BX
	JZ   b5k1end
b5k1pair:
	VMOVDQU64   (SI)(BX*8), Z16
	VMOVDQU64   64(SI)(BX*8), Z18
	VPXORQ.BCST (DX)(BX*1), Z16, Z17
	VPXORQ.BCST 8(DX)(BX*1), Z18, Z19
	VPOPCNTQ    Z17, Z17
	VPOPCNTQ    Z19, Z19
	VPADDQ      Z17, Z0, Z0
	VPADDQ      Z19, Z1, Z1
	ADDQ        $16, BX
	JNZ         b5k1pair
b5k1end:
	VPADDQ Z1, Z0, Z0
	BEMITS1(b5k1e0)
	BSTEP
	JMP b5k1group

b5k2:
	LEAQ (DI)(R8*2), DX
b5k2group:
	BOPEN(b5done)
	BZERO2
b5k2line:
	VMOVDQU64 (SI)(BX*8), Z16
	BSTEPS2(2)
	BNEXT(b5k2line)
	BEMITS2(b5k2e0, b5k2e1)
	BSTEP
	JMP b5k2group

b5k3:
	LEAQ (DI)(R8*4), DX
b5k3group:
	BOPEN(b5done)
	BZERO3
b5k3line:
	VMOVDQU64 (SI)(BX*8), Z16
	BSTEPS3(4)
	BNEXT(b5k3line)
	BEMITS3(b5k3e0, b5k3e1, b5k3e2)
	BSTEP
	JMP b5k3group

b5k4:
	LEAQ (DI)(R8*4), DX
b5k4group:
	BOPEN(b5done)
	BZERO4
b5k4line:
	VMOVDQU64 (SI)(BX*8), Z16
	BSTEPS4(4)
	BNEXT(b5k4line)
	BEMITS4(b5k4e0, b5k4e1, b5k4e2, b5k4e3)
	BSTEP
	JMP b5k4group

b5k5:
	LEAQ (DI)(R8*8), DX
b5k5group:
	BOPEN(b5done)
	BZERO5
b5k5line:
	VMOVDQU64 (SI)(BX*8), Z16
	BSTEPS5(8)
	BNEXT(b5k5line)
	BEMITS5(b5k5e0, b5k5e1, b5k5e2, b5k5e3, b5k5e4)
	BSTEP
	JMP b5k5group

b5k6:
	LEAQ (DI)(R8*8), DX
b5k6group:
	BOPEN(b5done)
	BZERO6
b5k6line:
	VMOVDQU64 (SI)(BX*8), Z16
	BSTEPS6(8)
	BNEXT(b5k6line)
	BEMITS6(b5k6e0, b5k6e1, b5k6e2, b5k6e3, b5k6e4, b5k6e5)
	BSTEP
	JMP b5k6group

b5k7:
	LEAQ (DI)(R8*8), DX
b5k7group:
	BOPEN(b5done)
	BZERO7
b5k7line:
	VMOVDQU64 (SI)(BX*8), Z16
	BSTEPS7(8)
	BNEXT(b5k7line)
	BEMITS7(b5k7e0, b5k7e1, b5k7e2, b5k7e3, b5k7e4, b5k7e5, b5k7e6)
	BSTEP
	JMP b5k7group

b5k8:
	LEAQ (DI)(R8*8), DX
b5k8group:
	BOPEN(b5done)
	BZERO8
b5k8line:
	VMOVDQU64 (SI)(BX*8), Z16
	BSTEPS8(8)
	BNEXT(b5k8line)
	BEMITS8(b5k8e0, b5k8e1, b5k8e2, b5k8e3, b5k8e4, b5k8e5, b5k8e6, b5k8e7)
	BSTEP
	JMP b5k8group

b5done:
	MOVQ ngroups+8(FP), AX
	SUBQ CX, AX
	VZEROUPPER
	MOVQ AX, ret+88(FP)
	RET

// func scanGroupsAVX2(plane *uint64, ngroups, w int, q *uint64, k, bound, first int, rows, dists *int32, n *[MaxMultiQueries]int, used int, spill *[8]uint64, qstride int) int
// The group tier on AVX2: for each query the group's lines — in L1
// after the first query's pass — are XORed with the query's word,
// broadcast, and counted with the nibble-LUT popcount into one byte
// accumulator per half line (rows 0..3 in Y4, rows 4..7 in Y5). A line
// adds at most 8 to a byte lane, so a run of 31 lines cannot overflow
// before VPSADBW folds the bytes into the rows' 64-bit totals (Y6, Y7).
// A pass mask from VPCMPGTQ and VMOVMSKPD sends only a group with a
// passing row through the scalar store loop, which reads the distances
// back from spill. qstride is the query stride s in bytes, 8·s.
// Returns the groups scanned, under the caller guarantees of
// scanGroupsAVX512.
TEXT ·scanGroupsAVX2(SB), NOSPLIT, $0-112
	MOVQ plane+0(FP), SI
	MOVQ ngroups+8(FP), CX
	MOVQ w+16(FP), R8
	MOVQ q+24(FP), DI
	MOVQ k+32(FP), R12
	MOVQ n+72(FP), R11
	MOVQ used+80(FP), R14

	MOVQ         bound+40(FP), X15
	VPBROADCASTQ X15, Y15             // Y15: the bound in every lane
	VPXOR        Y9, Y9, Y9           // Y9: zero, VPSADBW's second operand
	VMOVDQU      popcntLUT<>(SB), Y10 // Y10: nibble popcount table
	VMOVDQU      nibbleMask<>(SB), Y11 // Y11: 0x0f byte mask

b2group:
	TESTQ CX, CX
	JZ    b2done
	CMPQ  R14, $scanRoomLast
	JGT   b2done
	XORQ  BX, BX                      // BX: the query

b2query:
	LEAQ  (DI)(BX*8), DX              // DX: the query's word of the line
	MOVQ  SI, R13                     // R13: the line
	MOVQ  R8, R9                      // R9: lines left in the group
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

b2run:
	MOVQ  R9, AX
	CMPQ  AX, $31
	JLE   b2haveRun
	MOVQ  $31, AX
b2haveRun:
	SUBQ  AX, R9
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5

b2line:
	VPBROADCASTQ (DX), Y0
	VPXOR        (R13), Y0, Y1
	VPXOR        32(R13), Y0, Y2
	ADDQ         $64, R13
	ADDQ         qstride+96(FP), DX

	VPAND   Y1, Y11, Y3
	VPSRLW  $4, Y1, Y1
	VPAND   Y1, Y11, Y1
	VPSHUFB Y3, Y10, Y3
	VPSHUFB Y1, Y10, Y1
	VPADDB  Y3, Y4, Y4
	VPADDB  Y1, Y4, Y4

	VPAND   Y2, Y11, Y3
	VPSRLW  $4, Y2, Y2
	VPAND   Y2, Y11, Y2
	VPSHUFB Y3, Y10, Y3
	VPSHUFB Y2, Y10, Y2
	VPADDB  Y3, Y5, Y5
	VPADDB  Y2, Y5, Y5

	DECQ AX
	JNZ  b2line

	VPSADBW Y9, Y4, Y4
	VPADDQ  Y4, Y6, Y6
	VPSADBW Y9, Y5, Y5
	VPADDQ  Y5, Y7, Y7
	TESTQ   R9, R9
	JNZ     b2run

	VPCMPGTQ  Y15, Y6, Y4             // lanes whose distance exceeds the bound
	VPCMPGTQ  Y15, Y7, Y5
	VMOVMSKPD Y4, AX
	VMOVMSKPD Y5, DX
	SHLQ      $4, DX
	ORQ       DX, AX
	XORQ      $0xff, AX               // AX: the group's passing rows
	JZ        b2nextq

	MOVQ    spill+88(FP), DX
	VMOVDQU Y6, (DX)
	VMOVDQU Y7, 32(DX)
	MOVQ    (R11)(BX*8), R13
	MOVQ    BX, R9
	SHLQ    $9, R9                    // ScanRoom entries a query
	ADDQ    R9, R13                   // R13: the query's next entry

b2emit:
	BSFQ AX, DX                       // lowest passing row of the group
	MOVQ spill+88(FP), R9
	MOVQ (R9)(DX*8), R10
	MOVQ dists+64(FP), R9
	MOVL R10, (R9)(R13*4)
	MOVQ ngroups+8(FP), R10
	SUBQ CX, R10
	SHLQ $3, R10
	ADDQ first+48(FP), R10
	ADDQ DX, R10                      // R10: the row's index
	MOVQ rows+56(FP), R9
	MOVL R10, (R9)(R13*4)
	INCQ R13
	LEAQ -1(AX), DX
	ANDQ DX, AX                       // clear that row
	JNZ  b2emit

	MOVQ    BX, R9
	SHLQ    $9, R9
	SUBQ    R9, R13
	MOVQ    R13, (R11)(BX*8)
	CMPQ    R13, R14
	CMOVQGT R13, R14

b2nextq:
	INCQ BX
	CMPQ BX, R12
	JLT  b2query

	MOVQ R8, AX
	SHLQ $6, AX
	ADDQ AX, SI                       // the next group
	DECQ CX
	JMP  b2group

b2done:
	MOVQ ngroups+8(FP), AX
	SUBQ CX, AX
	VZEROUPPER
	MOVQ AX, ret+104(FP)
	RET

// The row-fold kernels (kernel_fold.go). Both walk the output one
// 64-byte column block at a time and, inside a block, the rows named by
// idx: row i of the table starts i·nblocks·64 bytes in, so a row's block
// is at SI + idx[j]·stride with SI already advanced to the column.

// FOLDROW puts the byte offset of row idx[BX + k/4] into reg.
#define FOLDROW(k, reg) \
	MOVLQSX k(R8)(BX*4), reg; \
	IMULQ   R12, reg

// CSA512 is a carry-save adder over 512 one-bit lanes: p + b + c =
// p' + 2·k. VPTERNLOGQ 0x96 is the three-way XOR, 0xE8 the majority.
#define CSA512(p, b, c, k) \
	VMOVDQA64  p, k;          \
	VPTERNLOGQ $0x96, c, b, p; \
	VPTERNLOGQ $0xE8, c, b, k

// HALF512 is a half adder: p + c = p' + 2·k.
#define HALF512(p, c, k) \
	VPANDQ c, p, k; \
	VPXORQ c, p, p

// func majorityRowsAVX512(out, table *uint64, idx *int32, n, nblocks int, tie *uint64, tieMask uint64, seed *[8]uint64)
// Lane-wise majority of n ≤ 255 table rows on the AVX-512 tier. Z0..Z7
// hold bit planes 0..7 of the 512 lane counts of the current column
// block, each seeded with seed[k] in every lane (the bits of
// 127 − ⌊n/2⌋), so after the rows are added "ones > ⌊n/2⌋" is plane 7
// and "ones == ⌊n/2⌋" is planes 0..6 all set: the block's result is
// Z7 | (Z0 & … & Z6 & tie & tieMask), with no compare pass. Rows enter
// eight at a time through seven carry-save adders — four fold the rows
// into plane 0, two fold their carries into plane 1, one folds those
// into plane 2 — and the one weight-8 carry left ripples through planes
// 3..7 with half adders; the n mod 8 rows left over ripple in one at a
// time from plane 0. The biased count never exceeds 255, so nothing
// carries out of plane 7. The caller guarantees n ≥ 1, every idx[j] a
// row of the nblocks-block table, and nblocks blocks of out and tie.
TEXT ·majorityRowsAVX512(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ table+8(FP), SI
	MOVQ idx+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ nblocks+32(FP), CX
	MOVQ tie+40(FP), R10
	MOVQ seed+56(FP), R11

	VPBROADCASTQ tieMask+48(FP), Z24
	VPBROADCASTQ 0(R11), Z16      // Z16..Z23: the planes' seeds
	VPBROADCASTQ 8(R11), Z17
	VPBROADCASTQ 16(R11), Z18
	VPBROADCASTQ 24(R11), Z19
	VPBROADCASTQ 32(R11), Z20
	VPBROADCASTQ 40(R11), Z21
	VPBROADCASTQ 48(R11), Z22
	VPBROADCASTQ 56(R11), Z23

	MOVQ CX, R12
	SHLQ $6, R12                  // R12: row stride in bytes
	MOVQ R9, R13
	ANDQ $-8, R13                 // R13: rows that enter in whole groups

mj5block:
	VMOVDQA64 Z16, Z0
	VMOVDQA64 Z17, Z1
	VMOVDQA64 Z18, Z2
	VMOVDQA64 Z19, Z3
	VMOVDQA64 Z20, Z4
	VMOVDQA64 Z21, Z5
	VMOVDQA64 Z22, Z6
	VMOVDQA64 Z23, Z7
	XORQ      BX, BX              // BX: rows folded into this block
	CMPQ      BX, R13
	JGE       mj5single

mj5group:
	FOLDROW(0, AX)
	FOLDROW(4, DX)
	VMOVDQU64 (SI)(AX*1), Z8
	VMOVDQU64 (SI)(DX*1), Z9
	CSA512(Z0, Z8, Z9, Z10)
	FOLDROW(8, AX)
	FOLDROW(12, DX)
	VMOVDQU64 (SI)(AX*1), Z8
	VMOVDQU64 (SI)(DX*1), Z9
	CSA512(Z0, Z8, Z9, Z11)
	FOLDROW(16, AX)
	FOLDROW(20, DX)
	VMOVDQU64 (SI)(AX*1), Z8
	VMOVDQU64 (SI)(DX*1), Z9
	CSA512(Z0, Z8, Z9, Z12)
	FOLDROW(24, AX)
	FOLDROW(28, DX)
	VMOVDQU64 (SI)(AX*1), Z8
	VMOVDQU64 (SI)(DX*1), Z9
	CSA512(Z0, Z8, Z9, Z13)       // Z10..Z13: four carries of weight 2
	CSA512(Z1, Z10, Z11, Z14)
	CSA512(Z1, Z12, Z13, Z15)     // Z14, Z15: two carries of weight 4
	CSA512(Z2, Z14, Z15, Z8)      // Z8: one carry of weight 8
	HALF512(Z3, Z8, Z9)
	HALF512(Z4, Z9, Z8)
	HALF512(Z5, Z8, Z9)
	HALF512(Z6, Z9, Z8)
	VPXORQ Z8, Z7, Z7
	ADDQ   $8, BX
	CMPQ   BX, R13
	JLT    mj5group

mj5single:
	CMPQ BX, R9
	JGE  mj5seal
	FOLDROW(0, AX)
	VMOVDQU64 (SI)(AX*1), Z8
	HALF512(Z0, Z8, Z9)
	HALF512(Z1, Z9, Z8)
	HALF512(Z2, Z8, Z9)
	HALF512(Z3, Z9, Z8)
	HALF512(Z4, Z8, Z9)
	HALF512(Z5, Z9, Z8)
	HALF512(Z6, Z8, Z9)
	VPXORQ Z9, Z7, Z7
	INCQ   BX
	JMP    mj5single

mj5seal:
	VMOVDQA64  Z0, Z8
	VPTERNLOGQ $0x80, Z2, Z1, Z8  // 0x80: three-way AND
	VPTERNLOGQ $0x80, Z4, Z3, Z8
	VPTERNLOGQ $0x80, Z6, Z5, Z8
	VPTERNLOGQ $0x80, (R10), Z24, Z8
	VPORQ      Z7, Z8, Z8
	VMOVDQU64  Z8, (DI)
	ADDQ       $64, DI
	ADDQ       $64, SI
	ADDQ       $64, R10
	DECQ       CX
	JNZ        mj5block

	VZEROUPPER
	RET

// func xorRowsAVX512(out, table *uint64, idx *int32, n, nblocks int)
// XORs n table rows into out on the AVX-512 tier, one 64-byte column
// block at a time, two rows per three-way XOR. The caller guarantees
// n ≥ 1, every idx[j] a row of the nblocks-block table, and nblocks
// blocks of out.
TEXT ·xorRowsAVX512(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ table+8(FP), SI
	MOVQ idx+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ nblocks+32(FP), CX

	MOVQ CX, R12
	SHLQ $6, R12                  // R12: row stride in bytes
	MOVQ R9, R13
	ANDQ $-2, R13                 // R13: rows that enter in pairs

xr5block:
	VMOVDQU64 (DI), Z0
	XORQ      BX, BX              // BX: rows folded into this block
	CMPQ      BX, R13
	JGE       xr5single

xr5pair:
	FOLDROW(0, AX)
	FOLDROW(4, DX)
	VMOVDQU64  (SI)(AX*1), Z1
	VPTERNLOGQ $0x96, (SI)(DX*1), Z1, Z0
	ADDQ       $2, BX
	CMPQ       BX, R13
	JLT        xr5pair

xr5single:
	CMPQ BX, R9
	JGE  xr5store
	FOLDROW(0, AX)
	VPXORQ (SI)(AX*1), Z0, Z0

xr5store:
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, DI
	ADDQ      $64, SI
	DECQ      CX
	JNZ       xr5block

	VZEROUPPER
	RET

// CSA256 and HALF256 are CSA512 and HALF512 over 256 lanes without
// VPTERNLOGQ: five plain operations per adder and a scratch register u.
#define CSA256(p, b, c, k, u) \
	VPXOR b, p, u; \
	VPAND b, p, k; \
	VPXOR c, u, p; \
	VPAND c, u, u; \
	VPOR  u, k, k

#define HALF256(p, c, k) \
	VPAND c, p, k; \
	VPXOR c, p, p

// func majorityRowsAVX2(out, table *uint64, idx *int32, n, nblocks int, tie *uint64, tieMask uint64, seed *[8]uint64)
// majorityRowsAVX512 on the AVX2 tier: the same seeded planes, adder
// tree and seal over 32-byte half blocks, planes in Y0..Y7, the seeds
// re-broadcast from memory per half block because sixteen registers
// cannot also hold them.
TEXT ·majorityRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ table+8(FP), SI
	MOVQ idx+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ nblocks+32(FP), CX
	MOVQ tie+40(FP), R10
	MOVQ seed+56(FP), R11

	VPBROADCASTQ tieMask+48(FP), Y15
	MOVQ CX, R12
	SHLQ $6, R12                  // R12: row stride in bytes
	ADDQ CX, CX                   // CX: half blocks left
	MOVQ R9, R13
	ANDQ $-8, R13                 // R13: rows that enter in whole groups

mj2block:
	VPBROADCASTQ 0(R11), Y0
	VPBROADCASTQ 8(R11), Y1
	VPBROADCASTQ 16(R11), Y2
	VPBROADCASTQ 24(R11), Y3
	VPBROADCASTQ 32(R11), Y4
	VPBROADCASTQ 40(R11), Y5
	VPBROADCASTQ 48(R11), Y6
	VPBROADCASTQ 56(R11), Y7
	XORQ         BX, BX           // BX: rows folded into this half block
	CMPQ         BX, R13
	JGE          mj2single

mj2group:
	FOLDROW(0, AX)
	FOLDROW(4, DX)
	VMOVDQU (SI)(AX*1), Y12
	VMOVDQU (SI)(DX*1), Y13
	CSA256(Y0, Y12, Y13, Y8, Y14)
	FOLDROW(8, AX)
	FOLDROW(12, DX)
	VMOVDQU (SI)(AX*1), Y12
	VMOVDQU (SI)(DX*1), Y13
	CSA256(Y0, Y12, Y13, Y9, Y14)
	FOLDROW(16, AX)
	FOLDROW(20, DX)
	VMOVDQU (SI)(AX*1), Y12
	VMOVDQU (SI)(DX*1), Y13
	CSA256(Y0, Y12, Y13, Y10, Y14)
	FOLDROW(24, AX)
	FOLDROW(28, DX)
	VMOVDQU (SI)(AX*1), Y12
	VMOVDQU (SI)(DX*1), Y13
	CSA256(Y0, Y12, Y13, Y11, Y14) // Y8..Y11: four carries of weight 2
	CSA256(Y1, Y8, Y9, Y12, Y14)
	CSA256(Y1, Y10, Y11, Y13, Y14) // Y12, Y13: two carries of weight 4
	CSA256(Y2, Y12, Y13, Y8, Y14)  // Y8: one carry of weight 8
	HALF256(Y3, Y8, Y9)
	HALF256(Y4, Y9, Y8)
	HALF256(Y5, Y8, Y9)
	HALF256(Y6, Y9, Y8)
	VPXOR Y8, Y7, Y7
	ADDQ  $8, BX
	CMPQ  BX, R13
	JLT   mj2group

mj2single:
	CMPQ BX, R9
	JGE  mj2seal
	FOLDROW(0, AX)
	VMOVDQU (SI)(AX*1), Y8
	HALF256(Y0, Y8, Y9)
	HALF256(Y1, Y9, Y8)
	HALF256(Y2, Y8, Y9)
	HALF256(Y3, Y9, Y8)
	HALF256(Y4, Y8, Y9)
	HALF256(Y5, Y9, Y8)
	HALF256(Y6, Y8, Y9)
	VPXOR Y9, Y7, Y7
	INCQ  BX
	JMP   mj2single

mj2seal:
	VPAND   Y1, Y0, Y8
	VPAND   Y2, Y8, Y8
	VPAND   Y3, Y8, Y8
	VPAND   Y4, Y8, Y8
	VPAND   Y5, Y8, Y8
	VPAND   Y6, Y8, Y8
	VPAND   (R10), Y8, Y8
	VPAND   Y15, Y8, Y8
	VPOR    Y7, Y8, Y8
	VMOVDQU Y8, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R10
	DECQ    CX
	JNZ     mj2block

	VZEROUPPER
	RET

// The lane-match kernel (kernel_lanes.go).

// Block indices 0..7 of a group, one dword each; VPCOMPRESSD reads the
// low eight of the sixteen.
DATA laneBlocks<>+0(SB)/8, $0x0000000100000000
DATA laneBlocks<>+8(SB)/8, $0x0000000300000002
DATA laneBlocks<>+16(SB)/8, $0x0000000500000004
DATA laneBlocks<>+24(SB)/8, $0x0000000700000006
DATA laneBlocks<>+32(SB)/8, $0
DATA laneBlocks<>+40(SB)/8, $0
DATA laneBlocks<>+48(SB)/8, $0
DATA laneBlocks<>+56(SB)/8, $0
GLOBL laneBlocks<>(SB), RODATA|NOPTR, $64

// LANEBASE broadcasts the low base of R13, times 0x5555… (R12), to
// every lane of reg and moves R13 on to the next base.
#define LANEBASE(reg) \
	MOVQ         R13, AX; \
	ANDQ         $3, AX;  \
	IMULQ        R12, AX; \
	VPBROADCASTQ AX, reg; \
	SHRQ         $2, R13

// LANESTEP is step j of the group (s = 2j, t = 64 − 2j): x = (lo>>s |
// hi<<t) ^ bc (VPTERNLOGQ 0x56 is (A | B) ^ C), then m &^= x | x>>1
// (0x10 is A &^ (B | C)), and the popcount of m joins the count.
#define LANESTEP(s, t, bc) \
	VPSRLQ     $s, Z0, Z2;        \
	VPSLLQ     $t, Z1, Z3;        \
	VPTERNLOGQ $0x56, bc, Z3, Z2; \
	VPSRLQ     $1, Z2, Z3;        \
	VPTERNLOGQ $0x10, Z3, Z2, Z5; \
	VPOPCNTQ   Z5, Z4;            \
	VPADDQ     Z4, Z6, Z6

// func laneMatchAVX512(words *uint64, ngroups int, key uint64, blocks *int32, masks *uint64, room int) (groups, n, cmps int)
// The first eight lane steps over groups of eight blocks, block q being
// words[q] with words[q+1] above it. Z0 holds the group's eight words,
// Z1 the eight after each (one word further on), Z8..Z15 the pattern
// bases 0..7 of key broadcast, Z5 the eight live masks. After the
// eighth step VPTESTMQ marks the blocks with a live lane; the
// VPCOMPRESSQ/VPCOMPRESSD pair stores their masks and group-relative
// block indices (Z16) at the cursor AX, in ascending order, writing
// exactly as many entries as survive. A group adds at most eight, so
// the loop stops before the group that could overflow room. Returns
// the groups scanned, the survivors written and Σ popcount of the
// masks after every step. The caller guarantees ngroups·8 + 1 words,
// ngroups ≥ 1 and room ≥ 8.
TEXT ·laneMatchAVX512(SB), NOSPLIT, $0-72
	MOVQ words+0(FP), SI
	MOVQ ngroups+8(FP), CX
	MOVQ key+16(FP), R13
	MOVQ blocks+24(FP), DI
	MOVQ masks+32(FP), R8
	MOVQ room+40(FP), R9

	MOVQ         $0x5555555555555555, R12
	VPBROADCASTQ R12, Z7          // Z7: every lane live
	LANEBASE(Z8)
	LANEBASE(Z9)
	LANEBASE(Z10)
	LANEBASE(Z11)
	LANEBASE(Z12)
	LANEBASE(Z13)
	LANEBASE(Z14)
	LANEBASE(Z15)
	VMOVDQU32    laneBlocks<>(SB), Z16
	MOVL         $8, AX
	VPBROADCASTD AX, Z17          // Z17: eight blocks, the index step
	VPXORQ       Z6, Z6, Z6       // Z6: comparison count per block slot
	XORQ         AX, AX           // AX: survivors written
	XORQ         BX, BX           // BX: groups scanned
	SUBQ         $8, R9           // R9: the cursor a group may start at

lmgroup:
	CMPQ BX, CX
	JGE  lmdone
	CMPQ AX, R9
	JGT  lmdone
	VMOVDQU64 (SI), Z0
	VMOVDQU64 8(SI), Z1

	// Step 0 reads the words as they are.
	VPXORQ     Z8, Z0, Z2
	VPSRLQ     $1, Z2, Z3
	VMOVDQA64  Z7, Z5
	VPTERNLOGQ $0x10, Z3, Z2, Z5
	VPOPCNTQ   Z5, Z4
	VPADDQ     Z4, Z6, Z6
	LANESTEP(2, 62, Z9)
	LANESTEP(4, 60, Z10)
	LANESTEP(6, 58, Z11)
	LANESTEP(8, 56, Z12)
	LANESTEP(10, 54, Z13)
	LANESTEP(12, 52, Z14)
	LANESTEP(14, 50, Z15)

	VPTESTMQ Z5, Z5, K1           // blocks with a live lane
	KORTESTW K1, K1
	JZ       lmnext
	VPCOMPRESSQ Z5, K1, (R8)(AX*8)
	VPCOMPRESSD Z16, K1, (DI)(AX*4)
	KMOVW    K1, DX
	POPCNTL  DX, DX
	ADDQ     DX, AX

lmnext:
	VPADDD Z17, Z16, Z16
	ADDQ   $64, SI
	INCQ   BX
	JMP    lmgroup

lmdone:
	VEXTRACTI64X4 $1, Z6, Y1
	VPADDQ        Y1, Y6, Y6
	VEXTRACTI128  $1, Y6, X1
	VPADDQ        X1, X6, X6
	VPSHUFD       $0xee, X6, X1
	VPADDQ        X1, X6, X6
	VMOVQ         X6, DX
	VZEROUPPER
	MOVQ          BX, groups+48(FP)
	MOVQ          AX, n+56(FP)
	MOVQ          DX, cmps+64(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL  leaf+0(FP), AX
	MOVL  subleaf+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL    CX, CX
	XGETBV
	MOVL    AX, eax+0(FP)
	MOVL    DX, edx+4(FP)
	RET
