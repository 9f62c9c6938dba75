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

// func scanPlaneAVX2(rows *uint64, nrows, nblocks int, q *uint64, bound, first int, out *int32) int
// Range scan on the AVX2 tier: nrows consecutive rows of nblocks
// 64-byte blocks each are XNOR-popcounted against the nblocks-block
// query, one row after another, with the same nibble-LUT popcount and
// ≤15-block flush cadence as hammingAVX2. The index of every row whose
// distance is ≤ bound (first for the first row, counting up) is written
// to out, and the number written is returned. The store is
// unconditional and the cursor advances only on a pass, so the row loop
// carries no data-dependent branch; the cursor never exceeds the rows
// scanned so far, so out needs nrows entries. The caller guarantees
// nrows·nblocks·8 row words, nblocks·8 query words, nblocks ≥ 1 and
// bound ≥ 0.
TEXT ·scanPlaneAVX2(SB), NOSPLIT, $0-64
	MOVQ rows+0(FP), SI
	MOVQ nrows+8(FP), R12
	MOVQ nblocks+16(FP), R8
	MOVQ q+24(FP), R13
	MOVQ bound+32(FP), R9
	MOVQ first+40(FP), R10
	MOVQ out+48(FP), R11

	XORQ    AX, AX                // AX: rows written to out
	VPXOR   Y9, Y9, Y9            // Y9: zero, VPSADBW's second operand
	VMOVDQU popcntLUT<>(SB), Y10  // Y10: nibble popcount table
	VMOVDQU nibbleMask<>(SB), Y11 // Y11: 0x0f byte mask

	TESTQ R12, R12
	JZ    sp2done

sp2row:
	MOVQ  R13, DI                 // query cursor, rewound per row
	MOVQ  R8, CX                  // blocks left in this row
	VPXOR Y8, Y8, Y8              // Y8: the row's 64-bit lane totals

sp2outer:
	// Run at most 15 blocks into the byte accumulator, then flush.
	MOVQ CX, DX
	CMPQ DX, $15
	JLE  sp2haveRun
	MOVQ $15, DX
sp2haveRun:
	SUBQ  DX, CX
	VPXOR Y7, Y7, Y7              // Y7: per-byte counts for this run

sp2block:
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
	JNZ  sp2block

	VPSADBW Y9, Y7, Y7
	VPADDQ  Y7, Y8, Y8
	TESTQ   CX, CX
	JNZ     sp2outer

	VEXTRACTI128 $1, Y8, X1
	VPADDQ       X1, X8, X8
	VPSHUFD      $0xee, X8, X1
	VPADDQ       X1, X8, X8
	VMOVQ        X8, DX           // DX: the row's distance

	MOVL  R10, (R11)(AX*4)
	XORQ  BX, BX
	CMPQ  DX, R9
	SETLE BL
	ADDQ  BX, AX

	INCQ R10
	DECQ R12
	JNZ  sp2row

sp2done:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET

// One row's share of a block step in scanPlaneAVX512: XNOR-popcount the
// row block at addr against the query block in Z16 into acc.
#define PLANEROW(addr, acc) \
	VPXORQ   addr, Z16, Z17; \
	VPOPCNTQ Z17, Z17;       \
	VPADDQ   Z17, acc, acc

// func scanPlaneAVX512(rows *uint64, ngroups, nblocks int, q *uint64, bound, first int, out *int32) int
// Range scan on the AVX-512 popcount tier, eight rows per step. Within
// a group the walk is block-major: each 64-byte query block is loaded
// into Z16 once and XNOR-popcounted against that block of all eight
// rows, one 64-bit lane accumulator per row (Z0..Z7), so the query
// costs one load per eight row blocks. The eight accumulators collapse
// through a log-depth shuffle tree into one vector of eight row
// distances, a single VPCMPQ against the broadcast bound
// gives the group's pass mask, and only a nonzero mask — rare at a
// selective bound — enters the scalar loop that writes row indices
// (first for the first row, counting up) to out. Returns the number
// written. The caller guarantees ngroups·8 rows of nblocks·8 words,
// nblocks·8 query words, nblocks ≥ 1 and bound ≥ 0.
TEXT ·scanPlaneAVX512(SB), NOSPLIT, $0-64
	MOVQ rows+0(FP), SI
	MOVQ ngroups+8(FP), CX
	MOVQ nblocks+16(FP), R8
	MOVQ q+24(FP), DI
	MOVQ bound+32(FP), R9
	MOVQ first+40(FP), R10
	MOVQ out+48(FP), R11

	XORQ         AX, AX           // AX: rows written to out
	SHLQ         $6, R8           // R8: row stride in bytes
	LEAQ         (R8)(R8*2), R12  // R12: 3 rows
	LEAQ         (R8)(R8*4), R13  // R13: 5 rows
	LEAQ         (R12)(R8*4), R14 // R14: 7 rows
	VPBROADCASTQ R9, Z18          // Z18: bound in every lane

	TESTQ CX, CX
	JZ    sp5done

sp5group:
	VPXORQ Z0, Z0, Z0             // Z0..Z7: per-row 64-bit lane totals
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ   BX, BX                 // BX: byte offset of the block in row and query
	MOVQ   SI, DX                 // DX: that block of the group's first row

sp5block:
	VMOVDQU64 (DI)(BX*1), Z16
	PLANEROW((DX), Z0)
	PLANEROW((DX)(R8*1), Z1)
	PLANEROW((DX)(R8*2), Z2)
	PLANEROW((DX)(R12*1), Z3)
	PLANEROW((DX)(R8*4), Z4)
	PLANEROW((DX)(R13*1), Z5)
	PLANEROW((DX)(R12*2), Z6)
	PLANEROW((DX)(R14*1), Z7)
	ADDQ $64, DX
	ADDQ $64, BX
	CMPQ BX, R8
	JNE  sp5block

	// Collapse the eight accumulators into one vector of eight
	// distances. Level 1 pairs rows: unpack-low/high interleave two
	// rows' qwords, and their sum keeps the rows in alternating slots.
	VPUNPCKLQDQ Z1, Z0, Z8
	VPUNPCKHQDQ Z1, Z0, Z9
	VPADDQ      Z9, Z8, Z8        // rows 0/1 partials, alternating
	VPUNPCKLQDQ Z3, Z2, Z9
	VPUNPCKHQDQ Z3, Z2, Z10
	VPADDQ      Z10, Z9, Z9       // rows 2/3
	VPUNPCKLQDQ Z5, Z4, Z10
	VPUNPCKHQDQ Z5, Z4, Z11
	VPADDQ      Z11, Z10, Z10     // rows 4/5
	VPUNPCKLQDQ Z7, Z6, Z11
	VPUNPCKHQDQ Z7, Z6, Z12
	VPADDQ      Z12, Z11, Z11     // rows 6/7

	// Levels 2 and 3 pair 128-bit lanes: the even and odd lane picks of
	// two vectors sum to twice the rows at half the lanes a row.
	VSHUFI64X2 $0x88, Z9, Z8, Z12
	VSHUFI64X2 $0xdd, Z9, Z8, Z13
	VPADDQ     Z13, Z12, Z12      // rows 0..3 partials
	VSHUFI64X2 $0x88, Z11, Z10, Z13
	VSHUFI64X2 $0xdd, Z11, Z10, Z14
	VPADDQ     Z14, Z13, Z13      // rows 4..7 partials
	VSHUFI64X2 $0x88, Z13, Z12, Z14
	VSHUFI64X2 $0xdd, Z13, Z12, Z15
	VPADDQ     Z15, Z14, Z14      // [dist(row 0) .. dist(row 7)]

	VPCMPQ $2, Z18, Z14, K1       // lane i set iff dist(row i) <= bound
	KMOVW  K1, DX
	TESTQ  DX, DX
	JZ     sp5next

sp5emit:
	BSFQ DX, BX                   // lowest passing row of the group
	ADDQ R10, BX
	MOVL BX, (R11)(AX*4)
	INCQ AX
	LEAQ -1(DX), BX
	ANDQ BX, DX                   // clear that bit
	JNZ  sp5emit

sp5next:
	LEAQ (SI)(R8*8), SI
	ADDQ $8, R10
	DECQ CX
	JNZ  sp5group

sp5done:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
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
