#include "textflag.h"

// func storeWords(data []atomic.Uint64, off, step int64, src []uint64)
// stores src[k] to data[off + k*step], k in order, one aligned MOVQ each
// (README, Semantics -> Visibility, says why that suffices).  The caller
// has checked both end offsets of a nonempty block.
TEXT ·storeWords(SB), NOSPLIT, $0-64
	MOVQ data_base+0(FP), DI
	MOVQ off+24(FP), AX
	LEAQ (DI)(AX*8), DI
	MOVQ step+32(FP), DX
	SHLQ $3, DX
	MOVQ src_base+40(FP), SI
	MOVQ src_len+48(FP), CX
loop:
	MOVQ (SI), AX
	MOVQ AX, (DI)
	ADDQ $8, SI
	ADDQ DX, DI
	DECQ CX
	JNE  loop
	RET
