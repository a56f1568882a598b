//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package storage

import (
	"encoding/binary"
	"unsafe"
)

// On a little-endian machine a vector's memory is its plain encoding, so
// both directions move whole runs of values with one copy.

// runBlock is how many selected rows putWords tests for one run at a time.
// A block whose positions are consecutive — every block of an identity
// selection, most of one with a few rows deleted — is one copy of 512 bytes
// of the vector; any other is stored value by value. The test costs a compare
// per block on a sparse selection (its ends are too far apart), where runs are
// too short for a copy to pay, and a read of the block's positions on one
// that copies.
const runBlock = 64

// putWords writes w[i] for each i in sel, little-endian, to p[8k:]. codes,
// when not nil, are w's values a byte a row (an INTEGER column's,
// Int64Column.Codes): a block stored value by value reads them instead, a
// byte a row where w's values would each fault in a cache line of their own.
func putWords(p []byte, w []uint64, sel []int32, codes *smallCodes) {
	for len(sel) > 0 {
		blk := sel[:min(len(sel), runBlock)]
		if lo, ok := IdentityRun(blk); ok && consecutive(blk) {
			run := w[lo : lo+len(blk)]
			copy(p, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(run))), 8*len(run)))
		} else if codes != nil {
			for k, i := range blk {
				binary.LittleEndian.PutUint64(p[8*k:], uint64(codes.base+int64(codes.c[i])))
			}
		} else {
			putWordsLoop(p, w, blk)
		}
		p, sel = p[8*len(blk):], sel[len(blk):]
	}
}

// decodeWords returns a vector of its own holding the len(p)/8 little-endian
// values in p. It copies p once into a fresh byte array — append does not
// zero the bytes it is about to overwrite, as make would — and views that
// array as the vector when the allocation is 8-aligned, as the allocator
// makes every multiple-of-8 size; a misaligned one decodes value by value.
// It never aliases p, which may be the frame buffer the client reads the
// next frame into.
func decodeWords[T int64 | float64](p []byte) []T {
	if b := append([]byte(nil), p...); len(b) > 0 && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
	}
	return decodeWordsLoop[T](p)
}
