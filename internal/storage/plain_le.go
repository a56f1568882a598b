//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package storage

import "unsafe"

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

// putWords writes w[i] for each i in sel, little-endian, to p[8k:].
func putWords(p []byte, w []uint64, sel []int32) {
	for len(sel) > 0 {
		blk := sel[:min(len(sel), runBlock)]
		if lo := blk[0]; int(blk[len(blk)-1]-lo) == len(blk)-1 && consecutive(blk) {
			run := w[lo : int(lo)+len(blk)]
			copy(p, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(run))), 8*len(run)))
		} else {
			putWordsLoop(p, w, blk)
		}
		p, sel = p[8*len(blk):], sel[len(blk):]
	}
}

// consecutive reports whether sel is sel[0], sel[0]+1, sel[0]+2, ...
func consecutive(sel []int32) bool {
	for k, i := range sel {
		if i != sel[0]+int32(k) {
			return false
		}
	}
	return true
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
