package storage

import (
	"encoding/binary"
	"unsafe"
)

// The fixed-width half of the plain codec: an INTEGER or FLOAT value is
// written as the little-endian bytes of its 64-bit pattern. putWords and
// decodeWords (plain_le.go, plain_be.go) are the forms AppendBatches and
// decodePlain run; the per-value loops below are the reference they must
// equal, and what a big-endian build runs (TestPlainWordsMatchReference).
// This file and plain_le.go are the package's only use of unsafe.

// words views an INTEGER or FLOAT vector as the 64-bit patterns its values
// are stored as. int64, float64 and uint64 share size and alignment and hold
// no pointers, so the view is exact on every architecture; it aliases v.
func words[T int64 | float64](v []T) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

// putWordsLoop writes w[i] for each i in sel, little-endian, to p[8k:].
func putWordsLoop(p []byte, w []uint64, sel []int32) {
	for k, i := range sel {
		binary.LittleEndian.PutUint64(p[8*k:], w[i])
	}
}

// decodeWordsLoop returns a vector of its own holding the len(p)/8
// little-endian values in p.
func decodeWordsLoop[T int64 | float64](p []byte) []T {
	v := make([]T, len(p)/8)
	for i, w := 0, words(v); i < len(w); i++ {
		w[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return v
}
