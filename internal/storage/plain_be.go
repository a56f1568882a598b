//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package storage

// On a big-endian machine (or one plain_le.go does not name) a vector's
// memory is not its plain encoding: every value is converted on its own, by
// the reference loops.

func putWords(p []byte, w []uint64, sel []int32, _ *smallCodes) { putWordsLoop(p, w, sel) }

func decodeWords[T int64 | float64](p []byte) []T { return decodeWordsLoop[T](p) }
