package server

import (
	"fmt"
	"os"
	"testing"

	"vsfabric/internal/storage"
)

// TestMain fails the package when a test left the shared identity selection
// written: a Sel is read-only to whoever did not allocate it.
func TestMain(m *testing.M) {
	code := m.Run()
	if err := storage.CheckIdentitySel(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}
