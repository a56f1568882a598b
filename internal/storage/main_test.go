package storage

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
)

// TestMain fails the package when a test left the shared identity selection
// written: a Sel is read-only to whoever did not allocate it.
func TestMain(m *testing.M) {
	code := m.Run()
	if err := CheckIdentitySel(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// TestIdentitySelShared: IdentitySel hands out capacity-capped prefixes of one
// vector, so appending to one copies; growing the vector — from several
// goroutines at once — leaves the prefixes handed out as they were; and
// IsIdentity knows a prefix of the current vector by where it starts alone.
func TestIdentitySelShared(t *testing.T) {
	a := IdentitySel(10)
	if len(a) != 10 || cap(a) != 10 || !IsIdentity(a) || !IsIdentity(a[:4]) {
		t.Fatalf("IdentitySel(10): len %d, cap %d, IsIdentity %v", len(a), cap(a), IsIdentity(a))
	}
	if b := IdentitySel(3); &b[0] != &a[0] {
		t.Error("two identities cut from one vector do not share it")
	}
	for _, sel := range [][]int32{nil, a[:0], a[1:], slices.Clone(a), {0, 1, 2}} {
		if IsIdentity(sel) {
			t.Errorf("IsIdentity(%v) holds for a selection that does not start the shared vector", sel)
		}
	}
	_ = append(a, -1)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n < 5000; n += 1 + g*37 {
				if sel := IdentitySel(n); len(sel) != n || sel[n-1] != int32(n-1) {
					t.Errorf("IdentitySel(%d) ends in %d", n, sel[len(sel)-1])
					return
				}
			}
		}()
	}
	wg.Wait()
	grown := IdentitySel(2*len(identityVals()) + 1)
	if IsIdentity(a) || !IsIdentity(grown) {
		t.Errorf("after growing: IsIdentity of the outgrown prefix %v, of the new one %v", IsIdentity(a), IsIdentity(grown))
	}
	if !slices.Equal(a, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Errorf("a prefix of the outgrown vector now reads %v", a)
	}
	if err := CheckIdentitySel(); err != nil {
		t.Fatal(err)
	}
}
