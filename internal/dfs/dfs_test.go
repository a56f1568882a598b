package dfs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPutGetRoundTrip(t *testing.T) {
	fs := New()
	data := []byte("<PMML>...</PMML>")
	if err := fs.Put("models/m.pmml", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get("models/m.pmml")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get = %q, %v", got, err)
	}
	// Returned slice is a copy: mutating it must not corrupt the store.
	got[0] = 'X'
	again, _ := fs.Get("models/m.pmml")
	if again[0] != '<' {
		t.Error("Get must return a copy")
	}
	// Leading slash is normalized.
	if !fs.Exists("/models/m.pmml") {
		t.Error("path normalization broken")
	}
}

func TestOverwrite(t *testing.T) {
	fs := New()
	fs.clock = func() time.Time { return time.Unix(1, 0) }
	_ = fs.Put("f", []byte("one"))
	first, _ := fs.Stat("f")
	_ = fs.Put("f", []byte("two"))
	got, _ := fs.Get("f")
	if string(got) != "two" {
		t.Errorf("overwrite = %q", got)
	}
	// A rewrite within one clock tick still shows as a new version.
	if second, err := fs.Stat("f"); err != nil || second.Version == first.Version {
		t.Errorf("Stat after overwrite = %+v, %v; before %+v", second, err, first)
	}
}

func TestDeleteAndList(t *testing.T) {
	fs := New()
	_ = fs.Put("models/a", []byte("1"))
	_ = fs.Put("models/b", []byte("22"))
	_ = fs.Put("other/c", []byte("3"))
	infos := fs.List("models/")
	if len(infos) != 2 || infos[0].Path != "models/a" || infos[1].Size != 2 {
		t.Errorf("list = %v", infos)
	}
	if err := fs.Delete("models/a"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("models/a") {
		t.Error("deleted file should be gone")
	}
	if err := fs.Delete("models/a"); err == nil {
		t.Error("double delete should fail")
	}
}

func TestErrors(t *testing.T) {
	fs := New()
	if _, err := fs.Get("missing"); err == nil {
		t.Error("missing file should error")
	}
	if _, err := fs.Stat("missing"); err == nil {
		t.Error("Stat of a missing file should error")
	}
	if err := fs.Put("", []byte("x")); err == nil {
		t.Error("empty path should error")
	}
}

// A durable DFS writes Put and Delete through to its directory, reopens with
// the files left there (an interrupted Put's temporary file is not one), and
// refuses a path that would leave the directory.
func TestOpenPersists(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"models/a.pmml", "/models/b.pmml", "top"} {
		if err := f.Put(p, []byte("doc "+p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Put("models/a.pmml", []byte("doc 2")); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete("top"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"../escape", "models/../../escape", "x.tmp"} {
		if err := f.Put(p, []byte("x")); err == nil {
			t.Errorf("Put(%q) should fail on a durable DFS", p)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "models", "c.pmml.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	g, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, info := range g.List("") {
		paths = append(paths, info.Path)
	}
	if fmt.Sprint(paths) != "[models/a.pmml models/b.pmml]" {
		t.Fatalf("reopened DFS lists %v", paths)
	}
	if data, err := g.Get("models/a.pmml"); err != nil || string(data) != "doc 2" {
		t.Errorf("reopened models/a.pmml = %q, %v", data, err)
	}
}
