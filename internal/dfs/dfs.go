// Package dfs implements the database's internal distributed file system —
// the store the paper's model-deployment component (MD, §3.3) writes PMML
// documents into, making them "accessible to the database query engine and
// User-Defined Functions". Files are replicated on every node so a scoring
// UDx can read them locally wherever it runs.
package dfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vsfabric/internal/framelog"
)

// FileInfo describes one stored file.
type FileInfo struct {
	Path     string
	Size     int
	Modified time.Time
	// Version is the file system's count of Puts when this content was put:
	// a rewrite of the path always changes it, whatever the clock says.
	Version uint64
}

// FS is the cluster-internal distributed file system.
type FS struct {
	mu sync.RWMutex
	// dir, when set (Open), holds a copy of every file, written before Put
	// or Delete returns.
	dir   string
	files map[string][]byte
	meta  map[string]FileInfo
	puts  uint64
	// clock is injectable for deterministic tests.
	clock func() time.Time
}

// New returns an empty DFS.
func New() *FS {
	return &FS{
		files: make(map[string][]byte),
		meta:  make(map[string]FileInfo),
		clock: time.Now,
	}
}

// tmpSuffix marks framelog.WriteFileAtomic's temporary file: one left in a
// durable DFS's directory is an interrupted Put, not a file.
const tmpSuffix = ".tmp"

// Open returns a DFS that keeps its files under dir as well, loading the
// files a previous process left there.
func Open(dir string) (*FS, error) {
	f := New()
	f.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(path, tmpSuffix) {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		f.store(filepath.ToSlash(rel), data, info.ModTime())
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dfs: loading %s: %w", dir, err)
	}
	return f, nil
}

func clean(path string) string { return strings.TrimPrefix(path, "/") }

// Put stores (or overwrites) a file.
func (f *FS) Put(path string, data []byte) error {
	p := clean(path)
	if p == "" {
		return fmt.Errorf("dfs: empty path")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dir != "" {
		if !filepath.IsLocal(p) || strings.HasSuffix(p, tmpSuffix) {
			return fmt.Errorf("dfs: path %q cannot be stored", path)
		}
		disk := filepath.Join(f.dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(disk), 0o755); err != nil {
			return err
		}
		if err := framelog.WriteFileAtomic(disk, cp); err != nil {
			return err
		}
	}
	f.store(p, cp, f.clock())
	return nil
}

// store records a file's content as the next version; f.mu is held or f is
// not yet shared.
func (f *FS) store(p string, data []byte, modified time.Time) {
	f.files[p] = data
	f.puts++
	f.meta[p] = FileInfo{Path: p, Size: len(data), Modified: modified, Version: f.puts}
}

// Stat describes a stored file.
func (f *FS) Stat(path string) (FileInfo, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	info, ok := f.meta[clean(path)]
	if !ok {
		return FileInfo{}, fmt.Errorf("dfs: no such file %q", path)
	}
	return info, nil
}

// Get reads a file.
func (f *FS) Get(path string) ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	data, ok := f.files[clean(path)]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", path)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Exists reports whether a file is stored.
func (f *FS) Exists(path string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, ok := f.files[clean(path)]
	return ok
}

// Delete removes a file.
func (f *FS) Delete(path string) error {
	p := clean(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[p]; !ok {
		return fmt.Errorf("dfs: no such file %q", path)
	}
	if f.dir != "" {
		if err := os.Remove(filepath.Join(f.dir, filepath.FromSlash(p))); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	delete(f.files, p)
	delete(f.meta, p)
	return nil
}

// List returns metadata for files under the given prefix, sorted by path.
func (f *FS) List(prefix string) []FileInfo {
	p := clean(prefix)
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []FileInfo
	for path, info := range f.meta {
		if strings.HasPrefix(path, p) {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
