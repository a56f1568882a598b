// Package hdfs implements the distributed block store the paper uses both as
// the origin of its datasets and as the comparison baseline of §4.7.2: a
// namenode tracking files as sequences of fixed-size blocks, datanodes
// holding replicated block data, and block-granular reads (Spark's native
// HDFS integration schedules one partition per block).
package hdfs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"vsfabric/internal/sim"
)

// DefaultBlockSize mirrors the paper's configuration (§4.1: "HDFS is
// configured with the default block size (64MB)").
const DefaultBlockSize = 64 << 20

// DefaultReplication mirrors the paper's 3× replication.
const DefaultReplication = 3

// Config configures a filesystem.
type Config struct {
	DataNodes   int
	BlockSize   int
	Replication int
}

// BlockRef identifies one block of a file.
type BlockRef struct {
	Path     string
	Index    int
	Size     int
	Replicas []int // datanode ids holding the block; Replicas[0] is primary
}

type fileMeta struct {
	path   string
	size   int
	blocks []BlockRef
}

// FS is an HDFS-like filesystem.
type FS struct {
	cfg Config

	mu    sync.RWMutex
	files map[string]*fileMeta
	store []map[string][]byte // per-datanode block key → data
}

// New creates a filesystem.
func New(cfg Config) (*FS, error) {
	if cfg.DataNodes <= 0 {
		return nil, fmt.Errorf("hdfs: need at least one datanode")
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.Replication > cfg.DataNodes {
		cfg.Replication = cfg.DataNodes
	}
	fs := &FS{cfg: cfg, files: make(map[string]*fileMeta)}
	for i := 0; i < cfg.DataNodes; i++ {
		fs.store = append(fs.store, make(map[string][]byte))
	}
	return fs, nil
}

// Config returns the filesystem configuration.
func (f *FS) Config() Config { return f.cfg }

func blockKey(path string, idx int) string { return fmt.Sprintf("%s#%d", path, idx) }

// primaryOf places a block's primary replica by a hash of its key, so a
// file's layout depends only on its path and size — never on the order in
// which concurrent writers arrive.
func (f *FS) primaryOf(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(f.cfg.DataNodes))
}

// WriteFile stores data as a new file, splitting into blocks whose primary
// replica is placed by primaryOf, with pipeline replication onto the
// following datanodes. rec (optional) records the ingest and replication
// flows; clientNode names the writer's node in the simulated topology.
func (f *FS) WriteFile(path string, data []byte, rec *sim.TaskRec, clientNode string, codec sim.CPUKind) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[path]; ok {
		return fmt.Errorf("hdfs: file %q already exists (HDFS files are immutable)", path)
	}
	meta := &fileMeta{path: path, size: len(data)}
	for off, idx := 0, 0; off < len(data) || idx == 0; idx++ {
		end := off + f.cfg.BlockSize
		if end > len(data) {
			end = len(data)
		}
		block := make([]byte, end-off)
		copy(block, data[off:end])
		key := blockKey(path, idx)
		primary := f.primaryOf(key)
		ref := BlockRef{Path: path, Index: idx, Size: len(block)}
		route := map[[2]string]float64{}
		for r := 0; r < f.cfg.Replication; r++ {
			dn := (primary + r) % f.cfg.DataNodes
			ref.Replicas = append(ref.Replicas, dn)
			f.store[dn][key] = block
			if r > 0 {
				prev := (primary + r - 1) % f.cfg.DataNodes
				route[[2]string{sim.HName(prev), sim.HName(dn)}] = float64(len(block))
			}
		}
		if rec != nil && len(block) > 0 {
			rec.Add(sim.Event{
				Type:    sim.BlockFlowEv,
				VNode:   sim.HName(primary),
				CNode:   clientNode,
				Bytes:   float64(len(block)),
				Write:   true,
				CPUKind: codec,
				Route:   route,
			})
		}
		meta.blocks = append(meta.blocks, ref)
		off = end
		if off >= len(data) {
			break
		}
	}
	f.files[path] = meta
	return nil
}

// Blocks returns the block layout of a file.
func (f *FS) Blocks(path string) ([]BlockRef, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	meta, ok := f.files[path]
	if !ok {
		return nil, fmt.Errorf("hdfs: no such file %q", path)
	}
	out := make([]BlockRef, len(meta.blocks))
	copy(out, meta.blocks)
	return out, nil
}

// ReadBlock fetches one block from its primary replica (or the first live
// replica). rec records the transfer.
func (f *FS) ReadBlock(ref BlockRef, rec *sim.TaskRec, clientNode string, codec sim.CPUKind) ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, dn := range ref.Replicas {
		if data, ok := f.store[dn][blockKey(ref.Path, ref.Index)]; ok {
			if rec != nil && len(data) > 0 {
				rec.Add(sim.Event{
					Type:    sim.BlockFlowEv,
					VNode:   sim.HName(dn),
					CNode:   clientNode,
					Bytes:   float64(len(data)),
					CPUKind: codec,
				})
			}
			out := make([]byte, len(data))
			copy(out, data)
			return out, nil
		}
	}
	return nil, fmt.Errorf("hdfs: block %s#%d unavailable", ref.Path, ref.Index)
}

// ReadFile fetches a whole file; codec names the client-side decode work
// recorded with each block transfer.
func (f *FS) ReadFile(path string, rec *sim.TaskRec, clientNode string, codec sim.CPUKind) ([]byte, error) {
	blocks, err := f.Blocks(path)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, b := range blocks {
		data, err := f.ReadBlock(b, rec, clientNode, codec)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}

// List returns file paths under a prefix, sorted.
func (f *FS) List(prefix string) []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []string
	for p := range f.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// TotalBlocks counts blocks across files under a prefix (the paper quotes
// its dataset as "2240 HDFS blocks").
func (f *FS) TotalBlocks(prefix string) int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for p, meta := range f.files {
		if strings.HasPrefix(p, prefix) {
			n += len(meta.blocks)
		}
	}
	return n
}
