package hdfs

import (
	"bytes"
	"fmt"
	"testing"

	"vsfabric/internal/sim"
)

func newFS(t *testing.T, nodes, blockSize, repl int) *FS {
	t.Helper()
	fs, err := New(Config{DataNodes: nodes, BlockSize: blockSize, Replication: repl})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newFS(t, 4, 10, 3)
	data := []byte("hello block store, this splits into several blocks")
	if err := fs.WriteFile("a/b.txt", data, nil, "", sim.CPUCSVFormat); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("a/b.txt", nil, "", sim.CPUCSVParse)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip mismatch: %q", got)
	}
}

func TestBlockLayout(t *testing.T) {
	fs := newFS(t, 4, 10, 2)
	data := make([]byte, 35) // 4 blocks: 10+10+10+5
	if err := fs.WriteFile("f", data, nil, "", sim.CPUCSVFormat); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.Blocks("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(blocks))
	}
	if blocks[3].Size != 5 {
		t.Errorf("last block size = %d", blocks[3].Size)
	}
	for _, b := range blocks {
		if len(b.Replicas) != 2 {
			t.Errorf("block %d has %d replicas", b.Index, len(b.Replicas))
		}
	}
	if fs.TotalBlocks("") != 4 {
		t.Errorf("TotalBlocks = %d", fs.TotalBlocks(""))
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	fs := newFS(t, 2, 10, 5)
	if fs.Config().Replication != 2 {
		t.Errorf("replication = %d, want capped at 2", fs.Config().Replication)
	}
}

func TestImmutableFiles(t *testing.T) {
	fs := newFS(t, 2, 10, 1)
	if err := fs.WriteFile("f", []byte("x"), nil, "", sim.CPUCSVFormat); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", []byte("y"), nil, "", sim.CPUCSVFormat); err == nil {
		t.Error("overwriting should fail (HDFS files are immutable)")
	}
}

func TestList(t *testing.T) {
	fs := newFS(t, 2, 10, 1)
	_ = fs.WriteFile("dir/a", []byte("1"), nil, "", sim.CPUCSVFormat)
	_ = fs.WriteFile("dir/b", []byte("2"), nil, "", sim.CPUCSVFormat)
	_ = fs.WriteFile("other/c", []byte("3"), nil, "", sim.CPUCSVFormat)
	if got := fs.List("dir/"); len(got) != 2 || got[0] != "dir/a" {
		t.Errorf("List = %v", got)
	}
}

func TestRecordingEvents(t *testing.T) {
	fs := newFS(t, 4, 8, 3)
	tr := sim.NewTrace()
	rec := tr.Task("w", "s0")
	data := make([]byte, 20) // 3 blocks
	if err := fs.WriteFile("f", data, rec, "s0", sim.CPURowBlockEnc); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	writes := 0
	for _, e := range events {
		if e.Type == sim.BlockFlowEv && e.Write {
			writes++
			if len(e.Route) != 2 {
				t.Errorf("write should record 2 replication hops, got %v", e.Route)
			}
		}
	}
	if writes != 3 {
		t.Errorf("recorded %d write flows, want 3", writes)
	}
	rec2 := tr.Task("r", "s1")
	if _, err := fs.ReadFile("f", rec2, "s1", sim.CPURowBlockDec); err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, e := range rec2.Events() {
		if e.Type == sim.BlockFlowEv && !e.Write {
			reads++
		}
	}
	if reads != 3 {
		t.Errorf("recorded %d read flows, want 3", reads)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := newFS(t, 2, 10, 1)
	if err := fs.WriteFile("empty", nil, nil, "", sim.CPUCSVFormat); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("empty", nil, "", sim.CPUCSVParse)
	if err != nil || len(got) != 0 {
		t.Errorf("empty file read = %v, %v", got, err)
	}
}

// TestPlacementIndependentOfWriteOrder: a file's blocks land on the same
// replicas whichever order the files are written in.
func TestPlacementIndependentOfWriteOrder(t *testing.T) {
	paths := []string{"d/part-0", "d/part-1", "d/part-2", "d/part-3", "d/part-4"}
	layout := func(order []int) map[string][]BlockRef {
		fs := newFS(t, 4, 8, 3)
		for _, i := range order {
			if err := fs.WriteFile(paths[i], make([]byte, 8*(i+2)), nil, "", sim.CPUCSVFormat); err != nil {
				t.Fatal(err)
			}
		}
		out := map[string][]BlockRef{}
		for _, p := range paths {
			blocks, err := fs.Blocks(p)
			if err != nil {
				t.Fatal(err)
			}
			out[p] = blocks
		}
		return out
	}
	a, b := layout([]int{0, 1, 2, 3, 4}), layout([]int{3, 1, 4, 0, 2})
	for _, p := range paths {
		if fmt.Sprint(a[p]) != fmt.Sprint(b[p]) {
			t.Errorf("%s: written first %v, written in another order %v", p, a[p], b[p])
		}
	}
}
