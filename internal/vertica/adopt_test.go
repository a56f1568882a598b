package vertica

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vsfabric/internal/rebalance"
	"vsfabric/internal/storage"
	"vsfabric/internal/vhash"
)

// TestRecoveryAdoptsSourceContainers: a store rebuilt by node recovery holds
// its source replica's committed containers one for one — rows, hashes,
// start epochs, committed delete marks, spans and zone maps — with a delete
// vector of its own, and the next checkpoint writes them under the recovered
// node's directory.
func TestRecoveryAdoptsSourceContainers(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCluster(Config{Nodes: 3, KSafety: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE kt (id INTEGER, v INTEGER) SEGMENTED BY HASH(id) KSAFE 1")
	seedRows(t, s, "kt", 0, 300)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const down = 1
	c.Node(down).SetDown(true)
	seedRows(t, s, "kt", 300, 600)
	s.MustExecute("DELETE FROM kt WHERE id < 150 OR id >= 550")

	tbl, _ := c.cat.Table("kt")
	hosted := tbl.Hosted(tbl.PosOf(down))
	sources := make([]*storage.Store, len(hosted))
	for i, h := range hosted {
		if !h.Store.Stale() {
			t.Fatalf("store %d of node %d missed no write: the scenario did not run", i, down)
		}
		if sources[i], err = rebalance.SourceFor(tbl, h.Seg, func(id int) bool { return id != down }); err != nil {
			t.Fatal(err)
		}
	}
	c.Node(down).SetDown(false)
	if c.Node(down).State() != NodeUp {
		t.Fatalf("node %d did not recover", down)
	}

	marked := 0
	for i, h := range hosted {
		got, want := h.Store.Containers(), sources[i].Containers()
		if len(got) != len(want) {
			t.Fatalf("store %d: %d containers, its source holds %d", i, len(got), len(want))
		}
		for k, w := range want {
			g := got[k]
			gs, gd := g.Committed(nil)
			ws, wd := w.Committed(nil)
			all := storage.IdentitySel(w.RowCount)
			switch {
			case g.RowCount != w.RowCount || !reflect.DeepEqual(storage.Materialize([]*storage.Batch{{Cols: g.Cols, Sel: all}}), storage.Materialize([]*storage.Batch{{Cols: w.Cols, Sel: all}})):
				t.Fatalf("store %d container %d: %d rows, not its source's %d", i, k, g.RowCount, w.RowCount)
			case !slices.Equal(g.Hashes, w.Hashes) || g.HashSpan() != w.HashSpan():
				t.Fatalf("store %d container %d: hashes or span %v differ from the source's %v", i, k, g.HashSpan(), w.HashSpan())
			case gs != ws || !slices.Equal(gd, wd):
				t.Fatalf("store %d container %d: epoch %d marks %v, source epoch %d marks %v", i, k, gs, gd, ws, wd)
			case !reflect.DeepEqual(g.Stats(), w.Stats()):
				t.Fatalf("store %d container %d: zone maps %+v, source's %+v", i, k, g.Stats(), w.Stats())
			}
			if ref, _ := g.DiskRef(); ref != "" {
				t.Fatalf("store %d container %d adopted its source's file %s", i, k, ref)
			}
			if gd != nil {
				marked++
			}
		}
	}
	if marked == 0 {
		t.Fatal("no adopted container carries a delete mark: the scenario did not run")
	}

	// A checkpoint writes each adopted container under the recovered node.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	nodeDir := fmt.Sprintf("node-%d", down) + string(filepath.Separator)
	for i, h := range hosted {
		for k, ct := range h.Store.Containers() {
			ref, dirty := ct.DiskRef()
			if !strings.HasPrefix(ref, nodeDir) || dirty {
				t.Fatalf("store %d container %d persisted at %q (dirty %t), want under %s", i, k, ref, dirty, nodeDir)
			}
			if _, err := os.Stat(filepath.Join(dir, ref)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Deleting every row of a recovered store leaves its source's delete
	// vectors as they were.
	before := make([][][]uint64, len(sources))
	for i, src := range sources {
		for _, ct := range src.Containers() {
			_, del := ct.Committed(nil)
			before[i] = append(before[i], del)
		}
	}
	const epoch = 1 << 40
	for _, h := range hosted {
		var batches []*storage.Batch
		if err := h.Store.ScanBatches(storage.Visibility{Epoch: c.LastEpoch()}, vhash.Range{Lo: 0, Hi: vhash.RingSize}, func(b *storage.Batch) bool {
			batches = append(batches, b)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if _, err := h.Store.MarkDeleted(b, epoch); err != nil {
				t.Fatal(err)
			}
		}
		if n := h.Store.RowCount(storage.Visibility{Epoch: epoch}); n != 0 {
			t.Fatalf("%d rows left after deleting every row", n)
		}
	}
	for i, src := range sources {
		for k, ct := range src.Containers() {
			if _, del := ct.Committed(nil); !slices.Equal(del, before[i][k]) {
				t.Fatalf("source %d container %d: a delete on the recovered store reached its marks", i, k)
			}
		}
	}
}
