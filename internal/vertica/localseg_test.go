package vertica

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// TestNoContainerStraddlesALocalSegment: on 1-, 2- and 3-node durable
// clusters at k-safety 0 and 1, after every path that builds containers — CSV
// COPY, an S2V overwrite (staging COPYs renamed over the target), an S2V
// append (staging COPYs, INSERT … SELECT into the target), INSERT … SELECT, a
// durable restart replaying the log, a rebalance n→n+1→n and a node recovery —
// every container of at least storage.LocalCutRows rows has its hash span
// inside one local segment of its store's range, for a segmented table and an
// unsegmented one. A 3-row INSERT still makes one container per store it
// reaches.
func TestNoContainerStraddlesALocalSegment(t *testing.T) {
	for _, nodes := range []int{1, 2, 3} {
		for _, k := range []int{0, 1} {
			if k >= nodes {
				continue // a buddy needs a second node
			}
			t.Run(fmt.Sprintf("%dnodes_k%d", nodes, k), func(t *testing.T) {
				localSegmentLifecycle(t, nodes, k)
			})
		}
	}
}

func localSegmentLifecycle(t *testing.T, nodes, k int) {
	dir := t.TempDir()
	cfg := Config{Nodes: nodes, KSafety: k, DataDir: dir}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Close() }()
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE seg " + loadDDL + " SEGMENTED BY HASH(id)")
	s.MustExecute("CREATE TABLE rep " + loadDDL + " UNSEGMENTED ALL NODES")

	seed := int64(0)
	rows := func(n int) []types.Row {
		seed++
		return loadRows(seed, n)
	}
	avroCopy := func(table string, n int) {
		t.Helper()
		if _, err := s.CopyFrom("COPY "+table+" FROM STDIN FORMAT AVRO DIRECT", bytes.NewReader(avroFile(t, loadSchema, rows(n), 0))); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		for _, name := range []string{"seg", "rep"} {
			tbl, ok := c.cat.Table(name)
			if !ok {
				t.Fatalf("%s: no table %s", step, name)
			}
			for _, st := range allStores(tbl) {
				ring := st.Ring()
				if ring.Empty() {
					t.Fatalf("%s: a store of %s was told no ring range", step, name)
				}
				for _, ct := range st.Containers() {
					span := ct.HashSpan()
					if ct.RowCount < storage.LocalCutRows {
						continue
					}
					if !ring.Covers(span) || vhash.LocalSegmentOf(ring, uint32(span.Lo)) != vhash.LocalSegmentOf(ring, uint32(span.Hi-1)) {
						t.Fatalf("%s: a %d-row container of %s spans %v, across the local segments %v of its store",
							step, ct.RowCount, name, span, vhash.Split(ring, vhash.LocalSegments))
					}
				}
			}
		}
	}

	// CSV COPY: every store's share exceeds the floor, so each is cut into
	// one container per local segment.
	var csv strings.Builder
	for _, r := range rows(6000 * nodes) {
		fmt.Fprintf(&csv, "%d,%d,%g,x,true\n", r[0].I, r[1].I, r[2].F)
	}
	for _, table := range []string{"seg", "rep"} {
		if _, err := s.CopyFrom("COPY "+table+" FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
			t.Fatal(err)
		}
		tbl, _ := c.cat.Table(table)
		for _, st := range allStores(tbl) {
			if got := st.ContainerCount(); got != vhash.LocalSegments {
				t.Fatalf("CSV COPY: a store of %s holds %d containers, want one per local segment (%d)", table, got, vhash.LocalSegments)
			}
		}
	}
	check("CSV COPY")

	// S2V overwrite: two tasks COPY into a staging table, which the commit
	// renames over the target.
	s.MustExecute("CREATE TEMP TABLE seg_staging " + loadDDL)
	avroCopy("seg_staging", 5000*nodes)
	avroCopy("seg_staging", 5000*nodes)
	for _, q := range []string{"BEGIN", "DROP TABLE IF EXISTS seg", "ALTER TABLE seg_staging RENAME TO seg", "COMMIT"} {
		s.MustExecute(q)
	}
	check("S2V overwrite")

	// S2V append: staging LIKE the target, moved in by INSERT … SELECT.
	s.MustExecute("CREATE TEMP TABLE seg_staging LIKE seg")
	avroCopy("seg_staging", 5000*nodes)
	avroCopy("seg_staging", 5000*nodes)
	for _, q := range []string{"BEGIN", "INSERT INTO seg SELECT * FROM seg_staging", "COMMIT", "DROP TABLE seg_staging"} {
		s.MustExecute(q)
	}
	check("S2V append")

	s.MustExecute("INSERT INTO rep SELECT * FROM seg")
	check("INSERT … SELECT")

	// A 3-row INSERT: one container per store it reaches.
	for _, table := range []string{"seg", "rep"} {
		tbl, _ := c.cat.Table(table)
		stores := allStores(tbl)
		before := make([]int, len(stores))
		for i, st := range stores {
			before[i] = st.ContainerCount()
		}
		s.MustExecute("INSERT INTO " + table + " VALUES (1, 1, 0.5, 'a', true), (2, 2, 1.5, 'b', false), (3, 3, 2.5, 'c', true)")
		grew := 0
		for i, st := range stores {
			switch st.ContainerCount() - before[i] {
			case 0:
			case 1:
				grew++
			default:
				t.Fatalf("a 3-row INSERT into %s added %d containers to one store", table, st.ContainerCount()-before[i])
			}
		}
		if grew == 0 {
			t.Fatalf("a 3-row INSERT into %s added no container", table)
		}
	}

	want := map[string][]string{"seg": dumpTable(s, "seg"), "rep": dumpTable(s, "rep")}
	same := func(step string) {
		t.Helper()
		for table, rows := range want {
			if got := dumpTable(s, table); !sameRows(got, rows) {
				t.Fatalf("%s: %s holds %d rows, want %d", step, table, len(got), len(rows))
			}
		}
	}

	// Durable restart: no checkpoint ran, so every write replays from the log.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err = NewCluster(cfg); err != nil {
		t.Fatal(err)
	}
	s = sess(t, c, 0)
	same("restart")
	check("restart")

	// Rebalance n → n+1 → n.
	added := mustI(t, s.MustExecute("ALTER CLUSTER ADD NODE"))
	same("add node")
	check("add node")
	s.MustExecute(fmt.Sprintf("ALTER CLUSTER REMOVE NODE %d", added))
	same("remove node")
	check("remove node")

	// Node recovery: a node misses a bulk write and rebuilds its stores.
	if nodes > 1 {
		down := c.Node(nodes - 1)
		down.SetDown(true)
		for _, table := range []string{"rep", "seg"} {
			if table == "seg" && k == 0 {
				continue // no replica of the down node's segment accepts the write
			}
			avroCopy(table, 5000*nodes)
		}
		down.SetDown(false)
		noStaleStores(t, c)
		check("recovery")
	}
}
