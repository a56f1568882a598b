package vertica

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vsfabric/internal/storage"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vhash"
	"vsfabric/internal/vsql"
)

// profileScan runs a SELECT under PROFILE accounting and returns its result
// and its base-table scan node, carrying the run's actuals.
func profileScan(t *testing.T, s *Session, sql string) (*Result, *planNode) {
	t.Helper()
	st, err := vsql.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, plan, err := s.runSelect(context.Background(), st.(*vsql.Select), true)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	for i := range plan.nodes {
		if n := &plan.nodes[i]; n.op == opScan && n.tbl != nil {
			return res, n
		}
	}
	t.Fatalf("%s: no base-table scan", sql)
	return nil, nil
}

// TestPartitionScanSharesIdentity: a node's store cuts partitionFixture's one
// COPY into a container per local segment, so a V2S partition statement over
// half of a node's segment — two of its four local segments, with 4
// partitions on 2 nodes — reads exactly its own two containers, whole: the
// shared identity selection, built by nobody, down which the pushed-down
// `pcol < 5` runs over the rows of those local segments alone (about half the
// node's), and no stored hash is tested. The other two containers' hash spans
// lie outside its range, and they are pruned, as zone maps prune. A partition
// covering the node's whole segment (as many partitions as nodes) reads all
// four whole and prunes none. EXPLAIN's estimate and PROFILE's scan detail
// show the counts.
func TestPartitionScanSharesIdentity(t *testing.T) {
	const rows, nodes = 60_000, 2
	s := partitionFixture(t, nodes, rows)
	for _, parts := range []int{4, 2} {
		total := 0
		for _, q := range partitionStatements(t, s, "pcol, c0", "pcol < 5", parts) {
			res, n := profileScan(t, s, q)
			got := storage.Materialize(res.Batches)
			sameMultiset(t, q, rowMultiset(got), rowMultiset(oracleSelect(t, s, q).Rows))
			total += len(got)
			if len(n.jobs) != 1 || n.rowsIn == 0 {
				t.Fatalf("%s: %d segments, %d rows in; want one node's", q, len(n.jobs), n.rowsIn)
			}
			// The rows of the statement's own local segments: its range
			// without the pushed-down filter.
			ranged, _, _ := strings.Cut(q, " AND (")
			own := s.MustExecute(strings.Replace(ranged, "pcol, c0", "COUNT(*)", 1)).Rows[0][0].I
			if parts > nodes && (3*own < n.rowsIn || 3*own > 2*n.rowsIn) {
				t.Fatalf("%s: its range holds %d of the node's %d rows, want about half", q, own, n.rowsIn)
			}
			want := vexec.FilterStats{IdentityRows: own, KernelRows: own}
			if n.work != want {
				t.Errorf("%d partitions, %s: filter %+v, want %+v", parts, q, n.work, want)
			}
			wantPruned := int64(vhash.LocalSegments - vhash.LocalSegments*nodes/parts)
			if n.contSeen != vhash.LocalSegments || n.contPruned != wantPruned {
				t.Errorf("%d partitions, %s: %d of %d containers pruned, want %d of %d", parts, q, n.contPruned, n.contSeen, wantPruned, vhash.LocalSegments)
			}
			// EXPLAIN estimates the same prune, and PROFILE's scan row reads
			// the same counts.
			if exp := s.MustExecute("EXPLAIN " + q).Rows[0]; exp[4].I != vhash.LocalSegments || exp[5].I != wantPruned {
				t.Errorf("%d partitions, EXPLAIN %s: %d of %d containers pruned, want %d of %d", parts, q, exp[5].I, exp[4].I, wantPruned, vhash.LocalSegments)
			}
			detail := fmt.Sprintf("%d rows read as whole containers, hash range tested 0 rows", own)
			if wantPruned > 0 {
				detail = fmt.Sprintf("zone maps pruned %d/%d containers, %s", wantPruned, vhash.LocalSegments, detail)
			}
			if scan := s.MustExecute("PROFILE " + q).Rows[0]; !strings.HasSuffix(scan[6].S, detail) {
				t.Errorf("%d partitions, PROFILE %s: scan detail %q, want it to end %q", parts, q, scan[6].S, detail)
			}
		}
		if total != rows/20 {
			t.Errorf("%d partitions: %d rows, want %d", parts, total, rows/20)
		}
	}
}

// TestPartitionStatementAllocations bounds the bytes one V2S partition
// statement allocates, engine side, at 2 bytes per row of the node it reads:
// what is left is parsing, planning and the vector of pcol < 5's 5 %
// survivors. A selection vector sized to a container (4 bytes a row) before
// the predicate runs breaks it. So does a whole-segment statement with no
// pushed-down filter (v2s_full's shape with as many partitions as nodes)
// whose range kernel runs although every container's hash span lies inside
// its range. TotalAlloc counts the whole process, so each statement is read
// as the median of several runs: an allocation elsewhere during one of them
// does not decide it.
func TestPartitionStatementAllocations(t *testing.T) {
	const rows, runs = 80_000, 7
	s := partitionFixture(t, 2, rows)
	stmts := append(partitionStatements(t, s, "pcol, c0", "pcol < 5", 4),
		partitionStatements(t, s, "pcol, c0, c1, c2, c3, c4, c5, c6, c7, c8, c9", "", 2)...)
	for _, q := range stmts {
		run := func() uint64 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := s.ExecuteColumnar(context.Background(), q)
			runtime.ReadMemStats(&after)
			if err != nil || res.NumRows() == 0 {
				t.Fatalf("%s: %v, %d rows", q, err, res.NumRows())
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		run()
		var got [runs]uint64
		for i := range got {
			got[i] = run()
		}
		slices.Sort(got[:])
		if got, bound := got[runs/2], uint64(rows); got > bound {
			t.Errorf("%s allocated %d bytes, bound %d", q, got, bound)
		} else {
			t.Logf("%s allocated %d bytes (bound %d)", q, got, bound)
		}
	}
}

// hashRangeFixture loads two tables of genM's columns through s: hr segmented
// by HASH(id), hs by every column (HASH(*)). Each holds containers written by
// COPY and by INSERT with delete vectors, a COPY container without one (which
// a scan hands on as the shared identity), and a last INSERT's container, some
// of its rows deleted.
func hashRangeFixture(t *testing.T, s *Session) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	row := func(i int) string {
		k, v, label := fmt.Sprint(rng.Intn(12)), fmt.Sprintf("%.1f", float64(rng.Intn(80))/2), fmt.Sprintf("'%s'", []string{"ant", "bee", "cat", "dog"}[rng.Intn(4)])
		switch rng.Intn(8) {
		case 0:
			k = "NULL"
		case 1:
			v = "NULL"
		case 2:
			label = "NULL"
		}
		return fmt.Sprintf("(%d, %s, %s, %s)", i, k, v, label)
	}
	values := func(lo, hi int) string {
		var out []string
		for i := lo; i < hi; i++ {
			out = append(out, row(i))
		}
		return strings.Join(out, ", ")
	}
	copyDirect := func(table string, lo, hi int) {
		var csv strings.Builder
		for i := lo; i < hi; i++ {
			fmt.Fprintf(&csv, "%d,%d,%d.5,l%d\n", i, i%12, i%40, i%4)
		}
		if _, err := s.CopyFrom("COPY "+table+" FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
			t.Fatal(err)
		}
	}
	s.MustExecute("CREATE TABLE hr (id INTEGER, k INTEGER, v FLOAT, label VARCHAR) SEGMENTED BY HASH(id)")
	s.MustExecute("CREATE TABLE hs (id INTEGER, k INTEGER, v FLOAT, label VARCHAR)")
	for _, table := range []string{"hr", "hs"} {
		copyDirect(table, 0, 240)
		s.MustExecute("INSERT INTO " + table + " VALUES " + values(240, 330))
	}
	for _, table := range []string{"hr", "hs"} {
		s.MustExecute("DELETE FROM " + table + " WHERE MOD(id, 7) = 3")
		copyDirect(table, 400, 560)
		s.MustExecute("INSERT INTO " + table + " VALUES " + values(330, 400))
		s.MustExecute("DELETE FROM " + table + " WHERE id >= 390 AND id < 400 OR id >= 330 AND MOD(id, 11) = 5 AND id < 400")
	}
}

// hashRangeConjuncts draws a HASH range over hash, the segmentation
// expression of a table whose segments are segs: empty, the whole ring, one
// node's segment, half of one, or arbitrary bounds, written with any
// comparison, with literals off the ring and with literals at or next to a
// hash the table stores.
func hashRangeConjuncts(rng *rand.Rand, hash string, segs []vhash.Range, stored []int64) string {
	between := func(r vhash.Range) string {
		return fmt.Sprintf("%s >= %d AND %s < %d", hash, r.Lo, hash, r.Hi)
	}
	seg := segs[rng.Intn(len(segs))]
	switch rng.Intn(7) {
	case 0:
		lo := rng.Int63n(1 << 32)
		return []string{
			fmt.Sprintf("%s >= %d AND %s < %d", hash, lo, hash, lo),
			fmt.Sprintf("%s < 0", hash),
			fmt.Sprintf("%s >= 4294967296", hash),
			fmt.Sprintf("%s > %d AND %s <= %d", hash, lo, hash, lo/2),
		}[rng.Intn(4)]
	case 1:
		return []string{between(vhash.Range{Lo: 0, Hi: vhash.RingSize}), hash + " >= 0", hash + " < 4294967296 AND " + hash + " > -3"}[rng.Intn(3)]
	case 2:
		return between(seg)
	case 3:
		return between(vhash.Split(seg, 2)[rng.Intn(2)])
	case 4:
		a, b := stored[rng.Intn(len(stored))], stored[rng.Intn(len(stored))]
		return between(vhash.Range{Lo: uint64(min(a, b)), Hi: uint64(max(a, b) + rng.Int63n(2))})
	}
	bound := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return -1 - rng.Int63n(10)
		case 1:
			return 1<<32 + rng.Int63n(10)
		case 2, 3:
			return stored[rng.Intn(len(stored))] + rng.Int63n(3) - 1
		}
		return rng.Int63n(1 << 32)
	}
	ops := []string{">=", ">", "<", "<=", "="}
	out := fmt.Sprintf("%s %s %d", hash, ops[rng.Intn(len(ops))], bound())
	for n := rng.Intn(3); n > 0; n-- {
		out += fmt.Sprintf(" AND %s %s %d", hash, ops[rng.Intn(len(ops))], bound())
	}
	return out
}

// TestHashRangeConjunctMatchesOracle: a segmentation HASH range is a conjunct
// of the scan's predicate — one range kernel over the stored hashes after the
// typed kernels, a whole batch decided by its hash span — and every drawn
// range, alone or beside kernel predicates, residuals, a select list, COUNT(*)
// and LIMIT, returns the oracle's rows over containers written by COPY and by
// INSERT, with and without deletes, on 1 and 3 nodes. A HASH over
// other columns than the segmentation's rides along as a residual.
func TestHashRangeConjunctMatchesOracle(t *testing.T) {
	const seed, statements = 31, 150
	refs := make([]colRef, len(genM))
	for i, col := range genM {
		refs[i] = colRef{col.name, col}
	}
	for _, nodes := range []int{1, 3} {
		c := testCluster(t, nodes)
		s := sess(t, c, 0)
		hashRangeFixture(t, s)
		stored := map[string][]int64{}
		for table, hash := range map[string]string{"hr": "HASH(id)", "hs": "HASH(*)"} {
			for _, r := range s.MustExecute("SELECT " + hash + " FROM " + table).Rows {
				stored[table] = append(stored[table], r[0].I)
			}
		}
		for i := 0; i < statements; i++ {
			rng := rand.New(rand.NewSource(seed + int64(i)))
			table, hash := "hr", "HASH(id)"
			if rng.Intn(2) == 0 {
				table, hash = "hs", "HASH(*)"
			}
			tbl, _ := c.cat.Table(table)
			where := hashRangeConjuncts(rng, hash, tbl.SegmentRanges(), stored[table])
			if rng.Intn(6) == 0 {
				where += " AND " + hashRangeConjuncts(rng, "HASH(k)", tbl.SegmentRanges(), stored[table])
			}
			if extra := genWhere(rng, refs); extra != "" {
				extra = strings.TrimPrefix(extra, " WHERE ")
				if rng.Intn(2) == 0 {
					where = extra + " AND " + where
				} else {
					where += " AND " + extra
				}
			}
			items := []string{"*", "id, v", "label, id, k", "COUNT(*)"}[rng.Intn(4)]
			sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s", items, table, where)
			if items != "COUNT(*)" && rng.Intn(3) == 0 {
				sql += fmt.Sprintf(" LIMIT %d", rng.Intn(20))
			}
			label := fmt.Sprintf("%d nodes, seed %d statement %d: %s", nodes, seed, i, sql)
			got, err := s.Execute(sql)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameResults(t, label, got, oracleSelect(t, s, sql))
		}
	}
}
