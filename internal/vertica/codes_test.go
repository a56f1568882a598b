package vertica

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vsfabric/internal/storage"
)

// codedRows inserts rows [lo, hi) of the codes fixture in one statement:
// id, small (-50..49), wide (spanning more than storage.CodeSpan), e127
// (0..127, codes 0..127), e128 (0..128, one value too many), nul (0..9 with a
// NULL every 97th row) and a FLOAT.
func codedRows(t *testing.T, s *Session, lo, hi int) {
	t.Helper()
	var vals []string
	for i := lo; i < hi; i++ {
		nul := fmt.Sprint(i % 10)
		if i%97 == 0 {
			nul = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d, %d, %s, %d.5)", i, i%100-50, i*1000, i%128, i%129, nul, i))
	}
	s.MustExecute("INSERT INTO ct VALUES " + strings.Join(vals, ", "))
}

// checkCodes verifies every container of every replica of ct: an INTEGER
// column carries codes exactly when the container keeps them — at least
// storage.CodeRows rows, no NULL, a zone map spanning less than
// storage.CodeSpan — and then each code is its row's value less the zone
// map's minimum. It returns how many containers kept codes and how many did
// not keep any.
func checkCodes(t *testing.T, c *Cluster, when string) (coded, plain int) {
	t.Helper()
	tbl, ok := c.cat.Table("ct")
	if !ok {
		t.Fatal("no table ct")
	}
	stores := tbl.Stores
	for _, b := range tbl.Buddies {
		stores = append(stores, b...)
	}
	for si, st := range stores {
		for k, ct := range st.Containers() {
			has := false
			for j, col := range ct.Cols {
				ic, ok := col.(*storage.Int64Column)
				if !ok {
					continue
				}
				zm := ct.Stats()[j]
				want := ct.RowCount >= storage.CodeRows && ic.Nulls == nil && zm.HasMinMax && zm.Max.I-zm.Min.I < storage.CodeSpan
				base, codes := ic.Codes()
				if (codes != nil) != want {
					t.Fatalf("%s: store %d container %d (%d rows) column %d spanning %v..%v: codes %v, want %v",
						when, si, k, ct.RowCount, j, zm.Min, zm.Max, codes != nil, want)
				}
				if codes == nil {
					continue
				}
				has = true
				if base != zm.Min.I || len(codes) != len(ic.Vals) {
					t.Fatalf("%s: store %d container %d column %d: %d codes based at %d, zone map minimum %d over %d rows",
						when, si, k, j, len(codes), base, zm.Min.I, len(ic.Vals))
				}
				for i, v := range ic.Vals {
					if int64(codes[i]) != v-base {
						t.Fatalf("%s: store %d container %d column %d row %d: code %d for %d over %d", when, si, k, j, i, codes[i], v, base)
					}
				}
			}
			if has {
				coded++
			} else {
				plain++
			}
		}
	}
	return coded, plain
}

// TestContainersKeepCodesIffEligible: the containers of every replica keep
// one-byte codes for exactly their eligible INTEGER columns — small and
// e127 in a bulk write's containers, never wide, e128 or nul, and nothing in
// a trickle insert's — and each code is its value less the zone map's
// minimum, after a write, across a durable restart that loads the
// checkpointed container files, after a rebalance onto a new node and after
// a node's recovery adopts its buddy's containers.
func TestContainersKeepCodesIffEligible(t *testing.T) {
	dir := t.TempDir()
	open := func() *Cluster {
		c, err := NewCluster(Config{Nodes: 3, KSafety: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := open()
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE ct (id INTEGER, small INTEGER, wide INTEGER, e127 INTEGER, e128 INTEGER, nul INTEGER, f FLOAT) SEGMENTED BY HASH(id) KSAFE 1")
	codedRows(t, s, 0, 20000) // past LocalCutRows a segment: cut at local segments
	codedRows(t, s, 20000, 26000)
	codedRows(t, s, 26000, 26001)
	check := func(when string) {
		t.Helper()
		if coded, plain := checkCodes(t, c, when); coded == 0 || plain == 0 {
			t.Fatalf("%s: %d containers with codes, %d without: the fixture did not reach both", when, coded, plain)
		}
	}
	check("after the writes")

	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c = open()
	defer c.Close()
	s = sess(t, c, 0)
	check("after a durable restart")

	s.MustExecute("ALTER CLUSTER ADD NODE")
	check("after a rebalance")

	const down = 1
	c.Node(down).SetDown(true)
	codedRows(t, s, 26001, 30000)
	codedRows(t, s, 30000, 30001)
	c.Node(down).SetDown(false)
	if c.Node(down).State() != NodeUp {
		t.Fatalf("node %d did not recover", down)
	}
	check("after a recovery")
	if got := s.MustExecute("SELECT COUNT(*) FROM ct WHERE small < -45 AND e127 >= 3").Rows[0][0].I; got == 0 {
		t.Fatal("the coded columns' filter kept no row")
	}
}

// TestGeneratedSelectsOverCodesMatchOracle: seeded SELECTs whose WHERE
// compares INTEGER columns that a bulk write's containers keep codes for
// equal the oracle row for row. k holds 0..99, p 20..119 and n -60..39, and
// the literals genWhere draws (0 to 129) fall below, inside and above each
// span; a trickle insert's container without codes and a DELETE's marks, so
// that some scans are no run, ride along. TestGeneratedSelectsMatchOracle's
// fixture is below storage.CodeRows, so its containers keep no codes.
func TestGeneratedSelectsOverCodesMatchOracle(t *testing.T) {
	const seed, statements, rows = 49, 150, 6000
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE cm (id INTEGER, k INTEGER, p INTEGER, n INTEGER, v FLOAT) SEGMENTED BY HASH(id)")
	rng := rand.New(rand.NewSource(seed))
	insert := func(lo, hi int) {
		var vals []string
		for i := lo; i < hi; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d, %d.5)", i, rng.Intn(100), 20+rng.Intn(100), rng.Intn(100)-60, rng.Intn(40)))
		}
		s.MustExecute("INSERT INTO cm VALUES " + strings.Join(vals, ", "))
	}
	insert(0, rows)
	insert(rows, rows+10)
	s.MustExecute("DELETE FROM cm WHERE id < 300 AND k < 50")
	tbl, _ := c.cat.Table("cm")
	coded := 0
	for _, st := range tbl.Stores {
		for _, ct := range st.Containers() {
			if _, codes := ct.Cols[1].(*storage.Int64Column).Codes(); codes != nil {
				coded++
			}
		}
	}
	if coded == 0 {
		t.Fatal("no container keeps codes: the fixture does not reach them")
	}
	refs := []colRef{{"id", genCol{"id", 'i', rows}}, {"k", genCol{"k", 'i', 110}}, {"p", genCol{"p", 'i', 130}},
		{"n", genCol{"n", 'i', 50}}, {"v", genCol{"v", 'f', 40}}}
	for i := 0; i < statements; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		where := genWhere(rng, refs)
		sql := "SELECT id, k, p, n, v FROM cm" + where + " ORDER BY id"
		if rng.Intn(2) == 0 {
			sql = "SELECT k, COUNT(*), SUM(p), MIN(n) FROM cm" + where + " GROUP BY k ORDER BY k"
		}
		if rng.Intn(4) == 0 {
			sql += fmt.Sprintf(" LIMIT %d", rng.Intn(50))
		}
		label := fmt.Sprintf("seed %d statement %d: %s", seed, i, sql)
		got, err := s.Execute(sql)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameResults(t, label, got, oracleSelect(t, s, sql))
	}
}
