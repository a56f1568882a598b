package server

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// differentialFixture builds what the wire-equals-in-process suites run over:
// a NULL-heavy fact table m written by two INSERTs a checkpoint apart, a
// dimension d, a view mv with an arithmetic column, and two UDxs — HALF, whose
// values arrive INTEGER or FLOAT, and SHOUT, which returns a VARCHAR no UDx's
// FLOAT column can hold. The cluster is durable: the data-collector policy
// functions need a spool.
func differentialFixture(t *testing.T) (*vertica.Session, *TCPConn) {
	t.Helper()
	cl, d := startClusterCfg(t, vertica.Config{Nodes: 2, DataDir: t.TempDir()})
	t.Cleanup(func() { _ = cl.Close() })
	local, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	cl.RegisterUDx("HALF", func(args []types.Value, _ map[string]string) (types.Value, error) {
		if n := args[0].AsInt(); args[0].Null || n%2 == 0 {
			return types.IntValue(n / 2), nil
		}
		return types.FloatValue(float64(args[0].AsInt()) / 2), nil
	})
	cl.RegisterUDx("SHOUT", func(args []types.Value, _ map[string]string) (types.Value, error) {
		return types.StringValue(strings.ToUpper(args[0].S)), nil
	})
	local.MustExecute("CREATE TABLE m (id INTEGER, k INTEGER, v FLOAT, label VARCHAR) SEGMENTED BY HASH(id)")
	local.MustExecute("CREATE TABLE d (k INTEGER, name VARCHAR)")
	local.MustExecute("CREATE VIEW mv AS SELECT id, k, v * 2 AS v2, label FROM m WHERE id < 90")
	rng := rand.New(rand.NewSource(23))
	orNull := func(v string) string {
		if rng.Intn(4) == 0 {
			return "NULL"
		}
		return v
	}
	var rows []string
	for i := 0; i < 120; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %s, %s, %s)", i, orNull(fmt.Sprint(rng.Intn(6))),
			orNull(fmt.Sprintf("%.1f", float64(rng.Intn(40))/2)), orNull([]string{"'ant'", "'bee'", "''"}[rng.Intn(3)])))
	}
	local.MustExecute("INSERT INTO m VALUES " + strings.Join(rows[:60], ", "))
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	local.MustExecute("INSERT INTO m VALUES " + strings.Join(rows[60:], ", "))
	local.MustExecute("INSERT INTO d VALUES (0, 'zero'), (1, 'one'), (2, NULL), (3, 'three'), (NULL, 'none')")
	conn, err := d.Connect(bg, cl.Node(1).Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return local, conn.(*TCPConn)
}

// typedCells fails the test unless every cell of res, NULLs included, is of
// its column's declared type.
func typedCells(t *testing.T, label string, res *vertica.Result) {
	t.Helper()
	for i, r := range res.Rows {
		for j, v := range r {
			if v.T != res.Schema.Cols[j].T {
				t.Fatalf("%s: row %d column %s holds %v %v under schema %v", label, i, res.Schema.Cols[j].Name, v.T, v, res.Schema)
			}
		}
	}
}

// TestWireDifferentialEveryShape: whatever shape a statement has, the result
// that crosses the wire is the in-process result — schema types and every
// cell's kind and value — and both honour the plan-time schema. A result of no
// rows still delivers its schema.
func TestWireDifferentialEveryShape(t *testing.T) {
	local, conn := differentialFixture(t)
	selects := []string{
		// Column picks, over a table, a view and a join.
		"SELECT label, id FROM m WHERE k IS NOT NULL",
		"SELECT * FROM mv",
		"SELECT mv.id, d.name, mv.v2 FROM mv JOIN d ON mv.k = d.k",
		// Expression lists, bare columns and `*` among them.
		"SELECT id + 1, v / 2, LENGTH(label), label, k IS NULL, MOD(id, 7) FROM m",
		"SELECT HALF(id), ABS(v2), v2 - 1 AS w, * FROM mv WHERE label IS NOT NULL",
		"SELECT m.id * 2, d.name FROM m JOIN d ON m.k = d.k WHERE m.v > 3",
		// Aggregates with expression arguments; a join under an aggregate.
		"SELECT k, SUM(v + 1), MIN(LENGTH(label)), MAX(HALF(id)), AVG(id * 2), COUNT(label), MIN(label) FROM m GROUP BY k",
		"SELECT SUM(LENGTH(label)), SUM(ABS(id)), MIN(ABS(id - 50)), MAX(v), COUNT(*) FROM m",
		"SELECT d.name, COUNT(*), SUM(m.v), MIN(m.id + 1) FROM m JOIN d ON m.k = d.k GROUP BY d.name",
		"SELECT k, COUNT(*), SUM(v2) FROM mv WHERE v2 > 4 GROUP BY k",
		// ORDER BY: DESC, several keys, NULL keys, under a LIMIT, over a pick,
		// an expression list and a group-by.
		"SELECT k, label, id FROM m ORDER BY k DESC, label, id DESC",
		"SELECT id, v FROM m ORDER BY v DESC, id LIMIT 7",
		"SELECT id + 1 AS n, label FROM mv ORDER BY label DESC, n",
		"SELECT ABS(id - 50) * 2 AS dist, HALF(id) AS h FROM m ORDER BY dist, h DESC",
		"SELECT k, COUNT(*) AS c, SUM(v) AS s FROM m GROUP BY k ORDER BY c DESC, k",
		// Zero rows: LIMIT 0 over every operator, and a filter nothing passes.
		"SELECT id, label FROM m LIMIT 0",
		"SELECT id + 1 AS n, LENGTH(label) FROM m LIMIT 0",
		"SELECT k, COUNT(*), SUM(v) FROM m GROUP BY k LIMIT 0",
		"SELECT * FROM m ORDER BY id DESC LIMIT 0",
		"SELECT LENGTH(label), v * 2 FROM m WHERE id < 0",
		"SELECT k, MAX(v) FROM m WHERE id < 0 GROUP BY k",
		// FROM-less, the functions of every return type among them.
		"SELECT 1 + 2, 'x', 2.5 * 2",
		"SELECT COUNT(*), SUM(2)",
		"SELECT VERSION()",
		"SELECT LAST_EPOCH(), CURRENT_EPOCH()",
		"SELECT LENGTH('four'), ABS(-3), HALF(5), HALF(4)",
		"SELECT SET_DATA_COLLECTOR_POLICY('query_requests', 64, '1h')",
		"SELECT GET_DATA_COLLECTOR_POLICY('query_requests')",
		// System tables.
		"SELECT node_name, node_id + 1 AS n FROM v_catalog.nodes ORDER BY n DESC",
		"SELECT node_state, COUNT(*), MAX(node_id) FROM v_monitor.node_states GROUP BY node_state",
		"SELECT * FROM v_catalog.tables",
	}
	for _, q := range selects {
		want := local.MustExecute(q)
		got, err := conn.Execute(bg, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if want.Schema.NumCols() == 0 || (len(want.Rows) == 0) != (strings.Contains(q, "LIMIT 0") || strings.Contains(q, "id < 0")) {
			t.Fatalf("%s: %d rows under schema %v, fixture broken", q, len(want.Rows), want.Schema)
		}
		typedCells(t, q+" (in process)", want)
		typedCells(t, q+" (wire)", got)
		exactResults(t, q, got, want)
	}
	// EXPLAIN and PROFILE synthesize their rows in Go and take the same road.
	// PROFILE's timings are a run's own: every other cell is compared.
	const durationCol = 5
	for _, q := range selects[:20] {
		for _, verb := range []string{"EXPLAIN ", "PROFILE "} {
			want := local.MustExecute(verb + q)
			got, err := conn.Execute(bg, verb+q)
			if err != nil {
				t.Fatalf("%s%s: %v", verb, q, err)
			}
			typedCells(t, verb+q+" (in process)", want)
			typedCells(t, verb+q+" (wire)", got)
			if verb == "PROFILE " {
				for _, r := range append(want.Rows, got.Rows...) {
					r[durationCol] = types.IntValue(0)
				}
			}
			exactResults(t, verb+q, got, want)
		}
	}
}

// TestWireDifferentialFunctionTypes pins the cases the two-shape result got
// wrong at ca5d6ee — in process the value kept the kind the function returned
// under a FLOAT schema, over TCP a lossy coercion turned VERSION()'s string
// into NaN: a function's column has the function's declared type on both
// sides, and a UDx value its FLOAT column cannot hold fails the statement,
// naming the UDx, on both sides.
func TestWireDifferentialFunctionTypes(t *testing.T) {
	local, conn := differentialFixture(t)
	for _, c := range []struct {
		q    string
		want types.Value
	}{
		{"SELECT VERSION()", types.StringValue("vsfabric MPP engine v1.0 (Vertica 7.2.1 semantics)")},
		{"SELECT SET_DATA_COLLECTOR_POLICY('query_requests', 64, '1h')", types.StringValue("SET policy query_requests: max 64 KB, max age 1h0m0s")},
		{"SELECT GET_DATA_COLLECTOR_POLICY('query_requests')", types.StringValue("max 64 KB, max age 1h0m0s")},
		{"SELECT LENGTH(label) FROM m WHERE id = 0", types.IntValue(3)},
		{"SELECT SUM(LENGTH(label)) FROM m WHERE id < 1", types.IntValue(3)},
		{"SELECT LAST_EPOCH()", local.MustExecute("SELECT LAST_EPOCH()").Rows[0][0]},
		{"SELECT ABS(id - 5) FROM m WHERE id = 2", types.FloatValue(3)},
	} {
		q, want := c.q, c.want
		inproc, err := local.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		wire, err := conn.Execute(bg, q)
		if err != nil {
			t.Fatalf("%s over TCP: %v", q, err)
		}
		for side, res := range map[string]*vertica.Result{"in process": inproc, "over TCP": wire} {
			if v, err := res.Value(); err != nil || v != want || res.Schema.Cols[0].T != want.T {
				t.Errorf("%s %s = %#v under schema %v, %v; want %#v", q, side, v, res.Schema, err, want)
			}
		}
	}
	for _, q := range []string{"SELECT SHOUT(label) FROM m", "SELECT k, MAX(SHOUT(label)) FROM m GROUP BY k", "SELECT id FROM m WHERE SHOUT(label) = 'ANT'"} {
		if _, err := local.Execute(q); err == nil || !strings.Contains(err.Error(), "SHOUT") {
			t.Errorf("%s in process: %v; want an error naming SHOUT", q, err)
		}
		if _, err := conn.Execute(bg, q); err == nil || !strings.Contains(err.Error(), "SHOUT") {
			t.Errorf("%s over TCP: %v; want an error naming SHOUT", q, err)
		}
	}
	// The same rule guards the write side: a value its column cannot hold is
	// refused, not stored as zero or NaN.
	for _, q := range []string{"INSERT INTO d VALUES ('x', 'y')", "UPDATE d SET k = name WHERE k = 1", "INSERT INTO m SELECT name, k, k, name FROM d"} {
		if _, err := local.Execute(q); err == nil || !strings.Contains(err.Error(), "cannot coerce") {
			t.Errorf("%s in process: %v; want a coercion error", q, err)
		}
		if _, err := conn.Execute(bg, q); err == nil || !strings.Contains(err.Error(), "cannot coerce") {
			t.Errorf("%s over TCP: %v; want a coercion error", q, err)
		}
	}
	// The session survives, on a frame boundary.
	if res, err := conn.Execute(bg, "SELECT COUNT(*) FROM m"); err != nil || res.Rows[0][0].I != 120 {
		t.Errorf("after the refused statements: %v, %v", res, err)
	}
}
