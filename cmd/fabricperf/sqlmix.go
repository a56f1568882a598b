package main

import (
	"context"
	"fmt"
	"math/rand"

	"vsfabric/internal/client"
	"vsfabric/internal/perf"
	"vsfabric/internal/vertica"
)

// The statement mix. A block is 100 statements in exactly these proportions;
// the seed shuffles their order within each block and draws their
// parameters, so every run of every seed executes the same number of each
// class per block and only the interleaving differs.
var mixShare = []struct {
	class string
	n     int
}{
	{"point", 60},  // SELECT c0 FROM d1 WHERE pcol = ? LIMIT 1
	{"filter", 20}, // SELECT * FROM d1 WHERE pcol = ? AND c1 < 0.01
	{"groupby", 8}, // SELECT pcol, COUNT(*), SUM(c1), AVG(c2) FROM d1 GROUP BY pcol
	{"join", 2},    // d1 ⋈ dim_a ⋈ dim_b, GROUP BY dim_b.name
	{"insert", 10}, // autocommit single-row INSERT INTO events
}

const (
	groupbySQL = "SELECT pcol, COUNT(*), SUM(c1), AVG(c2) FROM d1 GROUP BY pcol"
	joinSQL    = "SELECT dim_b.name, COUNT(*), SUM(d1.c1) FROM d1 JOIN dim_a ON d1.pcol = dim_a.pcol " +
		"JOIN dim_b ON dim_a.grp = dim_b.grp GROUP BY dim_b.name"
)

func pointSQL(p int64) string { return fmt.Sprintf("SELECT c0 FROM d1 WHERE pcol = %d LIMIT 1", p) }
func filterSQL(p int64) string {
	return fmt.Sprintf("SELECT * FROM d1 WHERE pcol = %d AND c1 < %g", p, filterCut)
}
func insertSQL(id, p int64, v float64) string {
	return fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %g)", id, p, v)
}

// mixClient is one closed-loop SQL caller: a connection, its private random
// stream, and the class order of the block it is in.
type mixClient struct {
	conn  client.Conn
	rng   *rand.Rand
	block []string
}

// mix is the statement mix over a set of connections.
type mix struct {
	f       *fabric
	exp     *expected
	clients []*mixClient
	blockOf []string // one block's classes, unshuffled
}

// mixBlock is one block's classes in mixShare's proportions; without joins
// it is the same block minus the join statements.
func mixBlock(joins bool) []string {
	var block []string
	for _, s := range mixShare {
		if s.class == "join" && !joins {
			continue
		}
		for i := 0; i < s.n; i++ {
			block = append(block, s.class)
		}
	}
	return block
}

// warmBlock is one statement of each class: enough to dial, shake hands and
// touch every code path before a window, at a cost that does not depend on
// where the shuffle puts the joins.
func warmBlock() []string {
	var block []string
	for _, s := range mixShare {
		block = append(block, s.class)
	}
	return block
}

// openMix dials clients connections through the fabric's current connector;
// each runs the classes of block, reshuffled every time round.
func openMix(f *fabric, exp *expected, clients int, block []string) (*mix, error) {
	m := &mix{f: f, exp: exp, blockOf: block}
	for c := 0; c < clients; c++ {
		conn, err := f.conn.Connect(bg, f.cl.Node(c%vNodes).Addr)
		if err != nil {
			m.close()
			return nil, err
		}
		m.clients = append(m.clients, &mixClient{
			conn: conn,
			rng:  rand.New(rand.NewSource(int64(f.seed)*1_000_003 + int64(c))),
		})
	}
	return m, nil
}

func (m *mix) close() {
	for _, c := range m.clients {
		c.conn.Close()
	}
}

// blockLen is the number of statements after which a client may stop.
func (m *mix) blockLen() int { return len(m.blockOf) }

// op issues client's next statement and returns its check as After.
func (m *mix) op(ctx context.Context, client, seq int) perf.OpResult {
	c := m.clients[client]
	i := seq % len(m.blockOf)
	if i == 0 {
		c.block = append(c.block[:0], m.blockOf...)
		c.rng.Shuffle(len(c.block), func(a, b int) { c.block[a], c.block[b] = c.block[b], c.block[a] })
	}
	class := c.block[i]
	p := c.rng.Int63n(dimA)
	var sql string
	var check func(*vertica.Result) error
	switch class {
	case "point":
		sql, check = pointSQL(p), func(r *vertica.Result) error { return m.checkPoint(r, p) }
	case "filter":
		sql, check = filterSQL(p), func(r *vertica.Result) error { return m.checkFilter(r, p) }
	case "groupby":
		sql, check = groupbySQL, m.checkGroupBy
	case "join":
		sql, check = joinSQL, m.checkJoin
	case "insert":
		sql = insertSQL(m.f.eventID.Add(1), p, c.rng.Float64())
		check = func(r *vertica.Result) error {
			if r.RowsAffected != 1 {
				return fmt.Errorf("insert: %d rows affected, want 1", r.RowsAffected)
			}
			m.f.inserted.Add(1)
			return nil
		}
	}
	res, err := c.conn.Execute(ctx, sql)
	if err != nil {
		return perf.OpResult{Class: class, Err: fmt.Errorf("%s: %w", sql, err)}
	}
	rows := int64(len(res.Rows))
	if class == "insert" {
		rows = res.RowsAffected
	}
	return perf.OpResult{Class: class, Rows: rows, After: func() error { return check(res) }}
}

func (m *mix) checkPoint(r *vertica.Result, p int64) error {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return fmt.Errorf("point pcol=%d: result is not 1x1", p)
	}
	if c0 := r.Rows[0][0].F; !m.exp.hasC0(p, c0) {
		return fmt.Errorf("point pcol=%d: c0=%v belongs to no generated row of that pcol", p, c0)
	}
	return nil
}

func (m *mix) checkFilter(r *vertica.Result, p int64) error {
	for _, row := range r.Rows {
		if len(row) != 1+d1Cols || row[0].I != p || !(row[2].F < filterCut) {
			return fmt.Errorf("filter pcol=%d: row %v does not satisfy the predicate", p, row)
		}
	}
	return digest(r.Rows, 1).check(fmt.Sprintf("filter pcol=%d", p), m.exp.pcol[p].filter)
}

func (m *mix) checkGroupBy(r *vertica.Result) error {
	if len(r.Rows) != dimA {
		return fmt.Errorf("groupby: %d groups, want %d", len(r.Rows), dimA)
	}
	for _, row := range r.Rows {
		p := row[0].I
		if p < 0 || p >= dimA {
			return fmt.Errorf("groupby: unknown pcol %d", p)
		}
		e := &m.exp.pcol[p]
		if row[1].I != e.all.n || !near(row[2].F, e.sumC1) || !near(row[3].F, e.sumC2/float64(e.all.n)) {
			return fmt.Errorf("groupby pcol=%d: got %v, generator says count %d sum(c1) %v avg(c2) %v",
				p, row, e.all.n, e.sumC1, e.sumC2/float64(e.all.n))
		}
	}
	return nil
}

func (m *mix) checkJoin(r *vertica.Result) error {
	if len(r.Rows) != dimB {
		return fmt.Errorf("join: %d groups, want %d", len(r.Rows), dimB)
	}
	for _, row := range r.Rows {
		var g int
		if _, err := fmt.Sscanf(row[0].S, "g%d", &g); err != nil || g < 0 || g >= dimB {
			return fmt.Errorf("join: unknown group %q", row[0].S)
		}
		var n int64
		var sum float64
		for p := g; p < dimA; p += dimB {
			n += m.exp.pcol[p].all.n
			sum += m.exp.pcol[p].sumC1
		}
		if row[1].I != n || !near(row[2].F, sum) {
			return fmt.Errorf("join group %s: got %v, generator says count %d sum(c1) %v", row[0].S, row, n, sum)
		}
	}
	return nil
}

// checkEvents compares the events table with the acknowledged inserts.
func (m *mix) checkEvents() error {
	res, err := m.clients[0].conn.Execute(bg, "SELECT COUNT(*) FROM events")
	if err != nil {
		return err
	}
	if got, want := res.Rows[0][0].I, m.f.inserted.Load(); got != want {
		return fmt.Errorf("events holds %d rows, %d inserts were acknowledged", got, want)
	}
	return nil
}
