package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vsfabric/internal/client"
	"vsfabric/internal/spark"
	"vsfabric/internal/vertica"
)

// stmtLog is a connector that records the statements run on each connection
// it opens, in order.
type stmtLog struct {
	inner client.Connector
	mu    sync.Mutex
	conns [][]string
}

func (l *stmtLog) Connect(ctx context.Context, addr string) (client.Conn, error) {
	c, err := l.inner.Connect(ctx, addr)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conns = append(l.conns, nil)
	return &loggedConn{Conn: c, log: l, i: len(l.conns) - 1}, nil
}

// take returns the statements logged so far, one slice per connection, and
// starts a new log.
func (l *stmtLog) take() [][]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	conns := l.conns
	l.conns = nil
	return conns
}

type loggedConn struct {
	client.Conn
	log *stmtLog
	i   int
}

func (c *loggedConn) Execute(ctx context.Context, sql string) (*vertica.Result, error) {
	c.log.mu.Lock()
	c.log.conns[c.i] = append(c.log.conns[c.i], sql)
	c.log.mu.Unlock()
	return c.Conn.Execute(ctx, sql)
}

// countStmts returns the number of statements in conns, and how many of them
// contain substr.
func countStmts(conns [][]string, substr string) (total, matching int) {
	for _, stmts := range conns {
		for _, s := range stmts {
			total++
			if strings.Contains(s, substr) {
				matching++
			}
		}
	}
	return total, matching
}

// TestV2SStatementsPerJob pins what the driver asks the catalog: creating a
// relation costs one describe statement (plus the zero-row probe for a view)
// and one layout statement on one connection; planning a scan costs one
// statement, the layout read together with LAST_EPOCH(), on one connection;
// each partition is one statement on its own connection. So a 4-partition
// load and collect of a table is 7 statements on 6 dials. S2V setup reads the
// catalog once to overwrite (the staging table's layout) and twice to append
// (the target's description too).
func TestV2SStatementsPerJob(t *testing.T) {
	h := newHarness(t, 3, 2, nil)
	h.seedTable(t, "seg", 300)
	h.sql(t, "CREATE TABLE rep (id INTEGER, val FLOAT) UNSEGMENTED ALL NODES",
		"INSERT INTO rep VALUES (1, 1.5), (2, 2.5)",
		"CREATE VIEW v AS SELECT id, val FROM seg WHERE id < 100")
	log := &stmtLog{inner: client.InProc(h.cluster)}
	NewDefaultSource(log).Register()

	for _, tc := range []struct {
		table      string
		rows       int
		createStmt int // describe (+ probe) + layout
	}{
		{"seg", 300, 2},
		{"rep", 2, 2},
		{"v", 100, 3},
	} {
		df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, tc.table, 4)).Load()
		if err != nil {
			t.Fatalf("%s: %v", tc.table, err)
		}
		create := log.take()
		if len(create) != 1 || len(create[0]) != tc.createStmt {
			t.Fatalf("%s: creating the relation ran %q, want %d statements on one connection", tc.table, create, tc.createStmt)
		}
		if _, catalog := countStmts(create, "v_catalog."); catalog != 2 {
			t.Fatalf("%s: creating the relation read the catalog %d times, want 2: %q", tc.table, catalog, create)
		}
		rows, err := df.Collect()
		if err != nil || len(rows) != tc.rows {
			t.Fatalf("%s: collected %d rows (%v), want %d", tc.table, len(rows), err, tc.rows)
		}
		scan := log.take()
		if len(scan) != 5 {
			t.Fatalf("%s: the scan opened %d connections, want 5 (plan + 4 partitions): %q", tc.table, len(scan), scan)
		}
		if plan := scan[0]; len(plan) != 1 || !strings.Contains(plan[0], "v_catalog.") || !strings.Contains(plan[0], "LAST_EPOCH()") {
			t.Fatalf("%s: planning ran %q, want one catalog statement carrying LAST_EPOCH()", tc.table, plan)
		}
		for p, stmts := range scan[1:] {
			if len(stmts) != 1 || !strings.HasPrefix(stmts[0], "AT EPOCH ") {
				t.Fatalf("%s: partition %d ran %q, want one pinned-epoch read", tc.table, p, stmts)
			}
		}
		if total, _ := countStmts(append(create, scan...), ""); total != 4+tc.createStmt+1 {
			t.Fatalf("%s: load and collect ran %d statements, want %d", tc.table, total, 4+tc.createStmt+1)
		}
	}

	for _, tc := range []struct {
		mode    spark.SaveMode
		catalog int
	}{
		{spark.SaveOverwrite, 1},
		{spark.SaveAppend, 2},
	} {
		if err := saveDF(t, h, testDF(h, 50, 2), tc.mode, "seg", 2, nil); err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if _, catalog := countStmts(log.take(), "v_catalog."); catalog != tc.catalog {
			t.Fatalf("%s save read the catalog %d times, want %d", tc.mode, catalog, tc.catalog)
		}
	}
}

// TestV2SConcurrentPlansOfOneRelation: one V2S DataFrame collected from
// several goroutines at once plans each job on its own layout, so the plans
// share no mutable state (the race detector checks) and every collect sees
// the whole table.
func TestV2SConcurrentPlansOfOneRelation(t *testing.T) {
	h := newHarness(t, 3, 2, nil)
	h.seedTable(t, "cp", 400)
	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "cp", 4)).Load()
	if err != nil {
		t.Fatal(err)
	}
	const collectors = 4
	errs := make(chan error, collectors)
	for i := 0; i < collectors; i++ {
		go func() {
			rows, err := df.Collect()
			if err == nil && len(rows) != 400 {
				err = fmt.Errorf("collected %d rows, want 400", len(rows))
			}
			errs <- err
		}()
	}
	for i := 0; i < collectors; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
