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

// stmtLog is a connector that records, in order, the statements run on the
// sessions it opens, and counts the sessions.
type stmtLog struct {
	inner client.Connector
	mu    sync.Mutex
	stmts []string
	dials int
}

func (l *stmtLog) Connect(ctx context.Context, addr string) (client.Conn, error) {
	c, err := l.inner.Connect(ctx, addr)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dials++
	return &loggedConn{Conn: c, log: l}, nil
}

// take returns the statements logged and the sessions opened so far, and
// starts a new log.
func (l *stmtLog) take() (stmts []string, dials int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	stmts, dials = l.stmts, l.dials
	l.stmts, l.dials = nil, 0
	return stmts, dials
}

type loggedConn struct {
	client.Conn
	log *stmtLog
}

func (c *loggedConn) Execute(ctx context.Context, sql string) (*vertica.Result, error) {
	c.log.mu.Lock()
	c.log.stmts = append(c.log.stmts, sql)
	c.log.mu.Unlock()
	return c.Conn.Execute(ctx, sql)
}

// countStmts returns the number of statements, and how many of them contain
// substr.
func countStmts(stmts []string, substr string) (total, matching int) {
	for _, s := range stmts {
		total++
		if strings.Contains(s, substr) {
			matching++
		}
	}
	return total, matching
}

// TestV2SStatementsPerJob pins what the driver asks the catalog: creating a
// relation costs one describe statement (plus the zero-row probe for a view)
// and one layout statement; planning a scan costs one statement, the layout
// read together with LAST_EPOCH(); each partition is one statement. So a
// 4-partition load and collect of a table is 7 statements. The source keeps
// the sessions idle between jobs, so a second load and collect of the table
// dials nothing (tasks run one at a time here, so no job needs more sessions
// to a host than the one before it left idle). S2V setup reads the catalog
// once to overwrite (the staging table's layout) and twice to append (the
// target's description too).
func TestV2SStatementsPerJob(t *testing.T) {
	h := newHarness(t, 3, 2, nil)
	h.sc = spark.NewContext(spark.Conf{NumExecutors: 1, CoresPerExecutor: 1})
	h.seedTable(t, "seg", 300)
	h.sql(t, "CREATE TABLE rep (id INTEGER, val FLOAT) UNSEGMENTED ALL NODES",
		"INSERT INTO rep VALUES (1, 1.5), (2, 2.5)",
		"CREATE VIEW v AS SELECT id, val FROM seg WHERE id < 100")
	log := &stmtLog{inner: client.InProc(h.cluster)}
	src := NewDefaultSource(log)
	src.Register()

	for _, tc := range []struct {
		table      string
		rows       int
		createStmt int // describe (+ probe) + layout
	}{
		{"seg", 300, 2},
		{"rep", 2, 2},
		{"v", 100, 3},
	} {
		for round := 1; round <= 2; round++ {
			df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, tc.table, 4)).Load()
			if err != nil {
				t.Fatalf("%s: %v", tc.table, err)
			}
			create, createDials := log.take()
			if len(create) != tc.createStmt {
				t.Fatalf("%s: creating the relation ran %q, want %d statements", tc.table, create, tc.createStmt)
			}
			if _, catalog := countStmts(create, "v_catalog."); catalog != 2 {
				t.Fatalf("%s: creating the relation read the catalog %d times, want 2: %q", tc.table, catalog, create)
			}
			rows, err := df.Collect()
			if err != nil || len(rows) != tc.rows {
				t.Fatalf("%s: collected %d rows (%v), want %d", tc.table, len(rows), err, tc.rows)
			}
			scan, scanDials := log.take()
			if len(scan) != 5 {
				t.Fatalf("%s: the scan ran %d statements, want 5 (plan + 4 partitions): %q", tc.table, len(scan), scan)
			}
			if plan := scan[0]; !strings.Contains(plan, "v_catalog.") || !strings.Contains(plan, "LAST_EPOCH()") {
				t.Fatalf("%s: planning ran %q, want one catalog statement carrying LAST_EPOCH()", tc.table, plan)
			}
			for p, stmt := range scan[1:] {
				if !strings.HasPrefix(stmt, "AT EPOCH ") {
					t.Fatalf("%s: partition %d ran %q, want one pinned-epoch read", tc.table, p, stmt)
				}
			}
			if total, _ := countStmts(append(create, scan...), ""); total != 4+tc.createStmt+1 {
				t.Fatalf("%s: load and collect ran %d statements, want %d", tc.table, total, 4+tc.createStmt+1)
			}
			if dials := createDials + scanDials; round == 2 && dials != 0 {
				t.Fatalf("%s: the second load and collect opened %d connections, want 0", tc.table, dials)
			}
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
		stmts, _ := log.take()
		if _, catalog := countStmts(stmts, "v_catalog."); catalog != tc.catalog {
			t.Fatalf("%s save read the catalog %d times, want %d", tc.mode, catalog, tc.catalog)
		}
	}
	src.Close()
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
