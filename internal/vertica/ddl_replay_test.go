package vertica

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vsfabric/internal/wal"
)

// ddlState is everything a DDL opcode can change, in comparable form.
type ddlState struct {
	Tables []string // name, definition, created epoch, ring, rows
	Views  []string
	Pools  []string
	Ring   []int
	Nodes  []string
	Epoch  uint64
}

func snapshotDDLState(t *testing.T, c *Cluster) ddlState {
	t.Helper()
	s := sess(t, c, 0)
	defer s.Close()
	st := ddlState{Ring: c.cat.Ring(), Epoch: c.LastEpoch()}
	for _, tbl := range c.cat.Tables() {
		st.Tables = append(st.Tables, fmt.Sprintf("%s %+v created@%d ring%v rows%v",
			tbl.Def.Name, tbl.Def, tbl.CreatedEpoch, tbl.Ring, dumpTable(s, tbl.Def.Name)))
	}
	for _, v := range c.cat.Views() {
		st.Views = append(st.Views, v.Name+" AS "+v.SelectSQL)
	}
	for _, p := range c.pools.List() {
		st.Pools = append(st.Pools, fmt.Sprintf("%s %+v", p.Name, p.Cfg))
	}
	for _, n := range c.nodeList() {
		st.Nodes = append(st.Nodes, fmt.Sprintf("%d:%v", n.ID, n.State()))
	}
	return st
}

// TestDDLLiveEqualsReplay runs every DDL opcode live on a durable cluster,
// kills it, and requires the reopened cluster — which saw the operation only
// as a WAL record handed to applyDDL — to hold the state the live one held.
// IF [NOT] EXISTS no-ops ride along: whatever they log must replay.
func TestDDLLiveEqualsReplay(t *testing.T) {
	const seed = `CREATE TABLE base (id INTEGER, v VARCHAR) SEGMENTED BY HASH(id);
		INSERT INTO base VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd'), (5, 'e'), (6, 'f');
		CREATE TABLE dim (k INTEGER) UNSEGMENTED ALL NODES;
		INSERT INTO dim VALUES (10), (20)`
	cases := []struct {
		name  string
		setup string // statements before the checkpoint: the manifest holds their effects
		run   string // statements after it: replay must reproduce theirs
		ops   []byte // opcodes run must log
	}{
		{"create table", seed,
			`CREATE TABLE t2 (a INTEGER, b FLOAT) SEGMENTED BY HASH(a) KSAFE 1;
			 CREATE TABLE t3 LIKE base;
			 CREATE TABLE IF NOT EXISTS t2 (zzz VARCHAR);
			 INSERT INTO t2 VALUES (1, 1.5)`, []byte{opCreateTable}},
		{"drop table", seed,
			`DROP TABLE base; DROP TABLE IF EXISTS never_was`, []byte{opDropTable}},
		{"rename table", seed,
			`ALTER TABLE base RENAME TO moved; INSERT INTO moved VALUES (7, 'g')`, []byte{opRenameTable}},
		{"create view", seed,
			`CREATE VIEW big AS SELECT id FROM base WHERE id > 3`, []byte{opCreateView}},
		{"drop view", seed + `; CREATE VIEW big AS SELECT id FROM base WHERE id > 3`,
			`DROP VIEW big; DROP VIEW IF EXISTS never_was`, []byte{opDropView}},
		{"drop and rename in one transaction", seed + `; CREATE TABLE staging (id INTEGER, v VARCHAR) SEGMENTED BY HASH(id)`,
			`BEGIN; INSERT INTO staging VALUES (100, 'new'); DROP TABLE base;
			 ALTER TABLE staging RENAME TO base; COMMIT`, []byte{opDropTable, opRenameTable}},
		{"add node", seed,
			`ALTER CLUSTER ADD NODE; INSERT INTO base VALUES (8, 'h')`, []byte{opAddNode, opRebalance}},
		{"remove node", seed + `; ALTER CLUSTER ADD NODE`,
			`ALTER CLUSTER REMOVE NODE 1`, []byte{opRemoveNode, opRebalance}},
		{"create pool", seed,
			`CREATE RESOURCE POOL etl MEMORYSIZE '64M' MAXCONCURRENCY 4;
			 CREATE RESOURCE POOL IF NOT EXISTS etl MAXCONCURRENCY 99`, []byte{opCreatePool}},
		{"alter pool", seed + `; CREATE RESOURCE POOL etl MAXCONCURRENCY 4`,
			`ALTER RESOURCE POOL etl MAXCONCURRENCY 8 QUEUETIMEOUT '2s'`, []byte{opAlterPool}},
		{"drop pool", seed + `; CREATE RESOURCE POOL etl MAXCONCURRENCY 4`,
			`DROP RESOURCE POOL etl; DROP RESOURCE POOL IF EXISTS never_was`, []byte{opDropPool}},
	}
	seen := make(map[byte]bool)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := durableCluster(t, dir)
			s := sess(t, c, 0)
			for _, q := range strings.Split(tc.setup, ";") {
				s.MustExecute(q)
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for _, q := range strings.Split(tc.run, ";") {
				s.MustExecute(q)
			}
			s.Close()
			live := snapshotDDLState(t, c)

			// Kill: the log is torn at its next append and never flushed again.
			walPath := c.curWAL().Path()
			c.curWAL().FailAfterRecords(0)
			_ = c.Close()
			recs, err := wal.ReadAll(walPath)
			if err != nil {
				t.Fatal(err)
			}
			logged := make(map[byte]bool)
			for _, r := range recs {
				if r.Type == wal.RecDDL {
					logged[r.Op], seen[r.Op] = true, true
				}
			}
			for _, op := range tc.ops {
				if !logged[op] {
					t.Fatalf("%s logged no opcode %d (log %s holds %v)", tc.name, op, filepath.Base(walPath), logged)
				}
			}

			c2 := durableCluster(t, dir)
			defer c2.Close()
			if replayed := snapshotDDLState(t, c2); !reflect.DeepEqual(replayed, live) {
				t.Fatalf("replayed state differs from live\n live %+v\nreplay %+v", live, replayed)
			}
		})
	}
	for op := opCreateTable; op <= opDropPool; op++ {
		if !seen[op] {
			t.Errorf("no case logged opcode %d", op)
		}
	}
}

// TestConcurrentDDLHasOneWinner: a statement's precondition is decided by the
// call that makes the change, not by a look beforehand — of eight sessions
// racing the same CREATE, ALTER or DROP, the strict forms have exactly one
// winner, the IF [NOT] EXISTS forms all succeed, and what the race logged
// replays to the state it left.
func TestConcurrentDDLHasOneWinner(t *testing.T) {
	const sessions, rounds = 8, 150
	dir := t.TempDir()
	c := durableCluster(t, dir)
	race := func(stmt string) (ok int) {
		t.Helper()
		errs := make(chan error, sessions)
		for i := 0; i < sessions; i++ {
			s := sess(t, c, i%c.NumNodes())
			go func() {
				defer s.Close()
				_, err := s.Execute(stmt)
				errs <- err
			}()
		}
		for i := 0; i < sessions; i++ {
			if err := <-errs; err == nil {
				ok++
			} else if !strings.Contains(err.Error(), "exist") {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		return ok
	}
	for r := 0; r < rounds; r++ {
		tbl, pl := fmt.Sprintf("tt%d", r), fmt.Sprintf("p%d", r)
		for _, step := range []struct {
			stmt string
			want int
		}{
			{"CREATE TABLE IF NOT EXISTS " + tbl + " (a INTEGER)", sessions},
			{"DROP TABLE " + tbl, 1},
			{"CREATE VIEW v" + tbl + " AS SELECT 1", 1},
			{"DROP VIEW v" + tbl, 1},
			{"CREATE RESOURCE POOL " + pl + " MAXCONCURRENCY 2", 1},
			{"CREATE RESOURCE POOL IF NOT EXISTS " + pl + " MAXCONCURRENCY 9", sessions},
			{"DROP RESOURCE POOL " + pl, 1},
		} {
			if got := race(step.stmt); got != step.want {
				t.Fatalf("round %d: %d of %d sessions succeeded at %q, want %d", r, got, sessions, step.stmt, step.want)
			}
		}
	}

	// ALTER racing DROP: an ALTER that loses must fail, not bring the pool
	// back — live or at replay.
	for r := 0; r < rounds; r++ {
		pl := fmt.Sprintf("q%d", r)
		s := sess(t, c, 0)
		s.MustExecute("CREATE RESOURCE POOL " + pl + " MAXCONCURRENCY 2")
		done := make(chan struct{})
		go func() {
			defer close(done)
			s2 := sess(t, c, 1)
			defer s2.Close()
			s2.Execute("ALTER RESOURCE POOL " + pl + " MAXCONCURRENCY 5")
		}()
		s.MustExecute("DROP RESOURCE POOL " + pl)
		<-done
		s.Close()
		if _, err := c.pools.Get(pl); err == nil {
			t.Fatalf("round %d: pool %s exists after its DROP was acknowledged", r, pl)
		}
	}

	live := snapshotDDLState(t, c)
	c.curWAL().FailAfterRecords(0)
	_ = c.Close()
	c2 := durableCluster(t, dir)
	defer c2.Close()
	if replayed := snapshotDDLState(t, c2); !reflect.DeepEqual(replayed, live) {
		t.Fatalf("replayed state differs from live\n live %+v\nreplay %+v", live, replayed)
	}
}
