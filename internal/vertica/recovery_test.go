package vertica

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vsfabric/internal/obs"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/wal"
)

func durableCluster(t *testing.T, dir string) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Nodes: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// dumpTable returns the table's rows as sorted "col|col|..." strings, or nil
// if the table does not exist (a crash can land before its CREATE is durable).
func dumpTable(s *Session, table string) []string {
	res, err := s.Execute("SELECT * FROM " + table)
	if err != nil {
		return nil
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			if v.Null {
				parts[i] = "NULL"
			} else {
				parts[i] = v.String()
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()

	c := durableCluster(t, dir)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE ev (id INTEGER, v FLOAT, name VARCHAR) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO ev VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, NULL, NULL)")
	if _, err := s.CopyFrom("COPY ev FROM STDIN FORMAT CSV DIRECT",
		strings.NewReader("10,0.5,x\n11,0.25,y\n")); err != nil {
		t.Fatal(err)
	}
	s.MustExecute("DELETE FROM ev WHERE id = 2")
	s.MustExecute("UPDATE ev SET name = 'z' WHERE id = 3")
	s.MustExecute("CREATE TABLE tmp (id INTEGER)")
	s.MustExecute("ALTER TABLE tmp RENAME TO renamed")
	s.MustExecute("CREATE VIEW big AS SELECT id FROM ev WHERE id >= 10")
	want := dumpTable(s, "ev")
	wantEpoch := c.LastEpoch()
	s.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := durableCluster(t, dir)
	defer c2.Close()
	s2 := sess(t, c2, 1)
	if got := dumpTable(s2, "ev"); !sameRows(got, want) {
		t.Fatalf("reopen lost data:\n got %v\nwant %v", got, want)
	}
	if got := c2.LastEpoch(); got != wantEpoch {
		t.Fatalf("reopen at epoch %d, want %d", got, wantEpoch)
	}
	if _, ok := c2.Catalog().Table("renamed"); !ok {
		t.Fatal("renamed table lost across restart")
	}
	if res := s2.MustExecute("SELECT COUNT(*) FROM big"); mustI(t, res) != 2 {
		t.Fatal("view lost across restart")
	}
	// The reopened cluster keeps working and keeps being durable.
	s2.MustExecute("INSERT INTO ev VALUES (50, 5.0, 'post')")
	want2 := dumpTable(s2, "ev")
	s2.Close()
	c2.Close()
	c3 := durableCluster(t, dir)
	defer c3.Close()
	s3 := sess(t, c3, 0)
	if got := dumpTable(s3, "ev"); !sameRows(got, want2) {
		t.Fatalf("second reopen lost data:\n got %v\nwant %v", got, want2)
	}
}

// TestRecoveryRefusesContainerOfAnotherType: a checksum-valid container file
// written under (a FLOAT), found where the manifest names a container of an
// (a INTEGER) table, fails recovery instead of attaching, so a scan never
// hands the kernels a vector of another type than its schema column's.
func TestRecoveryRefusesContainerOfAnotherType(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE ints (a INTEGER) UNSEGMENTED ALL NODES")
	s.MustExecute("CREATE TABLE floats (a FLOAT) UNSEGMENTED ALL NODES")
	for table, data := range map[string]string{"ints": "1\n2\n3\n", "floats": "0.5\n1.5\n"} {
		if _, err := s.CopyFrom("COPY "+table+" FROM STDIN FORMAT CSV DIRECT", strings.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	file := map[string]string{}
	for _, tm := range m.Tables {
		if len(tm.Stores) == 0 || len(tm.Stores[0].Containers) == 0 {
			t.Fatalf("table %s persisted no container on its first store", tm.Def.Name)
		}
		file[tm.Def.Name] = filepath.Join(dir, tm.Stores[0].Containers[0])
	}
	floats, err := os.ReadFile(file["floats"])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file["ints"], floats, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCluster(Config{Nodes: 2, DataDir: dir})
	if err == nil {
		c2.Close()
		t.Fatal("recovery attached a FLOAT container to an INTEGER table")
	}
	if !strings.Contains(err.Error(), file["ints"][len(dir)+1:]) {
		t.Fatalf("recovery failed with %v, want an error naming the container file", err)
	}
}

func mustI(t *testing.T, res *Result) int64 {
	t.Helper()
	v, err := res.Value()
	if err != nil {
		t.Fatal(err)
	}
	return v.I
}

func TestCheckpointTruncatesWALAndReopens(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, v INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 200; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i*10))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	s.MustExecute("DELETE FROM t WHERE id = 7")

	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The WAL was cut over to a fresh file holding just the checkpoint record,
	// the old file is gone, and containers landed on disk.
	if _, err := os.Stat(filepath.Join(dir, "wal-1.log")); !os.IsNotExist(err) {
		t.Fatalf("old WAL not removed after checkpoint: %v", err)
	}
	recs, err := wal.ReadAll(filepath.Join(dir, "wal-2.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != wal.RecCheckpoint {
		t.Fatalf("post-checkpoint WAL has %d records: %+v", len(recs), recs)
	}
	ros, _ := filepath.Glob(filepath.Join(dir, "node-*", "c-*.ros"))
	if len(ros) == 0 {
		t.Fatal("checkpoint wrote no container files")
	}
	if n := c.Obs().Counter("checkpoint.containers_written"); n == 0 {
		t.Fatal("checkpoint.containers_written counter never bumped")
	}

	// Writes after the checkpoint replay from the new WAL on reopen.
	s.MustExecute("INSERT INTO t VALUES (500, 1)")
	want := dumpTable(s, "t")
	wantEpoch := c.LastEpoch()
	s.Close()
	c.Close()

	c2 := durableCluster(t, dir)
	defer c2.Close()
	s2 := sess(t, c2, 0)
	if got := dumpTable(s2, "t"); !sameRows(got, want) {
		t.Fatalf("post-checkpoint reopen:\n got %d rows\nwant %d rows", len(got), len(want))
	}
	if c2.LastEpoch() != wantEpoch {
		t.Fatalf("epoch %d after reopen, want %d", c2.LastEpoch(), wantEpoch)
	}
	s2.Close()
	c2.Close()

	// A second reopen of the same directory reads the same files again.
	c3 := durableCluster(t, dir)
	defer c3.Close()
	s3 := sess(t, c3, 1)
	if got := dumpTable(s3, "t"); !sameRows(got, want) {
		t.Fatalf("second reopen lost rows: %d, want %d", len(got), len(want))
	}
}

// crashStep is one workload statement plus everything needed to re-apply it
// to a model cluster. A step is "acknowledged" when run returns nil — for
// composite transactions, when COMMIT returned nil.
type crashStep struct {
	name string
	run  func(s *Session) error
}

func execStep(name, sql string) crashStep {
	return crashStep{name, func(s *Session) error {
		_, err := s.Execute(sql)
		return err
	}}
}

func txnStep(name string, body []string, commit bool) crashStep {
	return crashStep{name, func(s *Session) error {
		if _, err := s.Execute("BEGIN"); err != nil {
			return err
		}
		for _, sql := range body {
			if _, err := s.Execute(sql); err != nil {
				_, _ = s.Execute("ROLLBACK")
				return err
			}
		}
		final := "ROLLBACK"
		if commit {
			final = "COMMIT"
		}
		_, err := s.Execute(final)
		return err
	}}
}

func copyStep(name, data string) crashStep {
	return crashStep{name, func(s *Session) error {
		_, err := s.CopyFrom("COPY t FROM STDIN FORMAT CSV DIRECT", strings.NewReader(data))
		return err
	}}
}

func sweepWorkload() []crashStep {
	return []crashStep{
		execStep("create", "CREATE TABLE t (id INTEGER, v INTEGER) SEGMENTED BY HASH(id)"),
		execStep("insert1", "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)"),
		copyStep("copy", "10,100\n11,110\n12,120\n"),
		execStep("delete", "DELETE FROM t WHERE id = 2"),
		execStep("update", "UPDATE t SET v = 99 WHERE id = 3"),
		txnStep("txn-commit", []string{
			"INSERT INTO t VALUES (20, 200)",
			"DELETE FROM t WHERE id = 10",
		}, true),
		txnStep("txn-abort", []string{"INSERT INTO t VALUES (30, 300)"}, false),
		execStep("insert2", "INSERT INTO t VALUES (41, 410), (42, 420)"),
	}
}

// runSteps executes the workload, recording which steps were acknowledged.
// Errors are expected once the WAL "crashes" — later statements keep failing.
func runSteps(t *testing.T, c *Cluster, steps []crashStep) []bool {
	t.Helper()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	acks := make([]bool, len(steps))
	for i, st := range steps {
		acks[i] = st.run(s) == nil
	}
	return acks
}

// modelState replays the acknowledged steps on a fresh in-memory cluster and
// returns the rows the recovered cluster must show, plus the expected epoch.
func modelState(t *testing.T, steps []crashStep, acks []bool) ([]string, uint64) {
	t.Helper()
	m, err := NewCluster(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, st := range steps {
		if !acks[i] {
			continue
		}
		if err := st.run(s); err != nil {
			t.Fatalf("model replay of acknowledged step %q failed: %v", steps[i].name, err)
		}
	}
	return dumpTable(s, "t"), m.LastEpoch()
}

// countWorkloadAppends runs the workload cleanly and counts the WAL records
// it appends (excluding the fresh-directory checkpoint record).
func countWorkloadAppends(t *testing.T, steps []crashStep) int {
	t.Helper()
	dir := t.TempDir()
	c := durableCluster(t, dir)
	acks := runSteps(t, c, steps)
	for i, ok := range acks {
		if !ok {
			t.Fatalf("clean run: step %q failed", steps[i].name)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReadAll(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 || recs[0].Type != wal.RecCheckpoint {
		t.Fatalf("unexpected clean log: %d records", len(recs))
	}
	return len(recs) - 1
}

// verifyRecovery reopens the directory and checks the recovered state matches
// the acknowledged prefix exactly: no committed row lost, no unacknowledged
// or aborted row resurfacing. It also proves the cluster is writable again.
func verifyRecovery(t *testing.T, label, dir string, steps []crashStep, acks []bool) {
	t.Helper()
	want, wantEpoch := modelState(t, steps, acks)
	c, err := NewCluster(Config{Nodes: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer c.Close()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := dumpTable(s, "t")
	if !sameRows(got, want) {
		t.Fatalf("%s (acks %v):\nrecovered %v\n expected %v", label, acks, got, want)
	}
	if got, wantE := c.LastEpoch(), wantEpoch; got != wantE {
		t.Fatalf("%s: recovered epoch %d, want %d", label, got, wantE)
	}
	// The survivor must accept new durable writes.
	if want != nil {
		if _, err := s.Execute("INSERT INTO t VALUES (900, 9)"); err != nil {
			t.Fatalf("%s: post-recovery insert failed: %v", label, err)
		}
	}
}

// TestKillAndRestartSweep simulates a kill -9 at EVERY WAL record boundary of
// the workload: the n+1th append writes half a frame and the process "dies"
// (all later WAL operations fail). Recovery must reproduce exactly the
// acknowledged prefix at each crash point.
func TestKillAndRestartSweep(t *testing.T) {
	steps := sweepWorkload()
	appends := countWorkloadAppends(t, steps)
	if appends < 10 {
		t.Fatalf("workload too small to sweep: %d appends", appends)
	}
	for n := 0; n < appends; n++ {
		dir := t.TempDir()
		c := durableCluster(t, dir)
		c.curWAL().FailAfterRecords(n)
		acks := runSteps(t, c, steps)
		_ = c.Close()
		verifyRecovery(t, fmt.Sprintf("crash@%d", n), dir, steps, acks)
	}
}

// crashAtRecord finds the workload's first post-checkpoint record satisfying
// match and returns its 0-based append index (what FailAfterRecords needs to
// tear exactly that record).
func crashAtRecord(t *testing.T, steps []crashStep, match func(wal.Record) bool) int {
	t.Helper()
	dir := t.TempDir()
	c := durableCluster(t, dir)
	runSteps(t, c, steps)
	c.Close()
	recs, err := wal.ReadAll(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs[1:] {
		if match(r) {
			return i
		}
	}
	t.Fatal("no matching record in clean run")
	return -1
}

// TestCrashMidCopy kills the node exactly as the COPY's insert record is
// being written: the load was never acknowledged, so none of its rows may
// appear after restart, while every earlier commit survives.
func TestCrashMidCopy(t *testing.T) {
	steps := sweepWorkload()
	inserts := 0
	n := crashAtRecord(t, steps, func(r wal.Record) bool {
		if r.Type == wal.RecInsert {
			inserts++
		}
		return r.Type == wal.RecInsert && inserts == 2 // insert1's, then the COPY's
	})
	dir := t.TempDir()
	c := durableCluster(t, dir)
	c.curWAL().FailAfterRecords(n)
	acks := runSteps(t, c, steps)
	if acks[2] {
		t.Fatal("COPY was acknowledged despite the crash")
	}
	if !acks[0] || !acks[1] {
		t.Fatal("steps before the COPY should have succeeded")
	}
	_ = c.Close()
	verifyRecovery(t, "mid-copy", dir, steps, acks)
}

// TestCrashMidCommit kills the node while the commit record itself is being
// written. The statement was not acknowledged, so its rows must not appear —
// the classic torn-commit case.
func TestCrashMidCommit(t *testing.T) {
	steps := sweepWorkload()
	n := crashAtRecord(t, steps, func(r wal.Record) bool {
		return r.Type == wal.RecCommit
	})
	dir := t.TempDir()
	c := durableCluster(t, dir)
	c.curWAL().FailAfterRecords(n)
	acks := runSteps(t, c, steps)
	_ = c.Close()
	verifyRecovery(t, "mid-commit", dir, steps, acks)
}

// TestReplayPropertyRandomInterleavings drives random workloads (inserts,
// deletes, updates, committed and aborted transactions) into a crash at a
// random record index, then checks the recovered state equals the
// acknowledged prefix. Seeded: failures reproduce.
func TestReplayPropertyRandomInterleavings(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := []crashStep{execStep("create", "CREATE TABLE t (id INTEGER, v INTEGER) SEGMENTED BY HASH(id)")}
		nextID := 0
		for i := 0; i < 7; i++ {
			switch rng.Intn(4) {
			case 0:
				var vals []string
				for j := 0; j <= rng.Intn(3); j++ {
					vals = append(vals, fmt.Sprintf("(%d, %d)", nextID, rng.Intn(1000)))
					nextID++
				}
				steps = append(steps, execStep(fmt.Sprintf("ins%d", i),
					"INSERT INTO t VALUES "+strings.Join(vals, ", ")))
			case 1:
				steps = append(steps, execStep(fmt.Sprintf("del%d", i),
					fmt.Sprintf("DELETE FROM t WHERE id < %d", rng.Intn(nextID+1))))
			case 2:
				steps = append(steps, execStep(fmt.Sprintf("upd%d", i),
					fmt.Sprintf("UPDATE t SET v = %d WHERE id >= %d", rng.Intn(100), rng.Intn(nextID+1))))
			case 3:
				body := []string{fmt.Sprintf("INSERT INTO t VALUES (%d, 1)", nextID)}
				nextID++
				steps = append(steps, txnStep(fmt.Sprintf("txn%d", i), body, rng.Intn(2) == 0))
			}
		}
		appends := countWorkloadAppends(t, steps)
		n := rng.Intn(appends)
		dir := t.TempDir()
		c := durableCluster(t, dir)
		c.curWAL().FailAfterRecords(n)
		acks := runSteps(t, c, steps)
		_ = c.Close()
		verifyRecovery(t, fmt.Sprintf("seed%d@%d", seed, n), dir, steps, acks)
	}
}

// TestReplaysLogsOfBothInsertPaths: a log whose insert records carry either
// value of the Direct byte — the bulk and trickle paths an engine with a
// write buffer logged — replays to the same rows, whatever the byte says:
// committed inserts visible, aborted and unfinished ones gone, and each
// committed insert its own container on every store it wrote to.
func TestReplaysLogsOfBothInsertPaths(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	sess(t, c, 0).MustExecute("CREATE TABLE t (id INTEGER, name VARCHAR) SEGMENTED BY HASH(id)")
	tbl, _ := c.Catalog().Table("t")
	schema, epoch := tbl.Def.Schema, c.LastEpoch()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	type write struct {
		direct bool
		ids    []int64
		end    wal.Type // RecCommit, RecAbort, or 0 for a transaction left open
	}
	writes := []write{
		{false, []int64{1, 2, 3}, wal.RecCommit},
		{true, []int64{4, 5, 6, 7}, wal.RecCommit},
		{false, []int64{8}, wal.RecAbort},
		{true, []int64{9, 10}, wal.RecAbort},
		{false, []int64{11}, 0},
		{true, []int64{12}, 0},
		{false, []int64{13, 14}, wal.RecCommit},
	}
	l, err := wal.Open(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]int64{} // commit epoch -> ids
	for i, w := range writes {
		rows := make([]types.Row, len(w.ids))
		for j, id := range w.ids {
			rows[j] = types.Row{types.IntValue(id), types.StringValue(fmt.Sprint("r", id))}
		}
		cols, err := storage.ColumnsFromRows(rows, schema)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := storage.AppendBatches(nil, schema, []*storage.Batch{{Cols: cols, Sel: storage.IdentitySel(len(rows))}})
		if err != nil {
			t.Fatal(err)
		}
		tag := storage.ProvisionalBase + 100 + uint64(i)
		if err := l.Append(wal.Record{Type: wal.RecInsert, Tag: tag, Table: "t", Direct: w.direct, Rows: payload}); err != nil {
			t.Fatal(err)
		}
		switch w.end {
		case wal.RecCommit:
			epoch++
			want[epoch] = w.ids
			err = l.LogCommit(tag, epoch)
		case wal.RecAbort:
			err = l.LogAbort(tag)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	c = durableCluster(t, dir)
	t.Cleanup(func() { c.Close() })
	var wantRows []string
	for e, es := range want {
		for _, id := range es {
			wantRows = append(wantRows, fmt.Sprintf("%d|r%d|@%d", id, id, e))
		}
	}
	var got []string
	tbl, _ = c.Catalog().Table("t")
	for _, st := range allStores(tbl) {
		seen := map[uint64]bool{}
		for _, cont := range st.Containers() {
			e := cont.StartEpoch()
			if _, ok := want[e]; !ok || seen[e] {
				t.Fatalf("a container at epoch %d (seen before on this store: %v); want one per committed insert %v", e, seen[e], want)
			}
			seen[e] = true
			for i := 0; i < cont.RowCount; i++ {
				r := cont.Row(i)
				got = append(got, fmt.Sprintf("%d|%s|@%d", r[0].I, r[1].S, e))
			}
		}
	}
	sort.Strings(wantRows)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(wantRows, " ") {
		t.Fatalf("replayed containers hold %v, want %v", got, wantRows)
	}
	if n := mustI(t, sess(t, c, 0).MustExecute("SELECT COUNT(*) FROM t")); n != 9 {
		t.Fatalf("%d rows visible after replay, want the 9 committed", n)
	}
}

// TestAtEpochDuringCheckpointKeepsPinnedRows: an AT EPOCH reader pinned
// before a committed delete sees the same rows before and after a checkpoint
// persists the deleting containers, and after it unpins and another
// checkpoint runs the latest count stays right.
func TestAtEpochDuringCheckpointKeepsPinnedRows(t *testing.T) {
	c := durableCluster(t, t.TempDir())
	t.Cleanup(func() { c.Close() })
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 50; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	pinned := c.LastEpoch()

	// A long-lived reader (a V2S transfer job holding a snapshot) pins its
	// epoch for the session, spanning multiple statements.
	reader := sess(t, c, 1)
	if err := reader.PinEpoch(pinned); err != nil {
		t.Fatal(err)
	}
	atPinned := fmt.Sprintf("AT EPOCH %d SELECT COUNT(*) FROM t", pinned)
	if n := mustI(t, reader.MustExecute(atPinned)); n != 50 {
		t.Fatalf("pre-checkpoint pinned count = %d", n)
	}

	s.MustExecute("DELETE FROM t WHERE id < 25") // commits after the pin
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The deleted rows were committed-deleted AFTER the pinned epoch; the
	// pinned reader still sees them.
	if n := mustI(t, reader.MustExecute(atPinned)); n != 50 {
		t.Fatalf("checkpoint lost rows out from under a pinned reader: count = %d, want 50", n)
	}
	if n := mustI(t, reader.MustExecute("SELECT COUNT(*) FROM t")); n != 25 {
		t.Fatalf("latest count = %d, want 25", n)
	}

	// Once the reader unpins, the latest count stays right across the next
	// checkpoint.
	reader.UnpinEpochs()
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := mustI(t, s.MustExecute("SELECT COUNT(*) FROM t")); n != 25 {
		t.Fatalf("post-unpin latest count = %d, want 25", n)
	}

	// PinEpoch validates against the current epoch.
	if err := reader.PinEpoch(c.LastEpoch() + 10); err == nil {
		t.Fatal("pinning a future epoch should fail")
	}
}

// TestDurableAtEpochAcrossCheckpoint: the pinned reader's rows must survive
// the checkpoint AND a restart must not resurrect the deleted rows at latest.
func TestDurableAtEpochAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 40; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	pinned := c.LastEpoch()

	reader := sess(t, c, 1)
	if err := reader.PinEpoch(pinned); err != nil {
		t.Fatal(err)
	}
	s.MustExecute("DELETE FROM t WHERE id >= 30")
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	atPinned := fmt.Sprintf("AT EPOCH %d SELECT COUNT(*) FROM t", pinned)
	if n := mustI(t, reader.MustExecute(atPinned)); n != 40 {
		t.Fatalf("checkpoint lost pinned rows: %d, want 40", n)
	}
	reader.Close()
	s.Close()
	c.Close()

	c2 := durableCluster(t, dir)
	defer c2.Close()
	s2 := sess(t, c2, 0)
	if n := mustI(t, s2.MustExecute("SELECT COUNT(*) FROM t")); n != 30 {
		t.Fatalf("restart resurrected deleted rows: %d, want 30", n)
	}
}

// reopenCounts opens a second cluster on dir while the first is still open —
// a crash, as far as the data directory can tell — and returns the counts the
// queries read from it.
func reopenCounts(t *testing.T, dir string, queries ...string) []int64 {
	t.Helper()
	c := durableCluster(t, dir)
	t.Cleanup(func() { c.Close() })
	s := sess(t, c, 0)
	out := make([]int64, len(queries))
	for i, q := range queries {
		out[i] = mustI(t, s.MustExecute(q))
	}
	return out
}

// TestCheckpointMovesPinnedDeletesIntoContainers: rows deleted while a reader
// is pinned before the delete stay in their containers with their marks, the
// checkpoint persists them so, and a crash afterwards still serves both the
// pinned and the latest count.
func TestCheckpointMovesPinnedDeletesIntoContainers(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	t.Cleanup(func() { c.Close() })
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 40; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	pinned := c.LastEpoch()
	reader := sess(t, c, 1)
	if err := reader.PinEpoch(pinned); err != nil {
		t.Fatal(err)
	}
	s.MustExecute("DELETE FROM t WHERE id >= 30")
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	atPinned := fmt.Sprintf("AT EPOCH %d SELECT COUNT(*) FROM t", pinned)
	if got := reopenCounts(t, dir, atPinned, "SELECT COUNT(*) FROM t"); got[0] != 40 || got[1] != 30 {
		t.Fatalf("after a crash: pinned count %d, latest %d; want 40 and 30", got[0], got[1])
	}
}

// TestCheckpointAcrossOpenDelete: a DELETE whose transaction is open across a
// checkpoint leaves its provisional marks inside the containers the
// checkpoint persists (as live rows: the carried WAL record re-applies them).
// Committed, the rows are gone after a crash; rolled back, they are all
// there — before and after a second checkpoint rewrites the marked
// containers.
func TestCheckpointAcrossOpenDelete(t *testing.T) {
	for _, final := range []string{"COMMIT", "ROLLBACK"} {
		t.Run(final, func(t *testing.T) {
			dir := t.TempDir()
			c := durableCluster(t, dir)
			t.Cleanup(func() { c.Close() })
			s := sess(t, c, 0)
			s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
			s.MustExecute("INSERT INTO t VALUES (1), (2), (3), (4), (5), (6)")
			s.MustExecute("BEGIN")
			if n := s.MustExecute("DELETE FROM t WHERE id <= 4").RowsAffected; n != 4 {
				t.Fatalf("DELETE affected %d rows, want 4", n)
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s.MustExecute(final)
			want := int64(2)
			if final == "ROLLBACK" {
				want = 6
			}
			if n := mustI(t, s.MustExecute("SELECT COUNT(*) FROM t")); n != want {
				t.Fatalf("live count after %s = %d, want %d", final, n, want)
			}
			if got := reopenCounts(t, dir, "SELECT COUNT(*) FROM t"); got[0] != want {
				t.Fatalf("after %s and a crash: %d rows, want %d", final, got[0], want)
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if got := reopenCounts(t, dir, "SELECT COUNT(*) FROM t"); got[0] != want {
				t.Fatalf("after %s, a checkpoint and a crash: %d rows, want %d", final, got[0], want)
			}
		})
	}
}

// TestFailedCheckpointKeepsLaterCommits: a checkpoint that cannot write its
// manifest leaves the current log live, so commits acknowledged after it
// survive a crash, and the next checkpoint succeeds.
func TestFailedCheckpointKeepsLaterCommits(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	t.Cleanup(func() { c.Close() })
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO t VALUES (1)")
	blocker := filepath.Join(dir, manifestName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with its manifest unwritable")
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-2.log")); !os.IsNotExist(err) {
		t.Fatalf("failed checkpoint left its successor log behind: %v", err)
	}
	s.MustExecute("INSERT INTO t VALUES (2)")
	s.MustExecute("INSERT INTO t VALUES (3)")
	if got := reopenCounts(t, dir, "SELECT COUNT(*) FROM t"); got[0] != 3 {
		t.Fatalf("after a failed checkpoint and a crash: %d rows, want 3", got[0])
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after a failed one: %v", err)
	}
	s.MustExecute("INSERT INTO t VALUES (4)")
	if got := reopenCounts(t, dir, "SELECT COUNT(*) FROM t"); got[0] != 4 {
		t.Fatalf("after the next checkpoint and a crash: %d rows, want 4", got[0])
	}
}

// TestFailedCheckpointEndsItsSpan: a checkpoint that fails still closes its
// span, carrying the error. The automatic checkpoint discards its error, so
// the span is the failure's only record.
func TestFailedCheckpointEndsItsSpan(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	t.Cleanup(func() { c.Close() })
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO t VALUES (1)")
	if err := os.Mkdir(filepath.Join(dir, manifestName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with its manifest unwritable")
	}
	var failed []obs.Span
	for _, sp := range c.Obs().Spans() {
		if sp.Name == "checkpoint" {
			failed = append(failed, sp)
		}
	}
	if len(failed) != 1 || failed[0].Err == "" {
		t.Fatalf("checkpoint spans after a failed checkpoint: %+v, want one with its error", failed)
	}
}

// TestDurableRefusesManifestOfAnotherVersion: a data directory whose manifest
// is of another format version is refused by name, not read as this one.
func TestDurableRefusesManifestOfAnotherVersion(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO t VALUES (1)")
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, manifestVersion + 1} {
		m["version"] = v
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c2, err := NewCluster(Config{Nodes: 2, DataDir: dir})
		if err == nil {
			c2.Close()
			t.Fatalf("a version %d manifest was opened", v)
		}
		for _, want := range []string{fmt.Sprintf("version %d", v), fmt.Sprintf("version %d", manifestVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("version %d manifest refused with %q, want it to name %q", v, err, want)
			}
		}
	}
}
