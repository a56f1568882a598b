package vertica

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// dcFootprint is what the data collector has cost so far, in counts.
type dcFootprint struct {
	records map[string]int64 // per component
	bytes   int64            // the spool's own accounting of its segments
	onDisk  int64            // the segment files as the filesystem sees them
	syncs   int              // fsyncs of any segment
	appends int64            // the dc.appends counter
}

func takeDCFootprint(t *testing.T, c *Cluster, dir string) dcFootprint {
	t.Helper()
	fp := dcFootprint{records: map[string]int64{}, syncs: c.dcs.Syncs(), appends: c.mon.Counter("dc.appends")}
	for _, st := range c.dcs.Stats() {
		fp.records[st.Component] = st.Records
		fp.bytes += st.Bytes
	}
	err := filepath.Walk(filepath.Join(dir, "dc"), func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".dc") {
			fp.onDisk += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestDCCostPerStatement bounds what the durable data collector costs a
// statement, in counts that cannot flake: a SELECT over a user table appends
// exactly two records (its query_requests row and its query_plans row), each
// one frame handed to the file descriptor before the statement returns and
// never fsynced; a system-table read appends nothing; and spooling adds a
// pinned number of allocations and bytes to the statement. It replaces a
// ratio of two wall clocks (scanbench -obs -gate, ≤ 1.05×, which read
// 0.99–1.20× on unchanged code).
func TestDCCostPerStatement(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	defer c.Close()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.MustExecute("CREATE TABLE dccost (id INTEGER, grp INTEGER, val FLOAT) SEGMENTED BY HASH(id)")
	var csv strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&csv, "%d,%d,%d.5\n", i, i%100, i%1000)
	}
	if _, err := s.CopyFrom("COPY dccost FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id, val FROM dccost WHERE grp = 7"
	s.MustExecute(q) // warm: the first run of a shape may raise one-off events

	before := takeDCFootprint(t, c, dir)
	walSyncs := c.mon.Counter("wal.fsyncs")
	s.MustExecute(q)
	after := takeDCFootprint(t, c, dir)

	var frames int64
	for comp, n := range after.records {
		grew := n - before.records[comp]
		if selectRecords := comp == dcQueryRequests || comp == dcQueryPlans; selectRecords != (grew == 1) || grew > 1 {
			t.Errorf("a SELECT appended %d %s records, want one query_requests and one query_plans and nothing else", grew, comp)
		}
		if grew == 1 {
			recs, err := c.dcs.Records(comp)
			if err != nil || int64(len(recs)) != n {
				t.Fatalf("%s: %d of %d appended records read back from the segments (%v)", comp, len(recs), n, err)
			}
			// Frame header, timestamp, payload.
			frames += 8 + 8 + int64(len(recs[len(recs)-1].Payload))
		}
	}
	if got := after.appends - before.appends; got != 2 {
		t.Errorf("dc.appends grew by %d, want 2", got)
	}
	if got := after.bytes - before.bytes; got != frames {
		t.Errorf("the spool grew by %d bytes, want the two records' frames = %d", got, frames)
	}
	// Written through: the file holds the frame once the statement returns,
	// with no flush or close in between.
	if got := after.onDisk - before.onDisk; got != frames {
		t.Errorf("the segment files grew by %d bytes, want %d", got, frames)
	}
	if after.syncs != before.syncs {
		t.Errorf("a SELECT fsynced the data collector %d times, want none", after.syncs-before.syncs)
	}
	if got := c.mon.Counter("wal.fsyncs") - walSyncs; got != 0 {
		t.Errorf("a SELECT fsynced the WAL %d times, want none", got)
	}
	if n := c.mon.Counter("dc.errors"); n != 0 {
		t.Errorf("dc.errors = %d", n)
	}

	// Monitoring reads leave no trace in the history they read.
	for _, sys := range []string{
		"SELECT * FROM v_monitor.query_requests",
		"SELECT component, record_count FROM v_monitor.data_collector",
		"SELECT request FROM v_monitor.dc_query_requests",
		"SELECT * FROM v_catalog.tables",
	} {
		s.MustExecute(sys)
	}
	if got := takeDCFootprint(t, c, dir); !reflect.DeepEqual(got, after) {
		t.Errorf("system-table reads changed the data collector: %+v -> %+v", after, got)
	}

	// What spooling adds to the statement: the same SELECT with the
	// collector's taps and the spool detached, and attached. Measured with
	// records written plain by storage.AppendBatches: 109 allocations and
	// 8.0 KB per statement (111 and 8.6 KB under -race); the bound is that
	// plus 25 %.
	const maxAllocs, maxBytes = 137, 10 << 10
	perStatement := func() (allocs, bytes float64) {
		const runs = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			s.MustExecute(q)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	withAllocs, withBytes := perStatement()
	spool := c.dcs
	c.dcs = nil
	c.mon.SetTap(nil, nil)
	bareAllocs, bareBytes := perStatement()
	c.dcs = spool
	c.mon.SetTap(c.dcSpan, c.dcEvent)
	if a, b := withAllocs-bareAllocs, withBytes-bareBytes; a > maxAllocs || b > maxBytes {
		t.Errorf("spooling adds %.0f allocations and %.0f bytes per statement, bound %d and %d", a, b, maxAllocs, maxBytes)
	} else if a < 2 {
		t.Errorf("spooling adds %.1f allocations per statement: the detached run was not detached", a)
	}
}
