package core

import (
	"errors"
	"sync"
	"testing"

	"vsfabric/internal/client"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
)

// pulledSource is testDF's data as a source that streams each partition in
// chunks of 16 rows, logs what every task attempt pulls, and fails an attempt
// once it has yielded failAfter(p, attempt) rows (never, for a negative
// count).
type pulledSource struct {
	mu     sync.Mutex
	pulled map[[2]int][]int64 // {partition, attempt} -> ids yielded, in order
}

var errSourceLost = errors.New("source lost mid-stream")

func (s *pulledSource) frame(h *harness, n, parts int, failAfter func(p, attempt int) int) *spark.DataFrame {
	s.pulled = make(map[[2]int][]int64)
	schema := types.NewSchema(
		types.Column{Name: "id", T: types.Int64},
		types.Column{Name: "val", T: types.Float64},
	)
	rdd := spark.NewChunkedRDD(h.sc, parts, func(tc *spark.TaskContext, p int, _ bool, yield func([]types.Row) bool) error {
		key, limit := [2]int{p, tc.Attempt}, failAfter(p, tc.Attempt)
		lo, hi := n*p/parts, n*(p+1)/parts
		for at := lo; at < hi; at += 16 {
			var chunk []types.Row
			for i := at; i < min(at+16, hi); i++ {
				if len(s.ids(key)) == limit {
					return errSourceLost
				}
				chunk = append(chunk, types.Row{types.IntValue(int64(i)), types.FloatValue(float64(i) + 0.25)})
				s.mu.Lock()
				s.pulled[key] = append(s.pulled[key], int64(i))
				s.mu.Unlock()
			}
			if !yield(chunk) {
				return nil
			}
		}
		return nil
	})
	return spark.NewDataFrame(h.sc, schema, rdd)
}

func (s *pulledSource) ids(key [2]int) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pulled[key]
}

// TestS2VSourceFailureRestreamsFromRowZero: a partition whose source fails
// after 40 of its 150 rows aborts its COPY; the retry streams the partition
// again from its first row, and the target holds every row exactly once.
func TestS2VSourceFailureRestreamsFromRowZero(t *testing.T) {
	h := newHarness(t, 4, 2, nil)
	var src pulledSource
	df := src.frame(h, 600, 4, func(p, attempt int) int {
		if p == 2 && attempt == 0 {
			return 40
		}
		return -1
	})
	if err := saveDF(t, h, df, spark.SaveOverwrite, "target", 4, map[string]string{"jobname": "restream"}); err != nil {
		t.Fatal(err)
	}
	if got := h.count(t, "target"); got != 600 {
		t.Fatalf("target has %d rows, want 600", got)
	}
	if got, want := h.sumCol(t, "target", "val"), float64(599*600)/2+0.25*600; got != want {
		t.Errorf("sum %v, want %v (duplicate or partial load)", got, want)
	}
	failed, retry := src.ids([2]int{2, 0}), src.ids([2]int{2, 1})
	if len(failed) != 40 || len(retry) != 150 || retry[0] != 300 || retry[149] != 449 {
		t.Errorf("partition 2 pulled %d rows, then %d from id %v; want 40, then 150 from 300", len(failed), len(retry), retry)
	}
}

// TestS2VSourceFailingEveryAttemptStagesNothing: a source that fails after
// 30 rows on every attempt ends each of its COPYs aborted, the job fails, the
// target keeps its rows, and the staging table is gone.
func TestS2VSourceFailingEveryAttemptStagesNothing(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	capture := &copyCapture{Connector: client.InProc(h.cluster)}
	NewDefaultSource(capture).Register()
	h.sql(t, "CREATE TABLE target (id INTEGER, val FLOAT)", "INSERT INTO target VALUES (7, 7.0)")
	var src pulledSource
	df := src.frame(h, 200, 2, func(p, _ int) int {
		if p == 1 {
			return 30
		}
		return -1
	})
	err := saveDF(t, h, df, spark.SaveOverwrite, "target", 2, map[string]string{"jobname": "lost_source"})
	if !errors.Is(err, errSourceLost) {
		t.Fatalf("save = %v, want the source's error", err)
	}
	if got := h.count(t, "target"); got != 1 {
		t.Errorf("failed save changed the target: %d rows, want 1", got)
	}
	aborted := 0
	for _, err := range capture.errs {
		if err != nil {
			aborted++
		}
	}
	if aborted != 4 { // partition 1's MaxTaskFailures attempts
		t.Errorf("%d of %d COPYs ended in error, want 4 (every attempt of partition 1)", aborted, len(capture.errs))
	}
	for a := 0; a < 4; a++ {
		if n := len(src.ids([2]int{1, a})); n != 30 {
			t.Errorf("attempt %d pulled %d rows, want 30", a, n)
		}
	}
	s, err := h.cluster.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Execute("SELECT COUNT(*) FROM s2v_stage_lost_source"); err == nil {
		t.Error("staging table survives the failed job")
	}
	res, err := s.Execute("SELECT status FROM s2v_job_status WHERE job_name = 'lost_source'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "FAILED" {
		t.Errorf("job status = %v, %v; want FAILED", res, err)
	}
}

// TestS2VDoneTaskRetryPullsNoRow: an attempt that dies right after committing
// its partition leaves a retry that finds the partition saved and computes
// none of it.
func TestS2VDoneTaskRetryPullsNoRow(t *testing.T) {
	inj := spark.NewFailureInjector()
	inj.FailTaskAt(1, 0, "s2v.phase1.after_commit", 1)
	h := newHarness(t, 4, 2, inj)
	var src pulledSource
	df := src.frame(h, 400, 4, func(int, int) int { return -1 })
	if err := saveDF(t, h, df, spark.SaveOverwrite, "target", 4, map[string]string{"jobname": "done_retry"}); err != nil {
		t.Fatal(err)
	}
	if got := h.count(t, "target"); got != 400 {
		t.Fatalf("target has %d rows, want 400", got)
	}
	if first, retry := src.ids([2]int{1, 0}), src.ids([2]int{1, 1}); len(first) != 100 || len(retry) != 0 {
		t.Errorf("partition 1 pulled %d rows, then %d on its retry; want 100, then 0", len(first), len(retry))
	}
}
