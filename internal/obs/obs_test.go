package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestNilSpanIsNoOp(t *testing.T) {
	sp := Start(nil, "execute", "node")
	if sp != nil {
		t.Fatalf("Start(nil observer) = %v, want nil", sp)
	}
	// All methods must be callable on nil.
	sp.SetPeer("p")
	sp.SetDetail("d")
	sp.AddRows(1)
	sp.AddRejected(1)
	sp.AddBytes(1)
	sp.End(errors.New("boom"))
}

func TestDisabledCollectorRefusesSpans(t *testing.T) {
	c := NewCollector()
	c.SetEnabled(false)
	if sp := Start(c, "execute", "n"); sp != nil {
		t.Fatalf("Start on disabled collector = %v, want nil", sp)
	}
	c.Event(Event{Name: "retry"})
	if got := c.Counter("retry"); got != 0 {
		t.Fatalf("disabled collector counted %d events, want 0", got)
	}
	c.SetEnabled(true)
	if sp := Start(c, "execute", "n"); sp == nil {
		t.Fatal("Start on re-enabled collector returned nil")
	}
}

func TestSpanLifecycle(t *testing.T) {
	c := NewCollector()
	sp := Start(c, "copy", "v-node-1")
	sp.SetPeer("spark-exec-0")
	sp.SetDetail("lineitem")
	sp.AddRows(100)
	sp.AddRejected(3)
	sp.AddBytes(4096)
	sp.End(nil)

	sp2 := Start(c, "copy", "v-node-2")
	sp2.End(errors.New("severed"))

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	got := spans[0]
	if got.Name != "copy" || got.Node != "v-node-1" || got.Peer != "spark-exec-0" ||
		got.Detail != "lineitem" || got.Rows != 100 || got.Rejected != 3 || got.Bytes != 4096 {
		t.Fatalf("span fields wrong: %+v", got)
	}
	if !got.OK() || got.ID == 0 {
		t.Fatalf("first span should be OK with nonzero ID: %+v", got)
	}
	if spans[1].Err != "severed" || spans[1].OK() {
		t.Fatalf("second span should carry error: %+v", spans[1])
	}
	if spans[1].ID <= spans[0].ID {
		t.Fatalf("IDs not increasing: %d then %d", spans[0].ID, spans[1].ID)
	}
	if c.Counter("span.copy") != 2 {
		t.Fatalf("span.copy counter = %d, want 2", c.Counter("span.copy"))
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	c := NewCollectorCap(4)
	for i := 0; i < 10; i++ {
		Start(c, fmt.Sprintf("s%d", i), "").End(nil)
	}
	spans := c.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want ring cap 4", len(spans))
	}
	for i, sp := range spans {
		want := fmt.Sprintf("s%d", 6+i)
		if sp.Name != want {
			t.Fatalf("span[%d] = %q, want %q (oldest-first order)", i, sp.Name, want)
		}
	}
}

func TestContextHelpers(t *testing.T) {
	if Peer(nil) != "" { //nolint:staticcheck // nil ctx tolerance is the contract
		t.Fatal("nil context should yield zero values")
	}
	ctx := context.Background()
	if Peer(ctx) != "" {
		t.Fatal("bare context should yield zero values")
	}
	ctx = WithPeer(ctx, "spark-exec-3")
	if Peer(ctx) != "spark-exec-3" {
		t.Fatal("Peer did not round-trip")
	}
	if WithPeer(ctx, "") != ctx {
		t.Fatal("WithPeer(\"\") should return ctx unchanged")
	}
}

func TestCollectorConcurrency(t *testing.T) {
	c := NewCollectorCap(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := Start(c, "execute", fmt.Sprintf("n%d", g))
				sp.AddRows(1)
				sp.End(nil)
				c.Event(Event{Name: "retry"})
				if i%50 == 0 {
					_ = c.Spans()
					_ = c.Counters()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Counter("span.execute"); got != 1600 {
		t.Fatalf("span.execute counter = %d, want 1600", got)
	}
	if got := c.Counter("retry"); got != 1600 {
		t.Fatalf("retry counter = %d, want 1600", got)
	}
	if got := len(c.Spans()); got != 128 {
		t.Fatalf("ring retained %d spans, want cap 128", got)
	}
	c.Reset()
	if len(c.Spans()) != 0 || len(c.Events()) != 0 || c.Counter("retry") != 0 {
		t.Fatal("Reset did not clear state")
	}
}
