package runner

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/workload"
)

// pairSpecs returns testSpec's configuration as an application Spec and
// its sequential sibling.
func pairSpecs(t *testing.T, seed int64) (app, seq Spec) {
	t.Helper()
	app = testSpec(t, seed)
	app.Kind = core.Application
	seq = app
	seq.Kind = core.Sequential
	return app, seq
}

// standalone runs sp alone on a fresh pool: the reference a paired or
// fallen-back application result must equal.
func standalone(t *testing.T, sp Spec) Result {
	t.Helper()
	res, _ := New(1).Run(context.Background(), []Spec{sp})
	return res[0]
}

// sameResult requires two results of one Spec to agree on outcome and
// error.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Outcome.Perf, want.Outcome.Perf) || got.Outcome.Stats != want.Outcome.Stats {
		t.Errorf("%s: outcome %+v %+v, standalone %+v %+v", label,
			got.Outcome.Perf, got.Outcome.Stats, want.Outcome.Perf, want.Outcome.Stats)
	}
	if (got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) {
		t.Errorf("%s: error %v, standalone %v", label, got.Err, want.Err)
	}
}

// TestPairedAppHoldsNoWorker: on a one-job pool an application Spec
// submitted before its sequential sibling is answered by the sibling's
// run — one simulation, no deadlock — and equals a standalone run. A
// duplicate of the application Spec in the batch is served from the
// cache.
func TestPairedAppHoldsNoWorker(t *testing.T) {
	app, seq := pairSpecs(t, 11)
	p := &Pool{Jobs: 1}
	res, err := p.Run(context.Background(), []Spec{app, seq, app})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Submitted != 3 || st.Simulated != 1 || st.Cached != 2 || st.Coalesced != 1 {
		t.Fatalf("stats %+v, want 3 submitted, 1 simulated, 2 cached, 1 coalesced", st)
	}
	if r := res[0]; !r.Cached || !r.Coalesced || r.SharedWith != seq.Label() {
		t.Fatalf("paired app: cached=%v coalesced=%v shared with %q, want %q",
			r.Cached, r.Coalesced, r.SharedWith, seq.Label())
	}
	if r := res[2]; !r.Cached || r.SharedWith != "" {
		t.Fatalf("duplicate app: cached=%v shared with %q", r.Cached, r.SharedWith)
	}
	if res[1].Cached || res[1].Outcome.App != nil {
		t.Fatalf("seq result: cached=%v, carries App %v", res[1].Cached, res[1].Outcome.App != nil)
	}
	want := standalone(t, app)
	sameResult(t, "paired app", res[0], want)
	sameResult(t, "duplicate app", res[2], want)
	if res[0].Outcome.Kind != core.Application {
		t.Fatalf("paired app outcome kind %v", res[0].Outcome.Kind)
	}
	// The answered entry completed through the normal path: a later
	// batch hits it.
	again, _ := p.Run(context.Background(), []Spec{app})
	if !again[0].Cached || again[0].Coalesced {
		t.Fatalf("resubmitted app: cached=%v coalesced=%v, want a plain hit", again[0].Cached, again[0].Coalesced)
	}
}

// TestPairingFallbacks: each case leaves the application Spec to
// simulate on its own, with the result a standalone run gives.
func TestPairingFallbacks(t *testing.T) {
	cases := map[string]struct {
		pool   func() *Pool
		mutate func(*Spec)
	}{
		"fleet": {mutate: func(sp *Spec) {
			sp.Workload.Arrivals = &workload.Arrivals{RatePerSec: 200}
			sp.MaxSimMS = 5_000
			sp.Cluster = cluster.Config{Instances: 2}
		}},
		"metrics": {pool: func() *Pool { return &Pool{Jobs: 1, MetricsIntervalMS: 1000} }},
		"compact": {mutate: func(sp *Spec) {
			sp.Workload.Compact = &workload.Compaction{Policy: workload.CompactTiered}
		}},
		"fills during init": {mutate: func(sp *Spec) {
			sp.Workload.Types[0].Files *= 200
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			app, _ := pairSpecs(t, 12)
			if c.mutate != nil {
				c.mutate(&app)
			}
			seq := app
			seq.Kind = core.Sequential
			p := &Pool{Jobs: 1}
			if c.pool != nil {
				p = c.pool()
			}
			res, _ := p.Run(context.Background(), []Spec{app, seq})
			if r := res[0]; r.Cached || r.SharedWith != "" {
				t.Fatalf("app: cached=%v shared with %q, want its own simulation", r.Cached, r.SharedWith)
			}
			if st := p.Stats(); st.Simulated != 2 {
				t.Fatalf("simulated %d runs, want 2", st.Simulated)
			}
			ref := New(1)
			ref.MetricsIntervalMS = p.MetricsIntervalMS
			want, _ := ref.Run(context.Background(), []Spec{app})
			sameResult(t, name, res[0], want[0])
		})
	}
}

// TestPairedSeqCanceledCachesNeither: a sequential run canceled inside
// its application phase carries no application outcome; neither Spec's
// result is cached, nor is any reservation left behind.
func TestPairedSeqCanceledCachesNeither(t *testing.T) {
	app, seq := pairSpecs(t, 13)
	for _, sp := range []*Spec{&app, &seq} {
		sp.StableWindows = 1 << 30 // never stabilizes
		sp.MaxSimMS = 1e12
	}
	p := &Pool{Jobs: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := p.Run(ctx, []Spec{app, seq})
	if err == nil {
		t.Fatal("canceled batch reported no error")
	}
	for i, r := range res {
		if !errors.Is(r.Err, core.ErrCanceled) && !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("result %d: err %v, want a cancellation", i, r.Err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.cache) != 0 {
		t.Fatalf("%d cache entries survived the cancellation", len(p.cache))
	}
}

// TestPairedAppFallsBackWhenSeqCached: a sequential sibling already in
// the cache runs no application phase, so the batch does not pair and
// the application Spec simulates on its own.
func TestPairedAppFallsBackWhenSeqCached(t *testing.T) {
	app, seq := pairSpecs(t, 14)
	p := &Pool{Jobs: 2}
	if _, err := p.Run(context.Background(), []Spec{seq}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), []Spec{app, seq})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Cached || res[0].SharedWith != "" || !res[1].Cached {
		t.Fatalf("app cached=%v shared with %q, seq cached=%v", res[0].Cached, res[0].SharedWith, res[1].Cached)
	}
	sameResult(t, "app", res[0], standalone(t, app))
}

// TestPairedAppWritesThrough: an answered application result is stored
// like a simulated one, so a restarted pool serves it from disk.
func TestPairedAppWritesThrough(t *testing.T) {
	dir := t.TempDir()
	app, seq := pairSpecs(t, 15)
	first := &Pool{Jobs: 1, Store: openStore(t, dir)}
	res, err := first.Run(context.Background(), []Spec{app, seq})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].SharedWith == "" {
		t.Fatal("app was not answered by its sequential sibling")
	}
	first.Store.Close()

	second := &Pool{Jobs: 1, Store: openStore(t, dir)}
	again, err := second.Run(context.Background(), []Spec{app})
	if err != nil {
		t.Fatal(err)
	}
	if !again[0].DiskHit {
		t.Fatal("restarted pool re-simulated the answered app result")
	}
	sameResult(t, "disk-served app", again[0], res[0])
}

// TestPairingConcurrentBatches: batches racing over one pool's pairing
// reservations all complete with the standalone results (run it under
// -race).
func TestPairingConcurrentBatches(t *testing.T) {
	app, seq := pairSpecs(t, 16)
	want := standalone(t, app)
	p := &Pool{Jobs: 2}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(context.Background(), []Spec{app, seq, app})
			if err != nil {
				t.Error(err)
				return
			}
			for _, r := range []Result{res[0], res[2]} {
				if !reflect.DeepEqual(r.Outcome.Perf, want.Outcome.Perf) || r.Outcome.Stats != want.Outcome.Stats {
					t.Errorf("app result %+v differs from standalone %+v", r.Outcome.Perf, want.Outcome.Perf)
				}
			}
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.Submitted != 12 || st.Failed != 0 {
		t.Fatalf("stats %+v, want 12 submitted and none failed", st)
	}
}
