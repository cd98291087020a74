package coord

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"cosmos/internal/runner"
)

func serveCoordinator(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestWorker(t *testing.T, addr, name string, mut func(*WorkerConfig)) *Worker {
	t.Helper()
	cfg := WorkerConfig{
		Addr:            addr,
		Name:            name,
		Concurrency:     2,
		PollInterval:    10 * time.Millisecond,
		ReconnectBudget: 2 * time.Second,
		Orchestrator:    runner.New(runner.Options{Workers: 2}),
	}
	if mut != nil {
		mut(&cfg)
	}
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkerExecutesCampaign: the real end-to-end loop over HTTP — the
// worker simulates leased cells and the coordinator's Execute returns
// results identical to a local run of the same spec.
func TestWorkerExecutesCampaign(t *testing.T) {
	c, st := newTestCoordinator(t, nil)
	srv := serveCoordinator(t, c)
	w := newTestWorker(t, srv.URL, "w1", nil)

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(wctx) }()

	specs := []runner.Spec{testSpec(10), testSpec(11), testSpec(12)}
	for _, sp := range specs {
		r, err := c.Execute(context.Background(), sp.Key(), sp.DisplayLabel(), sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check against a plain local simulation.
		local, err := runner.New(runner.Options{Workers: 1}).Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, local) {
			t.Fatalf("distributed result diverges from local for %s", sp.DisplayLabel())
		}
		if _, ok := st.Get(context.Background(), sp.Key()); !ok {
			t.Fatalf("completed cell %s not in store", sp.Key())
		}
	}
	if ready, _ := w.Ready(); !ready {
		t.Fatal("worker never became ready")
	}

	// Campaign over: the worker drains out on the 410.
	c.Close()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not drain after coordinator close")
	}
	executed, uploaded, _, _, _ := w.Stats()
	if executed != 3 || uploaded != 3 {
		t.Fatalf("worker stats: executed=%d uploaded=%d, want 3/3", executed, uploaded)
	}
}

// TestWorkerDrainOnCancel: SIGTERM (context cancel) ends Run with nil — a
// graceful drain, not an error.
func TestWorkerDrainOnCancel(t *testing.T) {
	c, _ := newTestCoordinator(t, nil)
	srv := serveCoordinator(t, c)
	w := newTestWorker(t, srv.URL, "w1", nil)

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(ctx) }()

	// Let it poll a few times, then drain.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("drain returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not drain on cancel")
	}
}

// TestWorkerReleasesGrantOnDrain: a drain that lands after the coordinator
// grants a lease, but before the worker has the response, must still hand
// the lease back rather than strand the cell until its TTL expires.
func TestWorkerReleasesGrantOnDrain(t *testing.T) {
	c, _ := newTestCoordinator(t, newFakeClock())
	mux := http.NewServeMux()
	c.Mount(mux)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, r)
		if r.URL.Path == "/coord/lease" && rec.Code == http.StatusOK {
			once.Do(func() {
				cancel()
				// The response is still in flight when the drain lands.
				time.Sleep(20 * time.Millisecond)
			})
		}
		for k, v := range rec.Header() {
			rw.Header()[k] = v
		}
		rw.WriteHeader(rec.Code)
		rw.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)

	w := newTestWorker(t, srv.URL, "w1", func(cfg *WorkerConfig) { cfg.Concurrency = 1 })
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(ctx) }()

	spec := testSpec(14)
	spec.Accesses = 5_000_000
	execCtx, execCancel := context.WithCancel(context.Background())
	defer execCancel()
	go c.Execute(execCtx, spec.Key(), "long", spec, nil)

	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}
	// The fake clock never advances, so only a release can re-queue the cell.
	deadline := time.Now().Add(3 * time.Second)
	for s := c.Status(); s.Pending != 1 || s.Leased != 0; s = c.Status() {
		if time.Now().After(deadline) {
			t.Fatalf("status = %+v, want the granted lease released", s)
		}
		time.Sleep(time.Millisecond)
	}
	if s := c.Status(); s.Released != 1 || s.Expired != 0 {
		t.Fatalf("status = %+v, want 1 release and no expiries", s)
	}
}

// TestWorkerLostCoordinator: a coordinator that never answers exhausts the
// reconnect budget and Run fails with ErrLostCoordinator.
func TestWorkerLostCoordinator(t *testing.T) {
	// A listener that is immediately closed: every dial fails fast.
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := srv.URL
	srv.Close()

	w := newTestWorker(t, addr, "w1", func(cfg *WorkerConfig) {
		cfg.ReconnectBudget = 300 * time.Millisecond
	})
	err := w.Run(context.Background())
	if !errors.Is(err, ErrLostCoordinator) {
		t.Fatalf("err = %v, want ErrLostCoordinator", err)
	}
}

// TestWorkerReleasesOnDrain: cancelling mid-execution hands the lease back
// so the cell re-queues immediately instead of waiting out the TTL.
func TestWorkerReleasesOnDrain(t *testing.T) {
	clock := newFakeClock()
	c, _ := newTestCoordinator(t, clock)
	srv := serveCoordinator(t, c)
	// A long cell, so cancel lands mid-simulation.
	spec := testSpec(13)
	spec.Accesses = 5_000_000

	w := newTestWorker(t, srv.URL, "w1", nil)
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(ctx) }()

	execCtx, execCancel := context.WithCancel(context.Background())
	defer execCancel()
	go c.Execute(execCtx, spec.Key(), "long", spec, nil)

	// Wait until the cell is actually leased, then drain the worker.
	waitFor(t, func() bool { return c.Status().Leased == 1 })
	cancel()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}
	// The lease came back without any clock advance (no TTL expiry). The
	// other slot's lease request may have been in flight when the drain
	// began and been granted the released cell; it must hand that grant
	// back too, so every grant ends in a release.
	waitFor(t, func() bool {
		s := c.Status()
		return s.Pending == 1 && s.Leased == 0
	})
	if s := c.Status(); s.Released == 0 || s.Released != s.Granted || s.Expired != 0 {
		t.Fatalf("status = %+v, want every grant released and no expiries", s)
	}
}
