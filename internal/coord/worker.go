package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cosmos/internal/runner"
	"cosmos/internal/sim"
)

// ErrLostCoordinator reports a worker that could not reach its coordinator
// for longer than the reconnect budget. cosmos-bench maps it to exit code 3
// so supervisors can tell "coordinator died" from "campaign failed".
var ErrLostCoordinator = errors.New("coord: lost coordinator")

// errFenced marks a cell abandoned because the worker could not keep its
// lease alive: the coordinator has (or soon will have) re-leased it, so the
// worker neither uploads nor releases — it just moves on.
var errFenced = errors.New("coord: lease fenced")

// WorkerConfig parameterises a Worker.
type WorkerConfig struct {
	// Addr is the coordinator's base URL (e.g. "http://127.0.0.1:9090").
	// Required.
	Addr string
	// Name identifies this worker in leases, journal entries and /runs.
	// Required.
	Name string
	// Concurrency is how many cells run at once; 1 when zero or less.
	Concurrency int
	// Client lets tests inject chaos transports; http.DefaultClient-alike
	// with a sane timeout when nil.
	Client *http.Client
	// Logger defaults to slog.Default().
	Logger *slog.Logger
	// PollInterval is the sleep between empty lease polls (default 250ms,
	// jittered ±50%).
	PollInterval time.Duration
	// ReconnectBudget bounds how long the worker tolerates an unreachable
	// coordinator before giving up with ErrLostCoordinator (default 60s).
	ReconnectBudget time.Duration
	// Orchestrator executes leased cells; a store-less orchestrator with
	// Workers=Concurrency when nil. (The coordinator owns persistence —
	// workers never write the results dir.)
	Orchestrator *runner.Orchestrator
}

// Worker pulls leases from a coordinator, executes them through the
// ordinary runner path, and streams results back with retry. It degrades
// gracefully: an unreachable coordinator is retried with jittered backoff
// up to the reconnect budget; a cancelled context (SIGTERM) releases held
// leases and drains.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	log    *slog.Logger
	orch   *runner.Orchestrator

	ready atomic.Bool // first successful coordinator contact

	// lastContact is the wall time of the last successful HTTP exchange
	// (any status counts — only transport failures mean "unreachable").
	lastContact atomic.Int64

	executed  atomic.Uint64
	uploaded  atomic.Uint64
	dups      atomic.Uint64
	fenced    atomic.Uint64
	releasedN atomic.Uint64
}

// NewWorker builds a worker for cfg.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Addr == "" {
		return nil, errors.New("coord: WorkerConfig.Addr is required")
	}
	if cfg.Name == "" {
		return nil, errors.New("coord: WorkerConfig.Name is required")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.ReconnectBudget <= 0 {
		cfg.ReconnectBudget = 60 * time.Second
	}
	orch := cfg.Orchestrator
	if orch == nil {
		orch = runner.New(runner.Options{Workers: cfg.Concurrency})
	}
	w := &Worker{cfg: cfg, client: cfg.Client, log: cfg.Logger, orch: orch}
	w.lastContact.Store(time.Now().UnixNano())
	return w, nil
}

// Ready reports whether the worker has successfully contacted its
// coordinator at least once (the /readyz condition in -join mode).
func (w *Worker) Ready() (bool, string) {
	if !w.ready.Load() {
		return false, "not yet joined to coordinator"
	}
	return true, ""
}

// Stats reports the worker's cumulative cell accounting.
func (w *Worker) Stats() (executed, uploaded, dups, fenced, released uint64) {
	return w.executed.Load(), w.uploaded.Load(), w.dups.Load(), w.fenced.Load(), w.releasedN.Load()
}

// Run joins the campaign and processes cells until the coordinator reports
// the campaign over (nil), the context is cancelled (nil — a drain is a
// graceful exit), or the coordinator stays unreachable past the reconnect
// budget (ErrLostCoordinator).
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, w.cfg.Concurrency)
	for i := 0; i < w.cfg.Concurrency; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			errs[slot] = w.loop(ctx)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loop is one lease-execute-upload slot.
func (w *Worker) loop(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return nil // drain: nothing held at the top of the loop
		}
		grant, state, err := w.lease(ctx)
		switch state {
		case leaseGone:
			return nil // campaign over
		case leaseEmpty:
			if err := w.sleep(ctx, jitter(w.cfg.PollInterval)); err != nil {
				return nil
			}
			continue
		case leaseErr:
			if err != nil {
				return err // reconnect budget exhausted
			}
			if err := w.sleep(ctx, jitter(w.cfg.PollInterval)); err != nil {
				return nil
			}
			continue
		}
		if err := w.process(ctx, grant); err != nil {
			return err
		}
	}
}

type leaseState int

const (
	leaseGranted leaseState = iota
	leaseEmpty
	leaseGone
	leaseErr
)

// leaseTimeout bounds one lease request, which a drain does not cut short.
const leaseTimeout = 10 * time.Second

func (w *Worker) lease(ctx context.Context) (leaseResponse, leaseState, error) {
	var resp leaseResponse
	// A drain that cancelled the request after the coordinator granted
	// would drop the grant, stranding the cell until its TTL expires. So
	// the request outlives ctx, and process hands back a grant that
	// arrives after the drain.
	lctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), leaseTimeout)
	defer cancel()
	status, body, err := w.post(lctx, "/coord/lease", leaseRequest{Worker: w.cfg.Name})
	if err != nil {
		if lost := w.checkBudget(); lost != nil {
			return resp, leaseErr, lost
		}
		return resp, leaseErr, nil
	}
	switch status {
	case http.StatusOK:
		if err := json.Unmarshal(body, &resp); err != nil {
			w.log.Warn("undecodable lease response", "err", err)
			return resp, leaseErr, nil
		}
		return resp, leaseGranted, nil
	case http.StatusNoContent, http.StatusServiceUnavailable:
		return resp, leaseEmpty, nil
	case http.StatusGone:
		return resp, leaseGone, nil
	default:
		w.log.Warn("unexpected lease status", "status", status)
		return resp, leaseErr, nil
	}
}

// process executes one granted cell and uploads its result.
func (w *Worker) process(ctx context.Context, g leaseResponse) error {
	// Version-skew guard: the spec must hash to the key the coordinator
	// granted, or worker and coordinator disagree about what the cell IS.
	if got := g.Spec.Key(); got != g.Key {
		w.log.Error("spec hash mismatch (version skew?)", "granted", g.Key, "computed", got)
		return w.upload(ctx, g, sim.Results{},
			fmt.Sprintf("spec key mismatch: granted %s, worker computed %s", g.Key, got))
	}

	ttl := time.Duration(g.TTLMS) * time.Millisecond
	cellCtx, cancelCell := context.WithCancel(ctx)
	defer cancelCell()
	fenced := &atomic.Bool{}
	stopHB := w.heartbeatLoop(cellCtx, g, ttl, func() {
		fenced.Store(true)
		cancelCell()
	})

	res, execErr := w.orch.Run(cellCtx, g.Spec)
	stopHB()

	switch {
	case fenced.Load():
		// Lease lost: the cell belongs to someone else now. Abandon it.
		w.fenced.Add(1)
		w.log.Warn("lease fenced mid-execution, abandoning cell", "key", g.Key)
		return nil
	case ctx.Err() != nil:
		// SIGTERM drain: hand the lease back so the cell re-queues at once
		// instead of waiting out the TTL.
		w.release(g)
		return nil
	case execErr != nil:
		w.log.Error("cell execution failed", "key", g.Key, "err", execErr)
		return w.upload(ctx, g, sim.Results{}, execErr.Error())
	default:
		w.executed.Add(1)
		return w.upload(ctx, g, res, "")
	}
}

// heartbeatLoop extends the lease at TTL/3 and fences (via onFence) when
// the lease is reported lost or no heartbeat has succeeded for a full TTL.
// The returned stop function synchronously ends the loop.
func (w *Worker) heartbeatLoop(ctx context.Context, g leaseResponse, ttl time.Duration, onFence func()) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		lastOK := time.Now()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
			}
			status, _, err := w.post(ctx, "/coord/heartbeat",
				heartbeatRequest{Worker: w.cfg.Name, Key: g.Key, Lease: g.Lease})
			switch {
			case err == nil && status == http.StatusOK:
				lastOK = time.Now()
			case err == nil && status == http.StatusGone:
				onFence()
				return
			default:
				// Transport trouble: self-fence once the lease must have
				// expired on the coordinator side — holding on any longer
				// risks racing a re-leased twin for side effects.
				if time.Since(lastOK) > ttl {
					onFence()
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// upload streams a result (or execution error) to the coordinator,
// retrying transport failures and 5xx with jittered backoff until the
// reconnect budget runs out.
func (w *Worker) upload(ctx context.Context, g leaseResponse, res sim.Results, execErr string) error {
	req := resultRequest{
		Worker:  w.cfg.Name,
		Key:     g.Key,
		Lease:   g.Lease,
		Spec:    g.Spec,
		Results: res,
		Err:     execErr,
	}
	backoff := 50 * time.Millisecond
	for {
		status, body, err := w.post(ctx, "/coord/result", req)
		if err == nil {
			switch {
			case status == http.StatusOK:
				w.uploaded.Add(1)
				var resp resultResponse
				if json.Unmarshal(body, &resp) == nil && resp.Dup {
					w.dups.Add(1)
				}
				return nil
			case status == http.StatusGone:
				return nil // campaign over; result already durable elsewhere
			case status >= 400 && status < 500:
				w.log.Error("coordinator rejected upload", "key", g.Key, "status", status)
				return nil
			}
			// 5xx: persistence failed coordinator-side; retry below.
		}
		if ctx.Err() != nil {
			// Drain mid-upload: the lease will expire and the cell
			// re-executes elsewhere — determinism makes that safe.
			w.release(g)
			return nil
		}
		if lost := w.checkBudget(); lost != nil {
			return lost
		}
		if err := w.sleep(ctx, jitter(backoff)); err != nil {
			w.release(g)
			return nil
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// release hands a held lease back (best effort, short deadline — used on
// drain, when the worker's own context is already cancelled).
func (w *Worker) release(g leaseResponse) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _, err := w.post(ctx, "/coord/release", releaseRequest{
		Worker: w.cfg.Name,
		Leases: []heldLease{{Key: g.Key, Lease: g.Lease}},
	})
	if err == nil {
		w.releasedN.Add(1)
	}
	// A failed release is fine: the lease TTL re-queues the cell anyway.
}

// post sends one JSON request and returns (status, body, transport error).
// Any HTTP response — success or not — counts as coordinator contact.
func (w *Worker) post(ctx context.Context, path string, payload any) (int, []byte, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Addr+path, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return 0, nil, err
	}
	w.lastContact.Store(time.Now().UnixNano())
	w.ready.Store(true)
	return resp.StatusCode, body, nil
}

// checkBudget returns ErrLostCoordinator once the coordinator has been
// unreachable longer than the reconnect budget.
func (w *Worker) checkBudget() error {
	last := time.Unix(0, w.lastContact.Load())
	if down := time.Since(last); down > w.cfg.ReconnectBudget {
		return fmt.Errorf("%w: unreachable for %v (budget %v)",
			ErrLostCoordinator, down.Round(time.Second), w.cfg.ReconnectBudget)
	}
	return nil
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitter spreads d over [d/2, 3d/2) so a fleet of workers does not
// synchronise its polling against the coordinator.
func jitter(d time.Duration) time.Duration {
	return d/2 + rand.N(d)
}
