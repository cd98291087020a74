package main

// Distributed campaign modes. One cosmos-bench binary plays three roles:
//
//	cosmos-bench -serve :9090 -results-dir r -exp fig10   # coordinator
//	cosmos-bench -join http://host:9090                   # worker (any number)
//	cosmos-bench -exp fig10                               # plain single node
//
// The coordinator runs the ordinary campaign loop, but its orchestrator
// delegates every leader execution to the lease fabric (internal/coord)
// instead of simulating locally; workers pull leases, simulate through the
// same runner path, and stream results back. Determinism and content
// addressing make the distributed table byte-identical to a single-node
// run of the same experiments.

import (
	"context"
	"errors"
	"log/slog"
	"net/url"
	"time"

	"cosmos/cmd/internal/cliflags"
	"cosmos/internal/coord"
	"cosmos/internal/obs"
	"cosmos/internal/runner"
)

// Exit codes, stable for supervisors and CI:
//
//	0  campaign (or worker drain) completed
//	1  campaign error: an experiment failed, a cell errored
//	2  usage: bad flags or flag combinations (flag package parse errors too)
//	3  lost coordinator: a worker exhausted its reconnect budget
const (
	exitOK              = 0
	exitCampaign        = 1
	exitUsage           = 2
	exitLostCoordinator = 3
)

// joinCampaign runs the worker loop until the campaign ends, the process is
// signalled (graceful drain), or the coordinator stays unreachable.
func joinCampaign(ctx context.Context, logger *slog.Logger, obsFlags *cliflags.Obs, cf *cliflags.Coord, parallel int) int {
	if _, err := url.Parse(cf.Join); err != nil {
		logger.Error("bad -join URL", "err", err)
		return exitUsage
	}
	w, err := coord.NewWorker(coord.WorkerConfig{
		Addr:            cf.Join,
		Name:            cf.Name(),
		Concurrency:     parallel,
		Logger:          logger,
		PollInterval:    cf.PollIvl,
		ReconnectBudget: cf.Reconnect,
		Orchestrator:    runner.New(runner.Options{Workers: parallel}),
	})
	if err != nil {
		logger.Error("worker setup", "err", err)
		return exitUsage
	}

	// The worker serves its own observability plane when asked: /healthz is
	// liveness, /readyz flips once the coordinator has answered.
	stopPlane, err := obsFlags.Serve(obs.Config{
		Component: "cosmos-bench-worker",
		Logger:    logger,
		Ready:     w.Ready,
	})
	if err != nil {
		logger.Error("observability plane", "err", err)
		return exitCampaign
	}
	defer stopPlane()

	logger.Info("joining campaign", "coordinator", cf.Join, "worker", cf.Name(), "concurrency", parallel)
	err = w.Run(ctx)
	executed, uploaded, dups, fenced, released := w.Stats()
	logger.Info("worker done",
		"executed", executed, "uploaded", uploaded, "dups", dups,
		"fenced", fenced, "released", released)
	switch {
	case errors.Is(err, coord.ErrLostCoordinator):
		logger.Error("lost coordinator", "err", err)
		return exitLostCoordinator
	case err != nil:
		logger.Error("worker failed", "err", err)
		return exitCampaign
	}
	return exitOK
}

// newCoordinator builds, recovers and logs the campaign coordinator over
// the (required) results store.
func newCoordinator(store *runner.Store, ttl time.Duration, logger *slog.Logger) (*coord.Coordinator, error) {
	c, err := coord.New(coord.Config{Store: store, TTL: ttl, Logger: logger})
	if err != nil {
		return nil, err
	}
	if err := c.Recover(); err != nil {
		return nil, err
	}
	return c, nil
}

// serveGrace is how long the coordinator lingers after closing the fabric
// so every polling worker observes the 410 and exits 0 instead of hitting
// a dead listener: a few poll intervals, clamped to [1s, 3s].
func serveGrace(cf *cliflags.Coord) time.Duration {
	g := 4 * cf.PollIvl
	if g < time.Second {
		g = time.Second
	}
	if g > 3*time.Second {
		g = 3 * time.Second
	}
	return g
}

// finishServe closes the campaign fabric: pending lease polls get 410 so
// workers drain with exit 0, and the final fabric summary (the CI smoke
// greps re_leased here) lands in the log. The grace sleep outlives one
// worker poll interval so the fleet actually observes the 410 before the
// listener goes away with the process.
func finishServe(c *coord.Coordinator, logger *slog.Logger, grace time.Duration) {
	st := c.Status()
	c.Close()
	logger.Info("campaign fabric done",
		"completed", st.Completed,
		"re_leased", st.ReLeases,
		"expired", st.Expired,
		"released", st.Released,
		"duplicates", st.Duplicates,
		"orphans", st.Orphans,
		"workers", len(st.Workers))
	time.Sleep(grace)
}
