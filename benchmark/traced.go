package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cosmos/internal/coord"
	"cosmos/internal/core"
	"cosmos/internal/experiments"
	"cosmos/internal/integrity"
	"cosmos/internal/memsys"
	"cosmos/internal/runner"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/trace"
)

// The traced run attributes host time to layers, from the benchmark's own
// files, without touching the program. For each cell it
//
//  1. drives the real sim.System through a 256-access loop, timing every
//     block with one clock pair and single Step calls on a 1-in-128 sample;
//  2. replays the same cell through replay.go's composition, which spans every
//     layer call of the sampled accesses, and checks its Results equal the
//     System's exactly. The two alternate in chunks of accesses, so the
//     host's speed, which drifts over seconds, is the same for both;
//  3. bulk-times the layers that run inside CtrAccess on fresh instances:
//     the locality predictor over the captured counter-block stream (its
//     statistics must equal the engine's) and the Merkle path walk over the
//     captured counter misses;
//  4. drains a fresh generator alone.
//
// Then it runs the workload's cells as a campaign through the runner, and
// once more through an in-process coordinator and worker, timing each
// lifecycle transition, store call and fabric round trip.

// tracedCells lists the cells the traced run replays: the workload's own
// cells at the traced budget, or, for the campaign, the mcf and PageRank
// cells of fig10 at the campaign's scale.
func tracedCells(name string, sz sizes) []cell {
	if name == wCampaign {
		var out []cell
		for _, w := range []string{"mcf", "PR"} {
			for _, d := range baseDesigns {
				c := cell{Workload: w, Design: d, Accesses: sz.Campaign.Accesses}
				if w == "PR" {
					c.GraphNodes = sz.Campaign.GraphNodes
				}
				out = append(out, c)
			}
		}
		return out
	}
	cells := cellsOf(name, sz)
	for i := range cells {
		cells[i].Accesses = sz.Traced
	}
	return cells
}

// cellTrace accumulates the traced measurements of a workload's cells.
type cellTrace struct {
	accesses uint64
	results  []sim.Results
	digests  map[string]string // System digests by spec key

	buildS float64
	newMs  []float64

	decodeNs, stepNs float64   // the System's blocks
	steps, l1Hits    []float64 // sampled Step durations, all and L1 hits
	misses           []float64 // sampled Step durations of L1 misses
	mallocs          uint64

	replayNs     float64 // the replay's chunks, decode included
	bareNs, bare float64 // the replays' bare-span sample

	observeNs, pathNs float64
	observes, ctrMiss uint64
	drainNs           float64
	drainAccesses     uint64
	problems          []string
	attempted, failed int
}

func (ct *cellTrace) fail(format string, args ...any) {
	ct.failed++
	ct.problems = append(ct.problems, fmt.Sprintf(format, args...))
}

// traceChunk is how many accesses the System and the replay each run
// before handing over to the other: about ten milliseconds.
const traceChunk = 1 << 15

// traceCell runs steps 1-4 on one cell.
func traceCell(c cell, seed uint64, t *tracer, ct *cellTrace) error {
	cfg := c.config(seed)
	ct.attempted++

	t0 := time.Now()
	gen, err := c.build(seed)
	if err != nil {
		return err
	}
	defer trace.CloseIfCloser(gen)
	ct.buildS += time.Since(t0).Seconds()
	t1 := time.Now()
	d := &drive{sys: sim.New(cfg, c.Design), gen: gen, l1Lat: cfg.L1Lat, t: t, ct: ct}
	ct.newMs = append(ct.newMs, float64(time.Since(t1).Nanoseconds())/1e6)

	rgen, err := c.build(seed)
	if err != nil {
		return err
	}
	defer trace.CloseIfCloser(rgen)
	rp := newReplay(cfg, c.Design, t)
	for done := uint64(0); done < c.Accesses; done += traceChunk {
		n := min(traceChunk, c.Accesses-done)
		d.run(n)
		r0 := time.Now()
		rp.run(rgen, n)
		ct.replayNs += float64(time.Since(r0).Nanoseconds())
	}
	ct.bareNs += rp.bareNs
	ct.bare += rp.bare

	res := d.sys.Results(gen.Name())
	ct.results = append(ct.results, res)
	ct.digests[c.spec(seed).Key()] = digest(res)
	ct.accesses += res.Accesses
	if diff := firstDiff(res, rp.results(rgen.Name())); diff != "" {
		ct.fail("%s: replay Results differ from System at %s", c.label(), diff)
		return nil
	}

	if rp.eng.CtrPred != nil {
		st, ns := replayObserve(cfg.MC.Params, rp.ctrBlocks)
		ct.observeNs += ns
		ct.observes += uint64(len(rp.ctrBlocks))
		if st != rp.eng.CtrPred.Stats {
			ct.fail("%s: isolated Observe replay stats %+v differ from the engine's %+v", c.label(), st, rp.eng.CtrPred.Stats)
			return nil
		}
	}
	if rp.layout != nil {
		fresh := integrity.NewSecureLayout(rp.layout.DataBytes, int(rp.layout.LinesPerBlock()))
		ct.pathNs += replayPathNodes(fresh.Tree, rp.ctrMisses)
		ct.ctrMiss += uint64(len(rp.ctrMisses))
	}

	dgen, err := c.build(seed)
	if err != nil {
		return err
	}
	ct.drainNs += drain(dgen, c.Accesses)
	ct.drainAccesses += c.Accesses
	trace.CloseIfCloser(dgen)
	return nil
}

// drive steps a real System through the benchmark's own block loop,
// timing each block's decode and steps with one clock pair and, on the
// span sample, single Step calls.
type drive struct {
	sys   *sim.System
	gen   trace.Generator
	l1Lat uint64
	t     *tracer
	ct    *cellTrace
	idx   uint64
	buf   [driveBlock]memsys.Access
}

// run steps the next n accesses.
func (d *drive) run(n uint64) {
	ct := d.ct
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := time.Now()
	var decode, step time.Duration
	for end := d.idx + n; d.idx < end; {
		b0 := time.Since(base)
		m := fill(d.gen, d.buf[:min(end-d.idx, driveBlock)])
		b1 := time.Since(base)
		for i, a := range d.buf[:m] {
			if sample(d.idx+uint64(i)) != spanBucket {
				d.sys.Step(a)
				continue
			}
			k0 := ticks()
			lat := d.sys.Step(a)
			ns := d.t.ns(ticks()-k0) - d.t.window
			ct.steps = append(ct.steps, ns)
			if lat == d.l1Lat {
				ct.l1Hits = append(ct.l1Hits, ns)
			} else {
				ct.misses = append(ct.misses, ns)
			}
		}
		decode += b1 - b0
		step += time.Since(base) - b1
		d.idx += uint64(m)
		if m == 0 {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	ct.mallocs += ms1.Mallocs - ms0.Mallocs
	ct.decodeNs += float64(decode)
	ct.stepNs += float64(step)
}

// replayObserve runs the captured counter-block stream through a fresh
// locality predictor and returns its statistics and total time.
func replayObserve(p core.Params, blocks []uint64) (core.CtrStats, float64) {
	lp := core.NewLocalityPredictor(p)
	t0 := time.Now()
	for _, b := range blocks {
		lp.Observe(b)
	}
	return lp.Stats, float64(time.Since(t0).Nanoseconds())
}

// pathSink keeps the Merkle path replay from being optimised away.
var pathSink int

// replayPathNodes walks the Merkle path of every captured counter miss and
// returns the total time.
func replayPathNodes(tree *integrity.TreeLayout, misses []uint64) float64 {
	var buf []memsys.Addr
	n := 0
	t0 := time.Now()
	for _, b := range misses {
		buf = tree.PathNodes(b, buf)
		n += len(buf)
	}
	ns := float64(time.Since(t0).Nanoseconds())
	pathSink += n
	return ns
}

// drain decodes n accesses of gen with nothing else running and returns
// the time it took.
func drain(gen trace.Generator, n uint64) float64 {
	var buf [driveBlock]memsys.Access
	t0 := time.Now()
	for left := n; left > 0; {
		m := fill(gen, buf[:min(left, driveBlock)])
		if m == 0 {
			break
		}
		left -= uint64(m)
	}
	return float64(time.Since(t0).Nanoseconds())
}

// campaignFunc runs a workload's cells as a campaign over a result store,
// with an optional lifecycle hook and an optional executor replacing local
// simulation.
type campaignFunc func(ctx context.Context, st *runner.Store, lifecycle func(runner.Transition), ex runner.Executor) error

// cellsCampaign submits cells at once to an orchestrator.
func cellsCampaign(cells []cell, seed uint64, workers int) campaignFunc {
	return func(ctx context.Context, st *runner.Store, lifecycle func(runner.Transition), ex runner.Executor) error {
		o := runner.New(runner.Options{Workers: workers, Store: st})
		o.Lifecycle = lifecycle
		o.Executor = ex
		specs := make([]runner.Spec, len(cells))
		for i, c := range cells {
			specs[i] = c.spec(seed)
		}
		return o.RunAll(ctx, specs)
	}
}

// fig10Campaign renders fig10 through a lab, as the campaign workload does.
func fig10Campaign(sc experiments.Scale, workers int) campaignFunc {
	return func(ctx context.Context, st *runner.Store, lifecycle func(runner.Transition), ex runner.Executor) error {
		opts := []experiments.LabOption{experiments.WithContext(ctx),
			experiments.WithWorkers(workers), experiments.WithStore(st)}
		if lifecycle != nil {
			opts = append(opts, experiments.WithLifecycle(lifecycle))
		}
		lab := experiments.NewLab(sc, opts...)
		lab.Orchestrator().Executor = ex
		exp, err := experiments.ByID("fig10")
		if err != nil {
			return err
		}
		_, err = exp.Run(lab)
		return err
	}
}

// lifecycleClock timestamps runner lifecycle transitions with the
// benchmark's own clock.
type lifecycleClock struct {
	base time.Time

	mu                 sync.Mutex
	queued, running    map[string]float64
	exec, wait         []float64
	executed, memoised int
}

func newLifecycleClock() *lifecycleClock {
	return &lifecycleClock{base: time.Now(), queued: map[string]float64{}, running: map[string]float64{}}
}

func (l *lifecycleClock) observe(tr runner.Transition) {
	now := time.Since(l.base).Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch tr.Phase {
	case runner.PhaseQueued:
		l.queued[tr.Key] = now
	case runner.PhaseRunning:
		l.running[tr.Key] = now
		l.wait = append(l.wait, now-l.queued[tr.Key])
	case runner.PhaseDone:
		switch {
		case tr.Err != nil:
		case tr.Source == runner.SourceExecuted:
			l.executed++
			l.exec = append(l.exec, now-l.running[tr.Key])
		case tr.Source == runner.SourceMemoised:
			l.memoised++
		}
	}
}

// runnerStage runs the campaign locally with a lifecycle clock, then times
// Store.Get over every stored cell and Store.Put of each into a fresh
// store. It returns the runner metrics and the stored digests by key.
func runnerStage(ctx context.Context, run campaignFunc, workers int) (map[string]float64, map[string]string, error) {
	dir, err := tempDir("runner")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := runner.OpenStore(filepath.Join(dir, "local"))
	if err != nil {
		return nil, nil, err
	}
	lc := newLifecycleClock()
	t0 := time.Now()
	if err := run(ctx, st, lc.observe, nil); err != nil {
		return nil, nil, err
	}
	wall := time.Since(t0).Seconds()

	put, err := runner.OpenStore(filepath.Join(dir, "put"))
	if err != nil {
		return nil, nil, err
	}
	digests := map[string]string{}
	var gets, puts []float64
	for _, e := range st.Index() {
		g0 := time.Now()
		res, ok := st.Get(ctx, e.Key)
		gets = append(gets, float64(time.Since(g0).Nanoseconds())/1e6)
		if !ok {
			return nil, nil, fmt.Errorf("stored cell %s unreadable", e.Label)
		}
		digests[e.Key] = digest(res)
		spec := runner.Spec{Workload: e.Workload, Design: secmem.Design{Name: e.Design}, Accesses: e.Accesses, Seed: e.Seed}
		p0 := time.Now()
		if err := put.Put(ctx, e.Key, spec, res); err != nil {
			return nil, nil, err
		}
		puts = append(puts, float64(time.Since(p0).Nanoseconds())/1e6)
	}
	var busy float64
	for _, x := range lc.exec {
		busy += x
	}
	_, execMax := minMax(lc.exec)
	return map[string]float64{
		"runner.exec_s_p50":       median(lc.exec),
		"runner.exec_s_max":       execMax,
		"runner.queue_wait_s_p50": median(lc.wait),
		"runner.worker_busy_frac": ratio(busy, float64(workers)*wall),
		"runner.cells_executed":   float64(lc.executed),
		"runner.cells_memoised":   float64(lc.memoised),
		"runner.store_put_ms_p50": median(puts),
		"runner.store_get_ms_p50": median(gets),
	}, digests, nil
}

// timedTransport times every fabric call a worker makes, by URL path.
type timedTransport struct {
	base http.RoundTripper

	mu    sync.Mutex
	calls map[string][]float64 // ms
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	t.mu.Lock()
	t.calls[req.URL.Path] = append(t.calls[req.URL.Path], ms)
	t.mu.Unlock()
	return resp, err
}

// coordStage runs the campaign through an in-process coordinator and one
// worker and returns the fabric metrics and the stored digests by key.
func coordStage(ctx context.Context, run campaignFunc, workers int) (map[string]float64, map[string]string, error) {
	dir, err := tempDir("coord")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := runner.OpenStore(dir)
	if err != nil {
		return nil, nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	c, err := coord.New(coord.Config{Store: st, Logger: quiet})
	if err != nil {
		return nil, nil, err
	}
	if err := c.Recover(); err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	c.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	tt := &timedTransport{base: srv.Client().Transport, calls: map[string][]float64{}}
	w, err := coord.NewWorker(coord.WorkerConfig{
		Addr:         srv.URL,
		Name:         "benchmark-worker",
		Concurrency:  workers,
		Client:       &http.Client{Transport: tt, Timeout: 30 * time.Second},
		Logger:       quiet,
		PollInterval: 10 * time.Millisecond,
		Orchestrator: runner.New(runner.Options{Workers: workers}),
	})
	if err != nil {
		return nil, nil, err
	}
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(ctx) }()

	t0 := time.Now()
	runErr := run(ctx, st, nil, c)
	wall := time.Since(t0).Seconds()
	c.Close() // the worker's next lease poll sees the campaign over
	if err := <-workerDone; err != nil {
		return nil, nil, err
	}
	if runErr != nil {
		return nil, nil, runErr
	}

	digests := map[string]string{}
	for _, e := range st.Index() {
		res, ok := st.Get(ctx, e.Key)
		if !ok {
			return nil, nil, fmt.Errorf("stored cell %s unreadable", e.Label)
		}
		digests[e.Key] = digest(res)
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	_, leaseMax := minMax(tt.calls["/coord/lease"])
	return map[string]float64{
		"coord.lease_ms_p50":  median(tt.calls["/coord/lease"]),
		"coord.lease_ms_max":  leaseMax,
		"coord.result_ms_p50": median(tt.calls["/coord/result"]),
		"coord.campaign_s":    wall,
		"coord.re_leases":     float64(c.ReLeases()),
	}, digests, nil
}

// tracedRun is the traced run of one workload: it returns every per-layer
// metric, the attempted and failed checks, and a line per failure.
func tracedRun(ctx context.Context, name string, seed uint64, sz sizes, t *tracer, cellLabels *[]string) (map[string]float64, *cellTrace, error) {
	workers := runtime.NumCPU()
	ct := &cellTrace{digests: map[string]string{}}
	off := int32(len(t.spans))
	cells := tracedCells(name, sz)
	for _, c := range cells {
		t.cell = int32(len(*cellLabels))
		*cellLabels = append(*cellLabels, name+"/"+c.label())
		if err := traceCell(c, seed, t, ct); err != nil {
			return nil, ct, err
		}
	}

	run := cellsCampaign(cells, seed, workers)
	if name == wCampaign {
		sc := sz.Campaign
		sc.Seed = seed
		run = fig10Campaign(sc, workers)
	}
	ct.attempted += 2
	runnerM, runnerDigests, err := runnerStage(ctx, run, workers)
	if err != nil {
		return nil, ct, fmt.Errorf("runner stage: %w", err)
	}
	coordM, coordDigests, err := coordStage(ctx, run, workers)
	if err != nil {
		return nil, ct, fmt.Errorf("coordinator stage: %w", err)
	}
	if !maps.Equal(runnerDigests, coordDigests) {
		ct.fail("coordinator campaign stored different results than the local one")
	}
	if name != wCampaign {
		for key, d := range ct.digests {
			if runnerDigests[key] != d {
				ct.fail("runner stored different results than the traced System for spec %s", key)
			}
		}
	}
	if coordM["coord.re_leases"] != 0 {
		ct.fail("coordinator re-leased %v cells", coordM["coord.re_leases"])
	}

	m := layerMetrics(ct, t.selfTimes(off, ratio(ct.bareNs, ct.bare)), t.window)
	for k, v := range runnerM {
		m[k] = v
	}
	for k, v := range coordM {
		m[k] = v
	}
	return m, ct, nil
}

// layerMetrics turns the accumulated measurements into the per-layer
// metrics of the trace, workloads, sim, cache, secmem, core, integrity and
// bench groups.
func layerMetrics(ct *cellTrace, lt layerTimes, window float64) map[string]float64 {
	acc := float64(ct.accesses)
	var m = map[string]float64{}

	m["trace.next_block_ns_per_acc"] = ratio(ct.decodeNs, acc)
	m["trace.drain_ns_per_acc"] = ratio(ct.drainNs, float64(ct.drainAccesses))
	m["workloads.build_s"] = ct.buildS

	var newSum float64
	for _, x := range ct.newMs {
		newSum += x
	}
	step := ratio(ct.stepNs, acc)
	m["sim.new_ms"] = ratio(newSum, float64(len(ct.newMs)))
	m["sim.step_ns_per_acc"] = step
	m["sim.step_ns_p50"] = median(ct.steps)
	m["sim.step_ns_p99"] = quantile(ct.steps, 0.99)
	m["sim.step_l1hit_ns_p50"] = median(ct.l1Hits)
	m["sim.step_miss_ns_p50"] = median(ct.misses)
	m["sim.allocs_per_acc"] = ratio(float64(ct.mallocs), acc)
	m["sim.glue_ns_per_acc"] = lt.perAccess(spanStep)

	observePerAcc := ratio(ct.observeNs, acc)
	pathPerAcc := ratio(ct.pathNs, acc)
	cacheSpans := []spanName{spanL1Probe, spanL2Probe, spanLLCProbe, spanL2Writeback, spanLLCWriteback}
	secmemSpans := []spanName{spanCtrAccess, spanDataDRAM, spanMACAccess, spanWastedFetch, spanSecmemWriteback}
	m["cache.l1.probe_ns"] = lt.perCall(spanL1Probe)
	m["cache.l2.probe_ns"] = lt.perCall(spanL2Probe)
	m["cache.llc.probe_ns"] = lt.perCall(spanLLCProbe)
	m["cache.probes_per_acc"] = lt.callsPerAccess(spanL1Probe, spanL2Probe, spanLLCProbe)
	m["cache.writeback_ns"] = lt.perCall(spanL2Writeback, spanLLCWriteback)
	m["cache.writebacks_per_acc"] = lt.callsPerAccess(spanL2Writeback, spanLLCWriteback)
	m["cache.ns_per_acc"] = lt.perAccess(cacheSpans...)

	// Observe and the Merkle path walk run inside CtrAccess, so their bulk
	// replay times move from secmem to core and integrity.
	m["secmem.ctr_access_ns"] = lt.perCall(spanCtrAccess)
	m["secmem.data_dram_ns"] = lt.perCall(spanDataDRAM)
	m["secmem.mac_access_ns"] = lt.perCall(spanMACAccess)
	m["secmem.wasted_fetch_ns"] = lt.perCall(spanWastedFetch)
	m["secmem.writeback_ns"] = lt.perCall(spanSecmemWriteback)
	m["secmem.ns_per_acc"] = lt.perAccess(secmemSpans...) - observePerAcc - pathPerAcc

	m["core.data_predict_ns"] = lt.perCall(spanDataPredict)
	m["core.data_learn_ns"] = lt.perCall(spanDataLearn)
	m["core.ctr_observe_ns"] = ratio(ct.observeNs, float64(ct.observes))
	m["core.ns_per_acc"] = lt.perAccess(spanDataPredict, spanDataLearn) + observePerAcc
	m["integrity.path_nodes_ns"] = ratio(ct.pathNs, float64(ct.ctrMiss))

	layers := m["sim.glue_ns_per_acc"] + m["cache.ns_per_acc"] + m["secmem.ns_per_acc"] + m["core.ns_per_acc"] + pathPerAcc
	m["bench.timer_overhead_ns"] = window
	m["bench.reconcile_err_pct"] = 100 * ratio(layers-step, step)
	m["bench.trace_overhead_pct"] = 100 * ratio(ct.replayNs-ct.decodeNs-ct.stepNs, ct.decodeNs+ct.stepNs)

	for k, v := range modelledMetrics(ct.results) {
		m[k] = v
	}
	return m
}

// modelledMetrics aggregates the simulated counts of the cells: rates are
// weighted by the events they are rates of.
func modelledMetrics(rs []sim.Results) map[string]float64 {
	var acc, instr, cycles, l1Miss, l2Miss, llcMiss, offChip, bypassed float64
	var ctrAcc, ctrMiss, mtReads, rowHits, rowAll, reenc float64
	var predOK, predAll, good, classified float64
	for _, r := range rs {
		a := float64(r.Accesses)
		acc += a
		instr += float64(r.Instructions)
		cycles += float64(r.Cycles)
		l1 := r.L1MissRate * a
		l2 := r.L2MissRate * l1
		l1Miss += l1
		l2Miss += l2
		llcMiss += r.LLCMissRate * l2
		offChip += float64(r.OffChipReads)
		bypassed += float64(r.Bypassed)
		ctrAcc += float64(r.CtrAccesses)
		ctrMiss += r.CtrMissRate * float64(r.CtrAccesses)
		mtReads += float64(r.Traffic.MTRead)
		rowHits += float64(r.DRAM.RowHits)
		rowAll += float64(r.DRAM.RowHits + r.DRAM.RowMisses)
		reenc += float64(r.Traffic.ReEncWrite)
		if p := r.DataPred; p != nil {
			predOK += float64(p.PredOnCorrect + p.PredOffCorrect)
			predAll += float64(p.Total())
		}
		if p := r.CtrPred; p != nil {
			good += float64(p.PredGood)
			classified += float64(p.PredGood + p.PredBad)
		}
	}
	return map[string]float64{
		"sim.l1_miss_rate":             ratio(l1Miss, acc),
		"sim.offchip_per_acc":          ratio(offChip, acc),
		"sim.bypass_rate":              ratio(bypassed, offChip),
		"sim.ipc":                      ratio(instr, cycles),
		"cache.l2_miss_rate":           ratio(l2Miss, l1Miss),
		"cache.llc_miss_rate":          ratio(llcMiss, l2Miss),
		"secmem.ctr_accesses_per_acc":  ratio(ctrAcc, acc),
		"secmem.ctr_miss_rate":         ratio(ctrMiss, ctrAcc),
		"secmem.mt_reads_per_ctr_miss": ratio(mtReads, ctrMiss),
		"secmem.dram_row_hit_rate":     ratio(rowHits, rowAll),
		"secmem.reenc_lines_per_kacc":  ratio(1000*reenc, acc),
		"core.data_pred_accuracy":      ratio(predOK, predAll),
		"core.ctr_good_frac":           ratio(good, classified),
	}
}
