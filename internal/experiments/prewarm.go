package experiments

import "cosmos/internal/runner"

// plan collects the distinct specs a planning lab's generators request,
// in request order.
type plan struct {
	specs []runner.Spec
	seen  map[string]bool
}

// add records spec unless an earlier request already has its key: the
// first request names the cell, exactly as in a serial render.
func (p *plan) add(spec runner.Spec) {
	key := spec.Key()
	if p.seen[key] {
		return
	}
	p.seen[key] = true
	p.specs = append(p.specs, spec)
}

// Prewarm runs every lab cell the experiments will request through the
// lab's orchestrator at once (runner.Orchestrator.RunAll, which runs the
// cells of one stream and machine as one group), so the serial render
// that follows finds them memoised — and stored, when the lab has a
// results store. The cell set comes from the generators themselves: each
// runs against a planning lab with l's scale and policies, whose runs
// record their spec and return zero Results. Cells an earlier Prewarm of l
// already ran are not requested again. Work a generator does outside the
// lab is skipped while planning and runs at render time. Results never
// depend on the parallelism. The first simulation error (including
// cancellation) is recorded on the lab and returned.
func Prewarm(l *Lab, exps ...Experiment) error {
	if err := l.Err(); err != nil {
		return err
	}
	planner := &Lab{
		Scale: l.Scale, ctx: l.ctx, dataPolicy: l.dataPolicy, ctrPolicy: l.ctrPolicy,
		plan: &plan{seen: map[string]bool{}},
	}
	for _, e := range exps {
		e.Gen(planner)
	}
	l.mu.Lock()
	var specs []runner.Spec
	for _, sp := range planner.plan.specs {
		if key := sp.Key(); !l.warm[key] {
			l.warm[key] = true
			specs = append(specs, sp)
		}
	}
	l.mu.Unlock()
	if err := l.orch.RunAll(l.ctx, specs); err != nil {
		l.fail(err)
		return err
	}
	return nil
}

// planning reports whether l only records the cells its generators request.
func (l *Lab) planning() bool { return l.plan != nil }
