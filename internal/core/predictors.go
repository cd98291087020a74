package core

import (
	"fmt"

	"cosmos/internal/rl"
	"cosmos/internal/telemetry"
)

// Action encoding shared by both predictors: for the data location
// predictor action 1 = off-chip; for the CTR locality predictor action 1 =
// good locality.
const (
	ActionOnChip  = 0
	ActionOffChip = 1

	ActionBadLocality  = 0
	ActionGoodLocality = 1
)

// DataPredictor is the RL-based data location predictor (Algorithm 3): on
// every L1 miss it predicts whether the line is on-chip (L2/LLC) or
// off-chip (DRAM), enabling early CTR access for off-chip predictions.
//
// The decision engine is any rl.Policy — tabular Q-learning by default
// (the paper's design), or a perceptron/MLP selected via Params.DataPolicy.
type DataPredictor struct {
	policy  rl.Policy
	rewards DataRewards

	Stats DataStats
}

// DataStats decomposes predictions for the Fig 12 study.
type DataStats struct {
	PredOnCorrect  uint64 // predicted on-chip, was on-chip
	PredOnWrong    uint64 // predicted on-chip, was off-chip
	PredOffCorrect uint64 // predicted off-chip, was off-chip
	PredOffWrong   uint64 // predicted off-chip, was on-chip
}

// Total returns the number of graded predictions.
func (s DataStats) Total() uint64 {
	return s.PredOnCorrect + s.PredOnWrong + s.PredOffCorrect + s.PredOffWrong
}

// Accuracy returns overall prediction correctness (Fig 12's headline).
func (s DataStats) Accuracy() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.PredOnCorrect+s.PredOffCorrect) / float64(t)
}

// NewDataPredictor builds the predictor from the parameter set: the tabular
// default when p.DataPolicy is nil, otherwise the policy the spec selects.
func NewDataPredictor(p Params) *DataPredictor {
	return &DataPredictor{
		policy:  buildPolicy(p.DataPolicy, p, p.Data, p.Seed^0xDA7A),
		rewards: p.DataRewards,
	}
}

// buildPolicy materialises a predictor's policy. A nil spec reproduces the
// historical construction exactly (same table size, hyper-parameters, and
// seed stream). A non-nil spec inherits the surrounding Params as defaults
// for unset tabular fields, then goes through rl.NewPolicy; the spec was
// validated on the config path, so a failure here is a programming error
// and panics like the cache-policy registry does.
func buildPolicy(spec *rl.PolicySpec, p Params, h Hyper, seed uint64) rl.Policy {
	if spec == nil {
		return rl.NewAgent(rl.NewQTable(p.QStates, 2), h.Alpha, h.Gamma, h.Epsilon, seed)
	}
	sp := *spec
	if sp.Kind == rl.KindTabular {
		if sp.States == 0 {
			sp.States = p.QStates
		}
		if sp.Alpha == 0 {
			sp.Alpha = h.Alpha
		}
		if sp.Gamma == 0 {
			sp.Gamma = h.Gamma
		}
		if sp.Epsilon == 0 {
			sp.Epsilon = h.Epsilon
		}
	}
	pol, err := rl.NewPolicy(sp, seed)
	if err != nil {
		panic(fmt.Sprintf("core: invalid policy spec: %v", err))
	}
	return pol
}

// Prediction carries the key and state/action pair so the outcome can be
// graded later (decision and training run as parallel processes, §4.4).
type Prediction struct {
	Key     uint64
	State   int
	Action  int
	OffChip bool
}

// Predict derives the missing line's state and selects the policy's action
// (Algorithm 3 lines 2-3).
func (p *DataPredictor) Predict(addr uint64) Prediction {
	d := p.policy.Act(addr)
	return Prediction{Key: addr, State: d.State, Action: d.Action, OffChip: d.Action == ActionOffChip}
}

// Learn grades the prediction against the actual data location and applies
// the policy update (Algorithm 3 lines 8-20). It returns the reward assigned.
func (p *DataPredictor) Learn(pred Prediction, actualOffChip bool) float64 {
	var r float64
	switch {
	case !actualOffChip && pred.Action == ActionOnChip:
		r = p.rewards.Hi
		p.Stats.PredOnCorrect++
	case !actualOffChip && pred.Action == ActionOffChip:
		r = p.rewards.Ho
		p.Stats.PredOffWrong++
	case actualOffChip && pred.Action == ActionOffChip:
		r = p.rewards.Mo
		p.Stats.PredOffCorrect++
	default: // off-chip, predicted on-chip
		r = p.rewards.Mi
		p.Stats.PredOnWrong++
	}
	// Bootstrap on the actual location's value in the same state
	// (Algorithm 3 lines 19-20).
	actual := ActionOnChip
	if actualOffChip {
		actual = ActionOffChip
	}
	next := p.policy.Value(pred.Key, pred.State, actual)
	p.policy.Learn(rl.Transition{Key: pred.Key, State: pred.State, Action: pred.Action, Reward: r, Next: next})
	return r
}

// ExplorationRate reports the observed exploration fraction (0 for the
// deterministic policy kinds).
func (p *DataPredictor) ExplorationRate() float64 { return p.policy.ExplorationRate() }

// RegisterMetrics registers the prediction quadrant counters, per-interval
// accuracy/precision/recall (off-chip = positive class), and the policy's
// own metrics — the time-resolved view of the Fig 12 study and of RL
// convergence.
func (p *DataPredictor) RegisterMetrics(s *telemetry.Scope) {
	st := &p.Stats
	s.Counter("pred_on_correct", &st.PredOnCorrect)
	s.Counter("pred_on_wrong", &st.PredOnWrong)
	s.Counter("pred_off_correct", &st.PredOffCorrect)
	s.Counter("pred_off_wrong", &st.PredOffWrong)
	s.Rate("accuracy",
		func() uint64 { return st.PredOnCorrect + st.PredOffCorrect },
		func() uint64 { return st.Total() })
	s.Rate("off_precision",
		func() uint64 { return st.PredOffCorrect },
		func() uint64 { return st.PredOffCorrect + st.PredOffWrong })
	s.Rate("off_recall",
		func() uint64 { return st.PredOffCorrect },
		func() uint64 { return st.PredOffCorrect + st.PredOnWrong })
	p.policy.RegisterMetrics(s.Scope("agent"))
}

// Table exposes the Q-table when the policy is tabular (for quantization
// studies and tests); nil for other policy kinds.
func (p *DataPredictor) Table() *rl.QTable {
	if ag, ok := p.policy.(*rl.Agent); ok {
		return ag.Table
	}
	return nil
}

// LocalityPredictor is the RL-based CTR locality predictor (Algorithm 1):
// on every CTR access it classifies the counter block as good or bad
// locality; the CET grades those classifications over a temporal window.
type LocalityPredictor struct {
	policy  rl.Policy
	cet     *CET
	rewards CtrRewards

	Stats CtrStats
}

// CtrStats decomposes classifications for the Fig 13 study.
type CtrStats struct {
	PredGood  uint64
	PredBad   uint64
	CETHits   uint64
	CETMisses uint64
	Evictions uint64
}

// GoodFraction is the share of CTR accesses classified good locality.
func (s CtrStats) GoodFraction() float64 {
	t := s.PredGood + s.PredBad
	if t == 0 {
		return 0
	}
	return float64(s.PredGood) / float64(t)
}

// NewLocalityPredictor builds the predictor with its CET: tabular by
// default, or the policy Params.CtrPolicy selects.
func NewLocalityPredictor(p Params) *LocalityPredictor {
	return &LocalityPredictor{
		policy:  buildPolicy(p.CtrPolicy, p, p.Ctr, p.Seed^0xC7C7),
		cet:     NewCET(p.CETEntries, p.CETWindow),
		rewards: p.CtrRewards,
	}
}

// CET exposes the evaluation table (for the Fig 9 sweep).
func (p *LocalityPredictor) CET() *CET { return p.cet }

// Table exposes the Q-table when the policy is tabular; nil otherwise.
func (p *LocalityPredictor) Table() *rl.QTable {
	if ag, ok := p.policy.(*rl.Agent); ok {
		return ag.Table
	}
	return nil
}

// RegisterMetrics registers the locality classification counters, the
// per-interval good-locality share and CET hit rate, and the policy's own
// metrics — the time-resolved view of the Fig 13 study.
func (p *LocalityPredictor) RegisterMetrics(s *telemetry.Scope) {
	st := &p.Stats
	s.Counter("pred_good", &st.PredGood)
	s.Counter("pred_bad", &st.PredBad)
	s.Counter("cet_hits", &st.CETHits)
	s.Counter("cet_misses", &st.CETMisses)
	s.Counter("cet_evictions", &st.Evictions)
	s.Rate("good_fraction",
		func() uint64 { return st.PredGood },
		func() uint64 { return st.PredGood + st.PredBad })
	s.Rate("cet_hit_rate",
		func() uint64 { return st.CETHits },
		func() uint64 { return st.CETHits + st.CETMisses })
	p.policy.RegisterMetrics(s.Scope("agent"))
}

// Classification is the predictor's output for one CTR access: the
// good/bad locality tag and the 8-bit confidence score the LCR-CTR cache
// stores with the line.
type Classification struct {
	Good  bool
	Score uint8
}

// Observe runs Algorithm 1 for one CTR access, identified by its counter
// block index: decide, grade against the CET, update the policy, insert
// into the CET, and process any CET eviction.
func (p *LocalityPredictor) Observe(ctrBlock uint64) Classification {
	key := ctrBlock << 6
	d := p.policy.Act(key)
	s, a := d.State, d.Action
	good := a == ActionGoodLocality
	if good {
		p.Stats.PredGood++
	} else {
		p.Stats.PredBad++
	}

	// Training: grade against the CET neighbourhood (lines 9-15).
	var r float64
	if p.cet.HitNearby(ctrBlock) {
		p.Stats.CETHits++
		if good {
			r = p.rewards.Hg
		} else {
			r = p.rewards.Hb
		}
	} else {
		p.Stats.CETMisses++
		if good {
			r = p.rewards.Mg
		} else {
			r = p.rewards.Mb
		}
	}

	// Bootstrap on the CET head (lines 16-17).
	var next float64
	if head, ok := p.cet.Head(); ok {
		next = p.policy.Value(head.Block<<6, head.State, head.Action)
	}
	p.policy.Learn(rl.Transition{Key: key, State: s, Action: a, Reward: r, Next: next})

	// Insert and settle any eviction (lines 18-23).
	if ev, evicted := p.cet.Insert(ctrBlock, s, a); evicted {
		p.Stats.Evictions++
		var re float64
		if ev.Action == ActionGoodLocality {
			re = p.rewards.Eg
		} else {
			re = p.rewards.Eb
		}
		p.policy.Learn(rl.Transition{Key: ev.Block << 6, State: ev.State, Action: ev.Action, Reward: re, Next: next})
	}

	return Classification{Good: good, Score: p.policy.Score(key, s, a)}
}
