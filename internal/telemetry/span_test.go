package telemetry

import (
	"encoding/json"
	"math"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", h.Quantile(0.5))
	}
	// 100 samples of value 8: every quantile lands in bucket [8,15] and
	// is clamped at the observed max.
	for i := 0; i < 100; i++ {
		h.Observe(8)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		v := h.Quantile(q)
		if v < 8 || v > 8 {
			t.Errorf("q%v of constant-8 = %v, want 8", q, v)
		}
	}

	// 99 fast + 1 slow: p50 stays in the fast bucket, p999 reaches the
	// slow one.
	var h2 Histogram
	for i := 0; i < 99; i++ {
		h2.Observe(10)
	}
	h2.Observe(5000)
	if p50 := h2.Quantile(0.5); p50 < 8 || p50 > 15 {
		t.Errorf("p50 = %v, want within bucket [8,15]", p50)
	}
	if p999 := h2.Quantile(0.999); p999 < 4096 || p999 > 5000 {
		t.Errorf("p999 = %v, want in (4096, 5000]", p999)
	}
	if mx := h2.Quantile(1); mx != 5000 {
		t.Errorf("q1 = %v, want max 5000", mx)
	}
	// Quantiles are monotone in q.
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h2.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestSpanRecorderSamplingDeterminism(t *testing.T) {
	run := func() *SpanRecorder {
		r := NewSpanRecorder(4, 8)
		for i := uint64(0); i < 20; i++ {
			r.MaybeBegin(i, int(i%2), 100+i)
			r.Note(CauseCtrMiss, 50+i, 0)
			r.NoteFetch(2, 148, 148, 60, 148, 40+i, 250+i, true, false, false)
			r.EndAccess(252 + i)
		}
		return r
	}
	a, b := run(), run()
	if a.Sampled() != 5 {
		t.Fatalf("sampled %d trees from 20 accesses at 1-in-4, want 5", a.Sampled())
	}
	aj, _ := json.Marshal(a.TopSpans())
	bj, _ := json.Marshal(b.TopSpans())
	if string(aj) != string(bj) {
		t.Fatalf("identical runs produced different span trees:\n%s\n%s", aj, bj)
	}
	top := a.TopSpans()
	if len(top) != 5 {
		t.Fatalf("topK kept %d trees, want 5", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Total < top[i].Total {
			t.Fatalf("TopSpans not sorted slowest-first: %d before %d",
				top[i-1].Total, top[i].Total)
		}
	}
	// Latency rises with index, so the slowest exemplar is access 16.
	if top[0].Index != 16 || top[0].Total != 252+16 {
		t.Fatalf("slowest exemplar = access %d total %d, want 16/%d",
			top[0].Index, top[0].Total, 252+16)
	}
}

func TestSpanRecorderTopKBounded(t *testing.T) {
	r := NewSpanRecorder(1, 3)
	for i := uint64(0); i < 100; i++ {
		r.MaybeBegin(i, 0, i)
		r.EndAccess(i)
	}
	top := r.TopSpans()
	if len(top) != 3 {
		t.Fatalf("reservoir holds %d, want 3", len(top))
	}
	for i, want := range []uint64{99, 98, 97} {
		if top[i].Total != want {
			t.Fatalf("top[%d].Total = %d, want %d", i, top[i].Total, want)
		}
	}
}

func TestSpanRecorderCtrNesting(t *testing.T) {
	r := NewSpanRecorder(1, 1)
	r.SetLevels([]string{"l1"}, []uint64{2})
	r.MaybeBegin(0, 2, 7)
	r.LevelMisses(1)
	// Engine-side order on a secure counter miss: the MT walk, the counter
	// miss itself, then the MAC fetch.
	r.Note(CauseMTWalk, 0, 3)
	r.Note(CauseCtrMiss, 90, 0)
	r.Note(CauseMACFetch, 18, 0)
	r.NoteFetch(2, 148, 148, 130, 148, 40, 300, true, false, false)
	r.EndAccess(302)

	top := r.TopSpans()
	if len(top) != 1 {
		t.Fatalf("want 1 exemplar, got %d", len(top))
	}
	root := top[0].Root
	if root.Cause != CauseAccess || root.Dur != 302 {
		t.Fatalf("root = %+v, want access/302", root)
	}
	// Children: the level miss then the fetch.
	if len(root.Children) != 2 || root.Children[0].Cause != CauseLevelMiss {
		t.Fatalf("root children = %+v", root.Children)
	}
	fetch := root.Children[1]
	if fetch.Cause != CauseFetch {
		t.Fatalf("second child = %v, want fetch", fetch.Cause)
	}
	// Fetch children: walk, ctr (with the MT walk nested), data, then the
	// remaining engine notes in order.
	var ctr *Span
	for i := range fetch.Children {
		if fetch.Children[i].Cause == CauseCtrMiss {
			ctr = &fetch.Children[i]
		}
	}
	if ctr == nil {
		t.Fatalf("no ctr node in fetch children: %+v", fetch.Children)
	}
	if len(ctr.Children) != 1 || ctr.Children[0].Cause != CauseMTWalk {
		t.Fatalf("ctr children = %+v, want [mt_walk]", ctr.Children)
	}
	if ctr.Children[0].Value != 3 {
		t.Fatalf("mt walk depth = %d, want 3", ctr.Children[0].Value)
	}
	tail := fetch.Children[len(fetch.Children)-2:]
	if tail[0].Cause != CauseDataDRAM || tail[1].Cause != CauseMACFetch {
		t.Fatalf("trailing fetch children = %+v, want [data_dram, mac_fetch]", tail)
	}

	// The histograms observed every note regardless of nesting.
	if r.Hist(CauseMTWalk).Count() != 1 || r.Hist(CauseMTWalk).Max() != 3 {
		t.Fatalf("mt_walk hist count/max = %d/%d",
			r.Hist(CauseMTWalk).Count(), r.Hist(CauseMTWalk).Max())
	}
}

func TestSpanRecorderReport(t *testing.T) {
	r := NewSpanRecorder(2, 4)
	for i := uint64(0); i < 10; i++ {
		r.MaybeBegin(i, 0, i)
		r.Note(CauseCtrHit, 14, 0)
		r.EndAccess(100 + i*10)
	}
	rep := r.Report()
	if rep.SampleEvery != 2 || rep.Sampled != 5 {
		t.Fatalf("report header = %+v", rep)
	}
	acc := rep.Stat("access")
	if acc == nil || acc.Count != 10 {
		t.Fatalf("access stat = %+v, want count 10", acc)
	}
	if acc.P50 <= 0 || acc.P99 < acc.P50 || math.IsNaN(acc.P999) {
		t.Fatalf("bad percentiles: %+v", acc)
	}
	if rep.Stat("ctr_hit") == nil {
		t.Fatal("ctr_hit stat missing")
	}
	if rep.Stat("fetch") != nil {
		t.Fatal("fetch stat present despite no fetches")
	}
	if rep.Stat("nope") != nil || (*TailReport)(nil).Stat("access") != nil {
		t.Fatal("Stat on missing cause / nil report must return nil")
	}
}
