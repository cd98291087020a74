package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// traceEvent is one Chrome trace_event entry: a complete slice ("X") or a
// metadata record ("M"). Timestamps and durations are cycles written into
// the microsecond fields the Trace Event Format defines; viewers only
// compare magnitudes.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes span trees (typically SpanRecorder.TopSpans) as
// Chrome trace_event JSON ({"traceEvents": [...]}), the format
// about://tracing and Perfetto load directly. Each core is a process (pid)
// and each SpanCause a thread (tid) inside it, both named by metadata
// records. Every tree node becomes one "X" slice named by its Label, or by
// its cause when it has none. A core's trees are laid end to end in access
// order: each starts where the previous tree's latest node ended, so the
// exemplars read as one timeline per core. The output is a pure function of
// the trees: metadata first (pids, then tids, ascending), then the slices.
func WriteChromeTrace(w io.Writer, spans []AccessSpan) error {
	trees := append([]AccessSpan(nil), spans...)
	sort.Slice(trees, func(i, j int) bool {
		if trees[i].Core != trees[j].Core {
			return trees[i].Core < trees[j].Core
		}
		return trees[i].Index < trees[j].Index
	})

	var procs, threads, slices []traceEvent
	for i := 0; i < len(trees); {
		core := trees[i].Core
		var causes uint32 // bit c set: the core has a cause-c track
		var base uint64
		for ; i < len(trees) && trees[i].Core == core; i++ {
			root := len(slices)
			base = appendSlices(&slices, trees[i].Root, core, base, &causes)
			slices[root].Args = map[string]any{"access": trees[i].Index, "line": trees[i].Line}
		}
		procs = append(procs, traceEvent{Name: "process_name", Ph: "M", Pid: core,
			Args: map[string]any{"name": fmt.Sprintf("core%d", core)}})
		for c := SpanCause(0); c < numSpanCauses; c++ {
			if causes&(1<<c) != 0 {
				threads = append(threads, traceEvent{Name: "thread_name", Ph: "M", Pid: core, Tid: int(c),
					Args: map[string]any{"name": c.String()}})
			}
		}
	}

	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	sep := "\n"
	for _, ev := range append(append(procs, threads...), slices...) {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		bw.WriteString(sep)
		bw.Write(b)
		sep = ",\n"
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// appendSlices appends sp and its subtree as slices on core pid, offset by
// base, marks each node's cause in causes, and returns the latest end time.
func appendSlices(out *[]traceEvent, sp Span, pid int, base uint64, causes *uint32) uint64 {
	name := sp.Label
	if name == "" {
		name = sp.Cause.String()
	}
	ev := traceEvent{Name: name, Ph: "X", Ts: base + sp.Start, Dur: sp.Dur, Pid: pid, Tid: int(sp.Cause)}
	if sp.Value != 0 {
		ev.Args = map[string]any{"value": sp.Value}
	}
	*out = append(*out, ev)
	*causes |= 1 << sp.Cause
	end := ev.Ts + ev.Dur
	for _, ch := range sp.Children {
		if e := appendSlices(out, ch, pid, base, causes); e > end {
			end = e
		}
	}
	return end
}
