package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Broker is the fan-out hub of the /events SSE stream: producers Publish
// typed events (run lifecycle transitions, interval-sampler snapshots),
// every subscribed HTTP client receives them in publish order. Slow
// subscribers drop events rather than stall the campaign: each subscription
// has a bounded buffer and the SSE id field exposes gaps, so a tailing
// script can detect loss.
type Broker struct {
	mu      sync.Mutex
	subs    map[chan Event]struct{}
	closed  bool
	seq     uint64
	dropped atomic.Uint64
}

// Event is one server-sent event: a monotonically increasing ID, an event
// type ("run", "sample", ...) and a single-line JSON payload.
type Event struct {
	ID   uint64
	Type string
	Data []byte
}

// subBuffer bounds each subscriber's in-flight event queue.
const subBuffer = 256

// NewBroker creates an empty broker.
func NewBroker() *Broker {
	return &Broker{subs: make(map[chan Event]struct{})}
}

// Subscribe registers a new subscriber and returns its event channel plus a
// cancel function. The channel is closed by cancel or by Close; a closed
// channel is the subscriber's signal to finish its stream.
func (b *Broker) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, subBuffer)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			if _, ok := b.subs[ch]; ok {
				delete(b.subs, ch)
				close(ch)
			}
			b.mu.Unlock()
		})
	}
	return ch, cancel
}

// Publish marshals v and delivers it to every subscriber. Events are
// numbered in publish order; a subscriber whose buffer is full loses this
// event (counted in Dropped). Publishing to a closed broker is a no-op.
func (b *Broker) Publish(typ string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	b.publishRaw(typ, data)
}

func (b *Broker) publishRaw(typ string, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.seq++
	ev := Event{ID: b.seq, Type: typ, Data: data}
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
			b.dropped.Add(1)
		}
	}
}

// Dropped reports how many subscriber deliveries were lost to full buffers.
func (b *Broker) Dropped() uint64 { return b.dropped.Load() }

// Subscribers reports the current subscriber count.
func (b *Broker) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close ends the stream: every subscriber channel is closed (their SSE
// handlers finish their responses) and later Publish/Subscribe calls become
// no-ops. Idempotent.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.subs {
		delete(b.subs, ch)
		close(ch)
	}
}

// SampleWriter adapts the broker into an interval-sampler JSONL sink: every
// line the sampler writes is published as one "sample" event wrapping the
// row with the run's label, so one /events stream can carry the interleaved
// time-series of every concurrently executing simulation.
func (b *Broker) SampleWriter(label string) io.Writer {
	prefix, _ := json.Marshal(label)
	return &sampleWriter{b: b, prefix: prefix}
}

type sampleWriter struct {
	b      *Broker
	prefix []byte // the JSON-encoded run label
}

// Write publishes each complete JSONL line. The sampler writes one full
// line (including the trailing newline) per call, so no partial-line
// buffering is needed; defensively, anything not newline-terminated is
// still published as-is.
func (w *sampleWriter) Write(p []byte) (int, error) {
	for _, line := range bytes.Split(bytes.TrimRight(p, "\n"), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var buf bytes.Buffer
		buf.Grow(len(w.prefix) + len(line) + 24)
		buf.WriteString(`{"run":`)
		buf.Write(w.prefix)
		buf.WriteString(`,"stats":`)
		buf.Write(line)
		buf.WriteString(`}`)
		w.b.publishRaw("sample", buf.Bytes())
	}
	return len(p), nil
}
