package obs

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cosmos/internal/telemetry"
)

func TestSpansEndpoint(t *testing.T) {
	hub := NewSpanHub()
	rec := telemetry.NewSpanRecorder(1, 4)
	for i := uint64(0); i < 6; i++ {
		rec.MaybeBegin(i, 0, 100+i)
		rec.Note(telemetry.CauseCtrMiss, 90, 0)
		rec.NoteFetch(2, 148, 148, 90, 148, 40, 300+i, true, false, false)
		rec.EndAccess(302 + i)
	}
	hub.Register("mcf_COSMOS", rec)

	srv := NewServer(Config{Component: "cosmos-test", Spans: hub})
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/spans", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/spans status = %d", w.Code)
	}
	var got []RunSpans
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Run != "mcf_COSMOS" {
		t.Fatalf("runs = %+v", got)
	}
	if len(got[0].Top) != 4 {
		t.Fatalf("top-K = %d exemplars, want 4", len(got[0].Top))
	}
	if got[0].Top[0].Total != 307 {
		t.Fatalf("slowest exemplar total = %d, want 307", got[0].Top[0].Total)
	}
	if st := got[0].Tail.Stat("fetch"); st == nil || st.Count != 6 || st.P99 == 0 {
		t.Fatalf("fetch tail stat = %+v", st)
	}

	// Dropping the run empties the document again.
	hub.Drop("mcf_COSMOS")
	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/spans", nil))
	if body := strings.TrimSpace(w.Body.String()); body != "[]" && body != "null" {
		t.Fatalf("dropped hub body = %q", body)
	}
}

func TestSpansEndpointWithoutHub(t *testing.T) {
	srv := NewServer(Config{Component: "cosmos-test"})
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/spans", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/spans status = %d", w.Code)
	}
	if body := strings.TrimSpace(w.Body.String()); body != "[]" {
		t.Fatalf("/spans body = %q, want []", body)
	}
}

// TestEmptyHubsServeLikeNoHub: a plane whose span hub never gets a
// recorder (span tracing off) answers exactly like one without a hub, and
// registering into a nil hub is a no-op.
func TestEmptyHubsServeLikeNoHub(t *testing.T) {
	(*SpanHub)(nil).Register("x", telemetry.NewSpanRecorder(1, 1))
	bare := NewServer(Config{Component: "cosmos-test"})
	hub := NewServer(Config{Component: "cosmos-test", Spans: NewSpanHub()})
	var bodies [2]string
	for i, srv := range []*Server{bare, hub} {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/spans", nil))
		bodies[i] = w.Body.String()
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("/spans: empty hub serves %q, no hub %q", bodies[1], bodies[0])
	}
}

// TestEventsKeepaliveReachesSlowSubscriber pins the idle-stream contract:
// a subscriber that receives no events still sees periodic `: keep-alive`
// comment lines, so proxies with idle timeouts keep the stream open.
func TestEventsKeepaliveReachesSlowSubscriber(t *testing.T) {
	broker := NewBroker()
	srv := NewServer(Config{
		Component: "cosmos-test",
		Events:    broker,
		Heartbeat: 20 * time.Millisecond,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(t.Context())

	resp, err := http.Get(srv.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// A slow subscriber: read raw lines one at a time, never publish. At
	// least two heartbeats must arrive well before a 15s default would.
	lines := make(chan string, 32)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	keepalives := 0
	deadline := time.After(5 * time.Second)
	for keepalives < 2 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream ended before two keepalives")
			}
			if strings.HasPrefix(line, ":") {
				keepalives++
			}
		case <-deadline:
			t.Fatalf("saw %d keepalives in 5s, want 2", keepalives)
		}
	}

	// The stream still delivers real events after idling.
	waitSubscribed(t, broker)
	broker.Publish("run", map[string]int{"n": 1})
	eventDeadline := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream ended before the published event")
			}
			if line == `data: {"n":1}` {
				return
			}
		case <-eventDeadline:
			t.Fatal("published event never arrived after keepalives")
		}
	}
}
