package obs

import (
	"bufio"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cosmos/internal/telemetry"
	"cosmos/internal/watch"
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
	for _, path := range []string{"/spans", "/phases"} {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s status = %d", path, w.Code)
		}
		if body := strings.TrimSpace(w.Body.String()); body != "[]" {
			t.Fatalf("%s body = %q, want []", path, body)
		}
	}
}

// TestEmptyHubsServeLikeNoHub: a plane whose hubs never get a recorder or
// watchdog (span tracing and -watch off) answers exactly like one without
// hubs, and registering into a nil hub is a no-op.
func TestEmptyHubsServeLikeNoHub(t *testing.T) {
	(*SpanHub)(nil).Register("x", telemetry.NewSpanRecorder(1, 1))
	(*WatchHub)(nil).Register("x", watch.New(nil, watch.Config{}))
	bare := NewServer(Config{Component: "cosmos-test"})
	hubs := NewServer(Config{Component: "cosmos-test", Spans: NewSpanHub(), Watch: NewWatchHub()})
	for _, path := range []string{"/spans", "/phases"} {
		var bodies [2]string
		for i, srv := range []*Server{bare, hubs} {
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			bodies[i] = w.Body.String()
		}
		if bodies[0] != bodies[1] {
			t.Fatalf("%s: empty hub serves %q, no hub %q", path, bodies[1], bodies[0])
		}
	}
}

func TestPhasesEndpoint(t *testing.T) {
	hub := NewWatchHub()
	dog := watch.New(nil, watch.Config{Signals: []string{"sig"}})
	for i := 0; i < 25; i++ {
		v := 10.0
		if i >= 20 {
			v = 100
		}
		dog.ObserveRow(telemetry.Row{
			Interval: i, Accesses: uint64(i+1) * 1000, Delta: 1000,
			Values: map[string]float64{"sig": v},
		})
	}
	hub.Register("mcf_COSMOS", dog)

	srv := NewServer(Config{Component: "cosmos-test", Watch: hub})
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/phases", nil))
	var got []RunPhases
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Run != "mcf_COSMOS" {
		t.Fatalf("runs = %+v", got)
	}
	if got[0].AnomalyCount == 0 || got[0].PhaseChanges == 0 {
		t.Fatalf("snapshot = %+v, want detections", got[0].Snapshot)
	}
	if len(got[0].Phases) < 2 || len(got[0].Anomalies) == 0 {
		t.Fatalf("phases/anomalies = %d/%d", len(got[0].Phases), len(got[0].Anomalies))
	}
}

func TestWatchNotifierPublishes(t *testing.T) {
	broker := NewBroker()
	ch, cancel := broker.Subscribe()
	defer cancel()

	var logBuf strings.Builder
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	notify := WatchNotifier(logger, broker, "mcf_COSMOS")
	notify(watch.Event{Kind: "anomaly", Signal: "sim.avg_fetch_lat", Interval: 12, Z: 7.5, Phase: 0})
	notify(watch.Event{Kind: "phase_change", Signal: "sim.avg_fetch_lat", Interval: 13, Phase: 1})

	ev := <-ch
	if ev.Type != "anomaly" {
		t.Fatalf("event type = %q, want anomaly", ev.Type)
	}
	var payload struct {
		Run   string      `json:"run"`
		Event watch.Event `json:"event"`
	}
	if err := json.Unmarshal(ev.Data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Run != "mcf_COSMOS" || payload.Event.Signal != "sim.avg_fetch_lat" {
		t.Fatalf("payload = %+v", payload)
	}
	if ev2 := <-ch; ev2.Type != "phase_change" {
		t.Fatalf("second event type = %q, want phase_change", ev2.Type)
	}
	if !strings.Contains(logBuf.String(), "watchdog detection") ||
		!strings.Contains(logBuf.String(), "sim.avg_fetch_lat") {
		t.Fatalf("log output = %q", logBuf.String())
	}

	// Nil logger and nil broker are both fine.
	WatchNotifier(nil, nil, "x")(watch.Event{Kind: "anomaly"})
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
