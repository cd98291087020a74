package cliflags

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cosmos/internal/memsys"
	"cosmos/internal/obs"
	"cosmos/internal/secmem"
	"cosmos/internal/sim"
	"cosmos/internal/telemetry"
	"cosmos/internal/trace"
)

const sinkAccesses = 20_000

// newSinkSystem builds a small COSMOS system with its metrics registered.
func newSinkSystem() (*sim.System, *telemetry.Registry) {
	cfg := sim.DefaultConfig()
	cfg.MC.MemBytes = 1 << 30
	s := sim.New(cfg, secmem.DesignCosmos())
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg.Root())
	return s, reg
}

func runSinkSystem(s *sim.System) sim.Results {
	gen := trace.NewUniform(memsys.Region{Base: 0, Size: 512 << 20, Elem: 1}, 20, 4, 7)
	return s.Run(trace.Limit(gen, sinkAccesses), sinkAccesses)
}

// attachAndRun attaches rs to a fresh system, runs it and calls finish.
func attachAndRun(t *testing.T, rs *RunSinks, statsPath, tracePath string) sim.Results {
	t.Helper()
	s, reg := newSinkSystem()
	finish, err := rs.Attach(reg, "run", s, statsPath, tracePath)
	if err != nil {
		t.Fatal(err)
	}
	r := runSinkSystem(s)
	if err := finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return r
}

func TestRunSinksStatsFormatFollowsPath(t *testing.T) {
	dir := t.TempDir()
	rs := &RunSinks{Spans: parseSpans(t), Interval: 5_000}
	jsonlPath := filepath.Join(dir, "run.jsonl")
	csvPath := filepath.Join(dir, "run.csv")
	attachAndRun(t, rs, jsonlPath, "")
	attachAndRun(t, rs, csvPath, "")

	lines := strings.Split(strings.TrimSpace(readFile(t, jsonlPath)), "\n")
	if len(lines) != sinkAccesses/5_000 {
		t.Fatalf("JSONL has %d rows, want %d", len(lines), sinkAccesses/5_000)
	}
	for _, l := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(l), &row); err != nil {
			t.Fatalf("JSONL row %q: %v", l, err)
		}
	}
	rows := strings.Split(strings.TrimSpace(readFile(t, csvPath)), "\n")
	if len(rows) != 1+sinkAccesses/5_000 || !strings.HasPrefix(rows[0], "interval,accesses,") {
		t.Fatalf("CSV is not a header plus one row per interval:\n%s", strings.Join(rows, "\n"))
	}
}

func TestRunSinksTraceWrittenAtFinish(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	rs := &RunSinks{Spans: parseSpans(t, "-span-sample", "16"), Interval: 5_000}
	r := attachAndRun(t, rs, "", tracePath)
	if r.Tail == nil {
		t.Fatal("span recorder not attached: Results carry no Tail")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(readFile(t, tracePath)), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace file holds no trace events (err %v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("an empty stats path wrote a file: %d entries in %s", len(entries), dir)
	}
}

func TestRunSinksNoSinkIsBare(t *testing.T) {
	rs := &RunSinks{Spans: parseSpans(t), Interval: 5_000}
	if rs.Enabled("") {
		t.Fatal("Enabled with no sink, plane, spans or watchdog")
	}
	got := attachAndRun(t, rs, "", "")
	s, _ := newSinkSystem()
	if want := runSinkSystem(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("Results differ from a bare run:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunSinksRejectsTraceWithoutSpans(t *testing.T) {
	s, reg := newSinkSystem()
	rs := &RunSinks{Spans: parseSpans(t), Interval: 5_000}
	if _, err := rs.Attach(reg, "run", s, "", filepath.Join(t.TempDir(), "t.json")); err == nil {
		t.Fatal("Attach accepted a trace path without -span-sample")
	}
}

func TestRunSinksFinishReturnsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes")
	}
	s, reg := newSinkSystem()
	rs := &RunSinks{Spans: parseSpans(t), Interval: 5_000}
	finish, err := rs.Attach(reg, "run", s, "/dev/full", "")
	if err != nil {
		t.Fatal(err)
	}
	runSinkSystem(s)
	if err := finish(); err == nil || !strings.Contains(err.Error(), "no space") {
		t.Fatalf("finish returned %v, want the stats sink's write error", err)
	}
}

func TestRunSinksCreateErrorBeforeRun(t *testing.T) {
	s, reg := newSinkSystem()
	rs := &RunSinks{Spans: parseSpans(t), Interval: 5_000}
	missing := filepath.Join(t.TempDir(), "missing", "run.jsonl")
	if _, err := rs.Attach(reg, "run", s, missing, ""); err == nil {
		t.Fatal("Attach accepted a stats path in a missing directory")
	}
}

func TestObsServeEmptyListenStartsNothing(t *testing.T) {
	var log bytes.Buffer
	built := false
	stop, err := (&Obs{}).Serve(obs.Config{
		Component: "test",
		Logger:    slog.New(slog.NewTextHandler(&log, nil)),
		Attach:    func(*http.ServeMux) { built = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if built || log.Len() != 0 {
		t.Fatalf("empty -listen built a server (%v) or logged %q", built, log.String())
	}
}

func TestObsServeListensAndStops(t *testing.T) {
	var log bytes.Buffer
	stop, err := (&Obs{Listen: "127.0.0.1:0"}).Serve(obs.Config{
		Component: "test",
		Logger:    slog.New(slog.NewTextHandler(&log, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	_, addr, ok := strings.Cut(strings.TrimSpace(log.String()), "addr=")
	if !ok {
		t.Fatalf("no listening line logged: %q", log.String())
	}
	resp, err := http.Get(addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %d", resp.StatusCode)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
