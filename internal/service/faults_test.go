package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// instantRunner returns fixed bytes immediately, counting runs.
type instantRunner struct {
	runs  atomic.Int32
	bytes []byte
}

func newInstantRunner() *instantRunner {
	return &instantRunner{bytes: []byte(`{"fake":"report"}` + "\n")}
}

func (r *instantRunner) run(ctx context.Context, spec experiments.Spec) ([]byte, error) {
	r.runs.Add(1)
	return r.bytes, nil
}

// TestPanicIsolationSelfHeals: a panicking run fails only its job; the
// worker survives and executes the next one; the panic is counted.
func TestPanicIsolationSelfHeals(t *testing.T) {
	var n atomic.Int32
	s := New(Config{Workers: 1, QueueDepth: 4, run: func(ctx context.Context, spec experiments.Spec) ([]byte, error) {
		if n.Add(1) == 1 {
			panic("interpreter exploded")
		}
		return []byte("ok"), nil
	}})
	defer s.Shutdown(context.Background())

	a, err := s.Submit(specN(1), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, a.ID, StateFailed)
	if !strings.Contains(st.Error, "interpreter exploded") {
		t.Errorf("panic text lost: %q", st.Error)
	}
	// Same (single-worker) pool must still execute the next job.
	b, err := s.Submit(specN(2), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, b.ID, StateDone)
	m := s.Metrics()
	if m["service/panics_recovered"] != 1 {
		t.Errorf("panics_recovered = %v, want 1", m["service/panics_recovered"])
	}
	if m["service/failed"] != 1 || m["service/completed"] != 1 {
		t.Errorf("failed=%v completed=%v", m["service/failed"], m["service/completed"])
	}
}

// TestInjectedRunFaults: with a run error rate of 1, every job fails
// with the injected sentinel; nothing is cached; counters fire.
func TestInjectedRunFaults(t *testing.T) {
	r := newInstantRunner()
	inj := faults.New(1, faults.Profile{faults.Run: {ErrorRate: 1}})
	s := New(Config{Workers: 1, QueueDepth: 4, run: r.run, Faults: inj})
	defer s.Shutdown(context.Background())

	st, err := s.Submit(specN(1), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, st.ID, StateFailed)
	if !strings.Contains(got.Error, "injected fault") {
		t.Errorf("error = %q, want injected sentinel text", got.Error)
	}
	if r.runs.Load() != 0 {
		t.Errorf("real runner executed %d times behind an injected failure", r.runs.Load())
	}
	m := s.Metrics()
	if m["faults/run/errors"] != 1 {
		t.Errorf("faults/run/errors = %v, want 1", m["faults/run/errors"])
	}
	if m["faults/injected_total"] < 1 {
		t.Errorf("faults/injected_total = %v, want >= 1", m["faults/injected_total"])
	}
}

// TestInjectedPanicsSelfHeal: run panic rate 1 — every job fails via
// the recovery path and the pool keeps accepting work.
func TestInjectedPanicsSelfHeal(t *testing.T) {
	r := newInstantRunner()
	inj := faults.New(2, faults.Profile{faults.Run: {PanicRate: 1}})
	s := New(Config{Workers: 1, QueueDepth: 8, run: r.run, Faults: inj})
	defer s.Shutdown(context.Background())

	for i := uint32(1); i <= 3; i++ {
		st, err := s.Submit(specN(i), time.Time{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		got := waitState(t, s, st.ID, StateFailed)
		if !strings.Contains(got.Error, "injected chaos panic") {
			t.Errorf("job %d error = %q", i, got.Error)
		}
	}
	if m := s.Metrics(); m["service/panics_recovered"] != 3 || m["faults/run/panics"] != 3 {
		t.Errorf("panics_recovered=%v faults/run/panics=%v, want 3, 3",
			m["service/panics_recovered"], m["faults/run/panics"])
	}
}

// TestDeadlineCancelsRunningJob: the job's deadline rides the context
// into the runner; when it passes mid-run the job expires (not fails)
// and the expired_running counter fires.
func TestDeadlineCancelsRunningJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, run: func(ctx context.Context, spec experiments.Spec) ([]byte, error) {
		<-ctx.Done() // simulate a long experiment honoring cancellation
		return nil, ctx.Err()
	}})
	defer s.Shutdown(context.Background())

	// The deadline must clear the 0.5s admission fallback estimate so
	// the job is admitted, starts, and only then expires.
	st, err := s.Submit(specN(1), time.Now().Add(700*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, st.ID, StateExpired)
	if got.Error != "deadline exceeded during execution" {
		t.Errorf("error = %q", got.Error)
	}
	if m := s.Metrics(); m["service/expired_running"] != 1 {
		t.Errorf("expired_running = %v, want 1", m["service/expired_running"])
	}
}

// TestCacheFaultForcesRecompute: an injected cache fault turns a hit
// into a miss — the spec recomputes, the caller still gets bytes.
func TestCacheFaultForcesRecompute(t *testing.T) {
	r := newInstantRunner()
	inj := faults.New(3, faults.Profile{faults.Cache: {ErrorRate: 1}})
	s := New(Config{Workers: 1, QueueDepth: 4, run: r.run, Faults: inj})
	defer s.Shutdown(context.Background())

	first, err := s.Submit(specN(9), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateDone)
	second, err := s.Submit(specN(9), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Error("faulted cache lookup served a hit")
	}
	waitState(t, s, second.ID, StateDone)
	if r.runs.Load() != 2 {
		t.Errorf("runs = %d, want 2 (recompute behind cache fault)", r.runs.Load())
	}
	res, _, _ := s.Result(second.ID)
	if string(res) != string(r.bytes) {
		t.Errorf("recomputed bytes = %q", res)
	}
	if m := s.Metrics(); m["service/cache_faults"] < 1 {
		t.Errorf("cache_faults = %v, want >= 1", m["service/cache_faults"])
	}
}

// TestAdmitFaultIsRetryableOverload: an injected admission fault looks
// exactly like backpressure — QueueFullError in-process, 503 with
// Retry-After over HTTP — so clients retry it with the same policy.
func TestAdmitFaultIsRetryableOverload(t *testing.T) {
	r := newInstantRunner()
	inj := faults.New(4, faults.Profile{faults.Admit: {ErrorRate: 1}})
	s := New(Config{Workers: 1, QueueDepth: 4, run: r.run, Faults: inj})
	defer s.Shutdown(context.Background())

	_, err := s.Submit(specN(1), time.Time{})
	full, ok := err.(*QueueFullError)
	if !ok {
		t.Fatalf("err = %v, want QueueFullError", err)
	}
	if full.RetryAfter < minRetryAfter || !strings.Contains(full.Reason, "injected") {
		t.Errorf("QueueFullError = %+v", full)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"exps":["table1"],"seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("HTTP admit fault: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if m := s.Metrics(); m["service/rejected_injected"] != 2 {
		t.Errorf("rejected_injected = %v, want 2", m["service/rejected_injected"])
	}
}

// TestHTTPFaultMiddleware: injected HTTP errors 500 every API route
// but never /metrics or /healthz (chaos must stay observable).
func TestHTTPFaultMiddleware(t *testing.T) {
	r := newInstantRunner()
	inj := faults.New(5, faults.Profile{faults.HTTP: {ErrorRate: 1}})
	s := New(Config{Workers: 1, QueueDepth: 4, run: r.run, Faults: inj})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("faulted route status = %d, want 500", resp.StatusCode)
	}
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200 (exempt from chaos)", path, resp.StatusCode)
		}
	}
	if m := s.Metrics(); m["faults/http/errors"] < 1 {
		t.Errorf("faults/http/errors = %v, want >= 1", m["faults/http/errors"])
	}
}

// TestDeadlineHeader: X-Pasm-Deadline-Ms drives admission exactly like
// the body field; garbage in the header is a 400.
func TestDeadlineHeader(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, run: g.run})
	defer func() { g.release(); s.Shutdown(context.Background()) }()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Occupy the worker so the estimate (0.5s fallback) dwarfs a 1ms
	// header deadline.
	if _, err := s.Submit(specN(1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs",
		strings.NewReader(`{"spec":{"exps":["table1"],"seed":2}}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("header deadline: status = %d, want 503 (unmeetable)", resp.StatusCode)
	}

	req, _ = http.NewRequest("POST", srv.URL+"/v1/jobs",
		strings.NewReader(`{"spec":{"exps":["table1"],"seed":3}}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "soon")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage header: status = %d, want 400", resp.StatusCode)
	}
}

// TestRetriedSubmitsObservable: requests marked attempt >= 2 land in
// service/retried_submits, making client retries visible in /metrics.
func TestRetriedSubmitsObservable(t *testing.T) {
	r := newInstantRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, run: r.run})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for attempt, want := range map[string]float64{"1": 0, "2": 1} {
		req, _ := http.NewRequest("GET", srv.URL+"/v1/jobs", nil)
		req.Header.Set(AttemptHeader, attempt)
		before := s.Metrics()["service/retried_submits"]
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := s.Metrics()["service/retried_submits"] - before; got != want {
			t.Errorf("attempt %s: retried_submits delta = %v, want %v", attempt, got, want)
		}
	}
}

// TestInjectedDelayStretchesRun: a run-point delay holds the job in
// running longer than the delay; the job still completes.
func TestInjectedDelayStretchesRun(t *testing.T) {
	r := newInstantRunner()
	inj := faults.New(6, faults.Profile{faults.Run: {DelayRate: 1, Delay: 50 * time.Millisecond}})
	s := New(Config{Workers: 1, QueueDepth: 4, run: r.run, Faults: inj})
	defer s.Shutdown(context.Background())

	start := time.Now()
	st, err := s.Submit(specN(1), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("job finished in %s, want >= 50ms injected delay", d)
	}
	if m := s.Metrics(); m["faults/run/delays"] != 1 {
		t.Errorf("faults/run/delays = %v, want 1", m["faults/run/delays"])
	}
}
