package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

func spec1() experiments.Spec {
	return experiments.Spec{Exps: []string{"table1"}, Seed: 1}
}

// TestErrorClassification is the retryable/permanent split, table
// driven: transient statuses and transport faults retry, client
// errors do not.
func TestErrorClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		retryable bool
	}{
		{"nil", nil, false},
		{"503 backpressure", &APIError{Status: 503}, true},
		{"500 server fault", &APIError{Status: 500}, true},
		{"502 bad gateway", &APIError{Status: 502}, true},
		{"504 gateway timeout", &APIError{Status: 504}, true},
		{"429 overload", &APIError{Status: 429}, true},
		{"408 request timeout", &APIError{Status: 408}, true},
		{"400 bad spec", &APIError{Status: 400}, false},
		{"404 unknown job", &APIError{Status: 404}, false},
		{"409 not finished", &APIError{Status: 409}, false},
		{"410 expired", &APIError{Status: 410}, false},
		{"422 unprocessable", &APIError{Status: 422}, false},
		{"wrapped 503", fmt.Errorf("submit: %w", &APIError{Status: 503}), true},
		{"wrapped 400", fmt.Errorf("submit: %w", &APIError{Status: 400}), false},
		{"transport refused", &url.Error{Op: "Post", URL: "http://x", Err: errors.New("connection refused")}, true},
		{"caller context canceled", context.Canceled, false},
		{"caller deadline exceeded", context.DeadlineExceeded, false},
		{"other error", errors.New("boom"), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.retryable {
			t.Errorf("%s: Retryable = %v, want %v", tc.name, got, tc.retryable)
		}
	}
}

// TestRetryUntilSuccess: transient 503s are retried with backoff until
// the server recovers; the attempt header marks each retry.
func TestRetryUntilSuccess(t *testing.T) {
	var calls atomic.Int32
	var attempts []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts = append(attempts, r.Header.Get(service.AttemptHeader))
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(503)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		fmt.Fprint(w, `{"id":"j1","state":"queued"}`)
	}))
	defer srv.Close()

	var slept []time.Duration
	c := New(srv.URL).WithRetry(RetryPolicy{
		MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, Seed: 42,
		sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	st, err := c.Submit(context.Background(), spec1(), SubmitOptions{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID != "j1" {
		t.Errorf("job id = %q", st.ID)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
	if c.Retries() != 2 {
		t.Errorf("Retries() = %d, want 2", c.Retries())
	}
	if want := []string{"1", "2", "3"}; len(attempts) != 3 || attempts[0] != want[0] || attempts[1] != want[1] || attempts[2] != want[2] {
		t.Errorf("attempt headers = %v, want %v", attempts, want)
	}
	// Retry-After (1s) dominates the 10ms base backoff on each wait.
	for i, d := range slept {
		if d < time.Second {
			t.Errorf("sleep %d = %s, want >= 1s (Retry-After floor)", i, d)
		}
	}
}

// TestNoRetryOnPermanent: 400/422 fail immediately, zero retries.
func TestNoRetryOnPermanent(t *testing.T) {
	for _, status := range []int{400, 404, 422} {
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(status)
			fmt.Fprint(w, `{"error":"bad"}`)
		}))
		c := New(srv.URL).WithRetry(RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond,
			sleep: func(time.Duration) {}})
		_, err := c.Submit(context.Background(), spec1(), SubmitOptions{})
		var api *APIError
		if !errors.As(err, &api) || api.Status != status {
			t.Errorf("status %d: err = %v", status, err)
		}
		if api != nil && api.Retryable() {
			t.Errorf("status %d claims retryable", status)
		}
		if calls.Load() != 1 {
			t.Errorf("status %d: server saw %d calls, want 1 (no retries)", status, calls.Load())
		}
		srv.Close()
	}
}

// TestRetryExhaustion: a persistently failing server exhausts
// MaxAttempts and returns the last error.
func TestRetryExhaustion(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(503)
		fmt.Fprint(w, `{"error":"still full"}`)
	}))
	defer srv.Close()
	c := New(srv.URL).WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond,
		sleep: func(time.Duration) {}})
	_, err := c.Submit(context.Background(), spec1(), SubmitOptions{})
	var api *APIError
	if !errors.As(err, &api) || api.Status != 503 {
		t.Fatalf("err = %v, want final 503", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
}

// TestRetryTransportError: a dead endpoint is retried (connection
// refused is transient) and the transport error surfaces at the end.
func TestRetryTransportError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	addr := srv.URL
	srv.Close() // nothing listens now
	c := New(addr).WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond,
		sleep: func(time.Duration) {}})
	_, err := c.Submit(context.Background(), spec1(), SubmitOptions{})
	if err == nil {
		t.Fatal("submit to dead endpoint succeeded")
	}
	if c.Retries() != 2 {
		t.Errorf("Retries() = %d, want 2", c.Retries())
	}
}

// TestBackoffGrowsAndHonorsCap: nominal backoff doubles per attempt,
// jitter keeps it in [b/2, b], MaxBackoff caps it.
func TestBackoffGrowsAndHonorsCap(t *testing.T) {
	c := New("127.0.0.1:1").WithRetry(RetryPolicy{
		MaxAttempts: 8, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 7,
	})
	for attempt, wantMax := range map[int]time.Duration{
		2: 100 * time.Millisecond,
		3: 200 * time.Millisecond,
		4: 400 * time.Millisecond,
		6: time.Second, // capped
		8: time.Second,
	} {
		got := c.backoff(attempt, nil)
		if got < wantMax/2 || got > wantMax {
			t.Errorf("attempt %d: backoff %s outside [%s, %s]", attempt, got, wantMax/2, wantMax)
		}
	}
}

// TestDeterministicJitter: two clients with the same seed draw the
// same backoff sequence; different seeds diverge.
func TestDeterministicJitter(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		c := New("127.0.0.1:1").WithRetry(RetryPolicy{
			MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second, Seed: seed})
		var out []time.Duration
		for a := 2; a <= 6; a++ {
			out = append(out, c.backoff(a, nil))
		}
		return out
	}
	a, b, c2 := seq(11), seq(11), seq(12)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, a[i], b[i])
		}
		if a[i] != c2[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}

// TestBackoffAbortsOnCancel: a canceled context ends a backoff wait
// promptly with ctx.Err() instead of sleeping out the full delay.
func TestBackoffAbortsOnCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(503)
		fmt.Fprint(w, `{"error":"always full"}`)
	}))
	defer srv.Close()

	// Huge backoff: if the sleep were not ctx-aware, the test would
	// block for minutes.
	c := New(srv.URL).WithRetry(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Minute, MaxBackoff: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond) // let the first attempt fail and the wait begin
		cancel()
	}()
	start := time.Now()
	_, err := c.Submit(ctx, spec1(), SubmitOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("canceled submit took %s — backoff did not abort", d)
	}
}

// TestBackoffAbortsOnDeadline: same property for a deadline, through
// the test sleep override path.
func TestBackoffAbortsOnDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(503)
		fmt.Fprint(w, `{"error":"always full"}`)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := New(srv.URL).WithRetry(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond,
		sleep: func(time.Duration) { cancel() }}) // context dies mid-wait
	_, err := c.Submit(ctx, spec1(), SubmitOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled after mid-wait cancel", err)
	}
}

// TestBodyCutRetryable: a response body cut mid-stream (unexpected
// EOF) classifies as retryable.
func TestBodyCutRetryable(t *testing.T) {
	err := fmt.Errorf("reading body: %w", io.ErrUnexpectedEOF)
	if !Retryable(err) {
		t.Error("io.ErrUnexpectedEOF not retryable")
	}
}

// TestResultMeta: the cached marker and producing code version ride
// the X-Pasm-Cached and X-Pasm-Code headers.
func TestResultMeta(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Pasm-Cached", "true")
		w.Header().Set(service.CodeHeader, "pasm-sim/test")
		fmt.Fprint(w, `{"doc":1}`)
	}))
	defer srv.Close()
	meta, err := New(srv.URL).ResultMeta(context.Background(), "j1")
	if err != nil || !meta.Cached || string(meta.Body) != `{"doc":1}` || meta.Code != "pasm-sim/test" {
		t.Fatalf("ResultMeta = %+v, %v", meta, err)
	}
}

// TestWaitOnce: a single long-poll round trip carries the timeout and
// returns a non-terminal status without looping.
func TestWaitOnce(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if r.URL.Query().Get("timeout_ms") != "1500" {
			t.Errorf("timeout_ms = %q", r.URL.Query().Get("timeout_ms"))
		}
		fmt.Fprint(w, `{"id":"j1","state":"running"}`)
	}))
	defer srv.Close()
	st, err := New(srv.URL).WaitOnce(context.Background(), "j1", 1500*time.Millisecond)
	if err != nil || st.State != service.StateRunning {
		t.Fatalf("WaitOnce = %+v, %v", st, err)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls, want exactly 1", calls.Load())
	}
}

// TestFill: the peer-fill request carries the canonical spec, the
// producing code version, and (when configured) the shared secret as
// headers with the result bytes verbatim in the body; 200 means
// stored, 208 means the peer already had it, anything else is an
// error.
func TestFill(t *testing.T) {
	var status atomic.Int32
	status.Store(http.StatusOK)
	var gotSpec, gotCode, gotSecret, gotBody string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != service.FillPath {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		gotSpec = r.Header.Get(service.FillSpecHeader)
		gotCode = r.Header.Get(service.FillCodeHeader)
		gotSecret = r.Header.Get(service.FillSecretHeader)
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
		w.WriteHeader(int(status.Load()))
	}))
	defer srv.Close()

	ctx := context.Background()
	cl := New(srv.URL).WithFillSecret("fill-me")
	stored, err := cl.Fill(ctx, spec1(), []byte("result-bytes\n"), "pasm-sim/test")
	if err != nil || !stored {
		t.Fatalf("Fill = (%v, %v), want stored", stored, err)
	}
	if gotSpec == "" || gotCode != "pasm-sim/test" || gotSecret != "fill-me" || gotBody != "result-bytes\n" {
		t.Errorf("fill request: spec=%q code=%q secret=%q body=%q", gotSpec, gotCode, gotSecret, gotBody)
	}

	status.Store(http.StatusAlreadyReported)
	if stored, err = cl.Fill(ctx, spec1(), []byte("x"), "pasm-sim/test"); err != nil || stored {
		t.Errorf("duplicate Fill = (%v, %v), want (false, nil)", stored, err)
	}

	// Without WithFillSecret the header is simply absent.
	status.Store(http.StatusOK)
	if _, err = New(srv.URL).Fill(ctx, spec1(), []byte("x"), "pasm-sim/test"); err != nil {
		t.Fatalf("secretless Fill: %v", err)
	}
	if gotSecret != "" {
		t.Errorf("secretless Fill sent secret header %q", gotSecret)
	}

	status.Store(http.StatusForbidden)
	if _, err = cl.Fill(ctx, spec1(), []byte("x"), "pasm-sim/test"); err == nil {
		t.Error("rejected Fill returned nil error")
	}
}

// TestResponseBodyBound: both read paths — do (here via Result) and
// Fill — accept a response body of exactly maxResponseBytes and fail
// one byte past it with an error that names the limit.
func TestResponseBodyBound(t *testing.T) {
	var size atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), int(size.Load())))
	}))
	defer srv.Close()
	c := New(srv.URL)
	ctx := context.Background()
	paths := map[string]func() error{
		"result": func() error {
			body, err := c.Result(ctx, "j1")
			if err == nil && len(body) != int(size.Load()) {
				t.Errorf("result: read %d bytes, want %d", len(body), size.Load())
			}
			return err
		},
		"fill": func() error {
			_, err := c.Fill(ctx, spec1(), []byte("{}"), experiments.CodeVersion)
			return err
		},
	}
	for name, call := range paths {
		size.Store(maxResponseBytes)
		if err := call(); err != nil {
			t.Errorf("%s: body of exactly the limit: %v", name, err)
		}
		size.Store(maxResponseBytes + 1)
		err := call()
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxResponseBytes)) {
			t.Errorf("%s: body past the limit: err = %v, want one naming %d", name, err, maxResponseBytes)
		}
	}
}
