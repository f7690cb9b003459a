// Package client is the thin Go client for the pasmd experiment
// service (internal/service over HTTP). It speaks the /v1 job API:
// submit a spec, poll or long-poll its status, and fetch the result
// document — bytes identical to what `pasmbench -json` produces
// locally with host timings off, which is what lets `pasmbench
// -remote` byte-compare the two paths.
//
// Resilience: a RetryPolicy (WithRetry) retries transient failures —
// transport errors, timeouts, and retryable statuses (408/429/5xx) —
// with exponential backoff, deterministic jitter, and the server's
// Retry-After hint honored as a floor. Permanent client errors (400,
// 404, 422, ...) fail immediately. Retries mark themselves with the
// X-Pasm-Attempt header so the server's /metrics counts them.
package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// APIError is any non-2xx response. For 503 it carries the server's
// Retry-After hint.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("pasmd: %s (HTTP %d, retry after %s)", e.Message, e.Status, e.RetryAfter)
	}
	return fmt.Sprintf("pasmd: %s (HTTP %d)", e.Message, e.Status)
}

// Temporary reports whether the request may succeed if retried (the
// backpressure rejections). Kept for compatibility; Retryable is the
// broader classification the retry policy uses.
func (e *APIError) Temporary() bool { return e.Status == http.StatusServiceUnavailable }

// Retryable reports whether the status marks a transient condition:
// backpressure (503), overload (429), server faults (500/502/504), or
// a request timeout (408). Client errors like 400 and 422 are
// permanent — retrying an invalid spec can never succeed.
func (e *APIError) Retryable() bool {
	switch e.Status {
	case http.StatusRequestTimeout, http.StatusTooManyRequests,
		http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Retryable classifies any client error: APIErrors by status, and
// transport-level failures (connection refused/reset, aborted
// responses, timeouts) as retryable unless the caller's context ended.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var api *APIError
	if errors.As(err, &api) {
		return api.Retryable()
	}
	var uerr *url.Error
	if errors.As(err, &uerr) {
		return true // transport-level: refused, reset, EOF, timeout
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return true // response body cut mid-stream: the read failed, retry
	}
	return false
}

// RetryPolicy configures automatic retries of transient failures.
// The zero policy never retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request (1 or less
	// disables retries).
	MaxAttempts int
	// BaseBackoff is the first retry's nominal delay, doubling each
	// attempt. Default 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 5s.
	MaxBackoff time.Duration
	// Seed drives the deterministic jitter (full jitter in
	// [backoff/2, backoff]); two clients with different seeds desync
	// even when rejected in lockstep.
	Seed uint64

	// sleep overrides waiting (tests).
	sleep func(time.Duration)
}

// Client talks to one pasmd instance.
type Client struct {
	base       string
	hc         *http.Client
	retry      RetryPolicy
	fillSecret string
	tracer     *telemetry.Tracer

	jitterState atomic.Uint64
	retries     atomic.Int64
}

// New returns a client for addr ("host:port" or a full http URL).
func New(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{base: strings.TrimRight(addr, "/"), hc: &http.Client{}}
}

// WithRetry installs a retry policy and returns the client.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	c.retry = p
	c.jitterState.Store(p.Seed)
	return c
}

// WithTransport installs a custom HTTP transport and returns the
// client (the cluster gateway uses this to thread a fault-injecting
// transport through its replica connections).
func (c *Client) WithTransport(rt http.RoundTripper) *Client {
	c.hc = &http.Client{Transport: rt}
	return c
}

// WithFillSecret installs the shared secret Fill sends in the
// X-Pasm-Fill-Secret header (the server rejects fills without it) and
// returns the client.
func (c *Client) WithFillSecret(secret string) *Client {
	c.fillSecret = secret
	return c
}

// WithTracing makes the client inject an X-Pasm-Trace context on
// sampled submits (probability sample in [0,1]), so traces start at
// the true origin of a request. The server hop that receives the
// header records the spans; the client only mints the identity.
// Explicit SubmitOptions.TraceHeader values win over sampling.
func (c *Client) WithTracing(sample float64, seed uint64) *Client {
	c.tracer = telemetry.New(telemetry.Config{Component: "client", Sample: sample, Seed: seed})
	return c
}

// Retries returns how many retry attempts this client has issued.
func (c *Client) Retries() int64 { return c.retries.Load() }

// SubmitOptions tune one submission.
type SubmitOptions struct {
	// Deadline, when > 0, bounds the job's whole lifetime: admission,
	// queue wait, and execution (the server cancels a running job when
	// it passes).
	Deadline time.Duration
	// Wait, when > 0, asks the server to long-poll the job before
	// responding, so small specs complete in one round trip.
	Wait time.Duration
	// TraceHeader, when non-empty, rides the submit as the X-Pasm-Trace
	// value — the gateway uses it to continue its own trace context
	// into the replica. Empty falls back to the client's WithTracing
	// sampling (if configured), then to untraced.
	TraceHeader string
	// Class is the request's SLO class name (the server resolves its
	// latency target from its -classes table unless SLOMs overrides).
	Class string
	// SLOMs, when > 0, is the request's explicit latency target in
	// milliseconds; it drives priority under SLO-aware scheduling.
	SLOMs int64
	// ClientID identifies the submitting principal for per-client
	// admission control and the fairness index. Empty = anonymous
	// (never rate-limited).
	ClientID string
}

// backoff computes the wait before the given retry attempt (2-based):
// exponential growth with full jitter in [b/2, b], floored by the
// server's Retry-After hint when one came back.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	b := c.retry.BaseBackoff << (attempt - 2)
	if b <= 0 || b > c.retry.MaxBackoff {
		b = c.retry.MaxBackoff
	}
	// xorshift64 over the seeded state: deterministic, lock-free.
	for {
		old := c.jitterState.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x == 0 {
			x = 0x9e3779b97f4a7c15
		}
		if c.jitterState.CompareAndSwap(old, x) {
			b = b/2 + time.Duration(x%uint64(b/2+1))
			break
		}
	}
	var api *APIError
	if errors.As(lastErr, &api) && api.RetryAfter > b {
		b = api.RetryAfter
	}
	return b
}

// do issues one logical request, retrying transient failures per the
// policy. body is re-serialized once and replayed on every attempt.
func (c *Client) do(ctx context.Context, method, path string, body any, out any) error {
	return c.doTraced(ctx, method, path, body, out, "")
}

// doTraced is do carrying an X-Pasm-Trace header value (empty: none).
// The trace context is replayed on every retry attempt — the retries
// are one logical request.
func (c *Client) doTraced(ctx context.Context, method, path string, body any, out any, trace string) error {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			wait := c.backoff(attempt, lastErr)
			// The backoff wait is ctx-aware: a canceled caller gets
			// ctx.Err() back promptly instead of sleeping out the full
			// backoff (the gateway's failover path depends on this).
			if c.retry.sleep != nil {
				c.retry.sleep(wait)
				if err := ctx.Err(); err != nil {
					return err
				}
			} else {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		err := c.doOnce(ctx, method, path, buf, out, attempt, trace)
		if err == nil {
			return nil
		}
		lastErr = err
		if !Retryable(err) || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any, attempt int, trace string) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(service.AttemptHeader, strconv.Itoa(attempt))
	if trace != "" {
		req.Header.Set(telemetry.Header, trace)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return apiError(resp, data)
	}
	if out != nil {
		switch o := out.(type) {
		case *[]byte:
			*o = data
			return nil
		case *rawResponse:
			o.body = data
			o.header = resp.Header.Clone()
			return nil
		}
		return json.Unmarshal(data, out)
	}
	return nil
}

// rawResponse captures a response's body and headers verbatim (the
// gateway needs X-Pasm-Cached alongside the result bytes).
type rawResponse struct {
	body   []byte
	header http.Header
}

// maxResponseBytes bounds one response body the client reads. It equals
// the server's peer-fill bound (service's maxFillBytes, 8 MiB), so any
// result document one pasmd instance would accept from a peer also
// fits here; the largest report pasmbench writes (-full -exp all,ext
// -json) is about 14 KB, so the bound is far above any legitimate body.
const maxResponseBytes = 8 << 20

// readBody reads a response body, failing with an error that names the
// limit rather than buffering a body past maxResponseBytes.
func readBody(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxResponseBytes {
		return nil, fmt.Errorf("client: response body exceeds %d bytes", maxResponseBytes)
	}
	return data, nil
}

func apiError(resp *http.Response, data []byte) error {
	e := &APIError{Status: resp.StatusCode}
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		e.Message = body.Error
	} else {
		e.Message = strings.TrimSpace(string(data))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// Submit sends a spec and returns the job to poll. For cache hits the
// returned job is already done; for coalesced submissions it is the
// shared in-flight job.
func (c *Client) Submit(ctx context.Context, spec experiments.Spec, opts SubmitOptions) (service.JobStatus, error) {
	req := service.SubmitRequest{Spec: spec, Class: opts.Class, SLOMs: opts.SLOMs, Client: opts.ClientID}
	if opts.Deadline > 0 {
		req.DeadlineMS = opts.Deadline.Milliseconds()
	}
	if opts.Wait > 0 {
		req.WaitMS = opts.Wait.Milliseconds()
	}
	trace := opts.TraceHeader
	if trace == "" {
		if ctx2, ok := c.tracer.SampleContext(); ok {
			trace = ctx2.Header()
		}
	}
	var st service.JobStatus
	err := c.doTraced(ctx, http.MethodPost, "/v1/jobs", req, &st, trace)
	return st, err
}

// Job polls a job's status once.
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait long-polls until the job is terminal or ctx expires, re-arming
// the server-side poll as needed.
func (c *Client) Wait(ctx context.Context, id string) (service.JobStatus, error) {
	for {
		var st service.JobStatus
		err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/wait?timeout_ms=30000", nil, &st)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
	}
}

// List fetches every tracked job's status.
func (c *Client) List(ctx context.Context) ([]service.JobStatus, error) {
	var out []service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Result fetches a done job's report document.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw)
	return raw, err
}

// ResultMeta is a done job's report document plus the response
// metadata the gateway routes on: the served-from-cache marker and the
// CodeVersion that produced the bytes.
type ResultMeta struct {
	Body   []byte
	Cached bool
	Code   string
}

// ResultMeta fetches a done job's report document plus the
// X-Pasm-Cached and X-Pasm-Code response headers.
func (c *Client) ResultMeta(ctx context.Context, id string) (ResultMeta, error) {
	var rr rawResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &rr); err != nil {
		return ResultMeta{}, err
	}
	return ResultMeta{
		Body:   rr.body,
		Cached: rr.header.Get("X-Pasm-Cached") == "true",
		Code:   rr.header.Get(service.CodeHeader),
	}, nil
}

// WaitOnce long-polls the job for at most timeout and returns the
// latest status, terminal or not — one server round trip, unlike Wait,
// which loops until terminal. Gateways forward a client's own wait
// budget through this.
func (c *Client) WaitOnce(ctx context.Context, id string, timeout time.Duration) (service.JobStatus, error) {
	var st service.JobStatus
	path := fmt.Sprintf("/v1/jobs/%s/wait?timeout_ms=%d", id, timeout.Milliseconds())
	err := c.do(ctx, http.MethodGet, path, nil, &st)
	return st, err
}

// Fill offers an externally computed result document to this instance's
// result cache (the peer-fill path; see service.FillPath). The result
// bytes travel as the raw request body so they are stored verbatim;
// the spec, the producing CodeVersion, and the shared fill secret
// (WithFillSecret) ride headers. Returns whether the bytes were stored
// (false: the instance already had them).
func (c *Client) Fill(ctx context.Context, spec experiments.Spec, result []byte, code string) (bool, error) {
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+service.FillPath, bytes.NewReader(result))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.FillSpecHeader, base64.StdEncoding.EncodeToString(rawSpec))
	req.Header.Set(service.FillCodeHeader, code)
	if c.fillSecret != "" {
		req.Header.Set(service.FillSecretHeader, c.fillSecret)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusAlreadyReported {
		return false, apiError(resp, data)
	}
	return resp.StatusCode == http.StatusOK, nil
}

// Run is the synchronous convenience path: submit, wait for a
// terminal state, fetch the bytes.
func (c *Client) Run(ctx context.Context, spec experiments.Spec, opts SubmitOptions) ([]byte, service.JobStatus, error) {
	st, err := c.Submit(ctx, spec, opts)
	if err != nil {
		return nil, st, err
	}
	if !st.State.Terminal() {
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return nil, st, err
		}
	}
	if st.State != service.StateDone {
		return nil, st, fmt.Errorf("pasmd: job %s %s: %s", st.ID, st.State, st.Error)
	}
	raw, err := c.Result(ctx, st.ID)
	return raw, st, err
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// HealthInfo fetches the enriched /healthz snapshot in typed form —
// the gateway's health checker routes on its queue depth, in-flight
// count, and draining flag.
func (c *Client) HealthInfo(ctx context.Context) (service.HealthInfo, error) {
	var out service.HealthInfo
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// Metrics fetches the service and cache counters.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	var out map[string]float64
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &out)
	return out, err
}
