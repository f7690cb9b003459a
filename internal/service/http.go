package service

import (
	"context"
	"crypto/subtle"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// HTTP API (cmd/pasmd, internal/client):
//
//	POST /v1/jobs               submit a spec -> JobStatus (200 done, 202 accepted)
//	GET  /v1/jobs               list tracked jobs
//	GET  /v1/jobs/{id}          poll one job
//	GET  /v1/jobs/{id}/wait     long-poll until terminal (?timeout_ms=)
//	GET  /v1/jobs/{id}/result   fetch the result document (bytes identical
//	                            to `pasmbench -json` with host timings off)
//	GET  /metrics               service + cache counters as JSON
//	GET  /healthz               liveness + draining flag
//	GET  /debug/requests[...]   traced request timelines (Config.Telemetry;
//	                            see internal/telemetry)
//
// Backpressure surfaces as 503 with a Retry-After header (queue full,
// unmeetable deadline, draining). Unknown jobs are 404; results of
// unfinished jobs are 409; failed jobs are 500; expired jobs are 410.
//
// Deadlines propagate from either the submit body (deadline_ms) or the
// X-Pasm-Deadline-Ms header; clients mark retries with X-Pasm-Attempt
// so /metrics exposes them.

// DeadlineHeader carries a submit's relative deadline in milliseconds
// (equivalent to SubmitRequest.DeadlineMS; the body wins when both are
// set), so callers that cannot shape the body — proxies, curl scripts —
// still get end-to-end deadline propagation.
const DeadlineHeader = "X-Pasm-Deadline-Ms"

// ClassHeader names a submit's SLO class (equivalent to
// SubmitRequest.Class; the header wins when both are set, so a proxy
// can reclassify traffic it forwards). Classes order the SJF scheduler
// and key the per-class latency quantiles in /metrics.
const ClassHeader = "X-Pasm-Class"

// SLOHeader carries the class's latency target in milliseconds
// (SubmitRequest.SLOMs; header wins). 0 with a server-declared class
// inherits the declared target.
const SLOHeader = "X-Pasm-Slo-Ms"

// ClientHeader identifies the submitting client (SubmitRequest.Client;
// header wins) for per-client token-bucket admission and the fairness
// index. Anonymous submits are never rate-limited.
const ClientHeader = "X-Pasm-Client"

// AttemptHeader carries the client's 1-based attempt number for this
// request. Values above 1 mark retries; the service counts them
// ("service/retried_submits"), making client retry behavior observable
// in /metrics.
const AttemptHeader = "X-Pasm-Attempt"

// FillSpecHeader carries a peer fill's spec as base64-encoded JSON.
// The result bytes travel as the raw request body — never re-marshaled,
// so a fill can never perturb the byte-identity guarantee — which is
// why the spec rides a header instead of a JSON envelope.
const FillSpecHeader = "X-Pasm-Fill-Spec"

// FillSecretHeader authenticates a peer fill: it must match the
// server's Config.FillSecret. The fill endpoint shares the public
// listener, so without the secret it stays disabled entirely.
const FillSecretHeader = "X-Pasm-Fill-Secret"

// FillCodeHeader names the CodeVersion that computed a fill's bytes.
// The receiver rejects a mismatch against its own compiled-in version,
// so a rolling upgrade can never launder old-semantics bytes into a
// new-version cache key.
const FillCodeHeader = "X-Pasm-Fill-Code"

// CodeHeader is set on result responses: the CodeVersion of the code
// that produced the document. Gateways forward it with peer fills.
const CodeHeader = "X-Pasm-Code"

// MaxSubmitBytes bounds one submit request body, at pasmd and at the
// pasmgw gateway alike. A spec encodes in a few hundred bytes, so the
// bound only turns away runaway or hostile clients, with a JSON 413.
const MaxSubmitBytes = 1 << 20

// ReadHeaderTimeout bounds how long the pasmd and pasmgw servers wait
// for a request's headers, so an idle or trickling connection cannot
// hold a server goroutine forever.
const ReadHeaderTimeout = 10 * time.Second

// ReadTimeout bounds reading one whole request, body included, on the
// same servers (a 1 MiB submit or an 8 MiB peer fill fits it easily),
// so a trickled body cannot hold a goroutine either. It does not cut
// slow handlers: net/http clears the read deadline once the request
// has been read, so a /wait long-poll outlives it. The servers set no
// WriteTimeout on purpose: net/http arms that deadline when the
// request is read, so it would cut /wait long-polls (30 s by default,
// longer with timeout_ms).
const ReadTimeout = 30 * time.Second

// IdleTimeout bounds how long those servers keep an idle keep-alive
// connection open between requests.
const IdleTimeout = 2 * time.Minute

// SubmitBodyStatus maps a submit-body decode error to its HTTP status:
// 413 when the body ran past MaxSubmitBytes, 400 otherwise.
func SubmitBodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// FillPath is the internal peer-fill endpoint (cluster gateways only;
// it is not part of the public /v1 job API).
const FillPath = "/internal/v1/fill"

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Spec experiments.Spec `json:"spec"`
	// DeadlineMS, when > 0, is a relative deadline covering the job's
	// whole lifetime: the job is rejected at admission if the queue
	// estimate cannot meet it, expired in the queue if it passes
	// before the job is placed, and canceled mid-run (context deadline
	// through RunSpecContext) if it passes during execution.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// WaitMS, when > 0, long-polls the submitted job for up to this
	// many milliseconds before responding (one round trip for small
	// specs).
	WaitMS int64 `json:"wait_ms,omitempty"`
	// Class is the SLO class (see ClassHeader), SLOMs its target in ms
	// (see SLOHeader), Client the submitter identity (see
	// ClientHeader). Headers win over body fields.
	Class  string `json:"class,omitempty"`
	SLOMs  int64  `json:"slo_ms,omitempty"`
	Client string `json:"client,omitempty"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
	State State  `json:"state,omitempty"`
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/wait", s.handleWait)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST "+FillPath, s.handleFill)
	if s.tracer != nil {
		s.tracer.Register(mux)
	}
	return s.faultMiddleware(mux)
}

// faultMiddleware is the HTTP fault point: injected delays stall the
// response, injected errors become 500s (a retryable status for the
// client's policy), and injected panics abort the connection mid-reply
// via http.ErrAbortHandler — the client sees a transport error, the
// server neither logs a stack nor dies. /metrics and /healthz are
// exempt so chaos runs stay observable and health-checkable.
func (s *Service) faultMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.countRetry(r)
		if s.faults == nil || r.URL.Path == "/metrics" || r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		act := s.faults.Check(faults.HTTP)
		if act.Delay > 0 {
			select {
			case <-time.After(act.Delay):
			case <-r.Context().Done():
			}
		}
		if act.Panic {
			panic(http.ErrAbortHandler)
		}
		if act.Err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: act.Err.Error()})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// countRetry folds the client-reported attempt number into the
// metrics: any request marked attempt >= 2 is a retry.
func (s *Service) countRetry(r *http.Request) {
	if v := r.Header.Get(AttemptHeader); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 1 {
			s.mu.Lock()
			s.reg.Add("retried_submits", 1)
			s.mu.Unlock()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// retryAfterSeconds renders a Retry-After header value, rounded up so
// a client honoring it never retries early.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, SubmitBodyStatus(err), errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if req.DeadlineMS == 0 {
		if v := r.Header.Get(DeadlineHeader); v != "" {
			ms, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ms <= 0 {
				writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad " + DeadlineHeader + " header"})
				return
			}
			req.DeadlineMS = ms
		}
	}
	if v := r.Header.Get(ClassHeader); v != "" {
		req.Class = v
	}
	if v := r.Header.Get(SLOHeader); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad " + SLOHeader + " header"})
			return
		}
		req.SLOMs = ms
	}
	if v := r.Header.Get(ClientHeader); v != "" {
		req.Client = v
	}
	var deadline time.Time
	if req.DeadlineMS > 0 {
		deadline = s.now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	st, err := s.SubmitWith(req.Spec, SubmitOpts{
		Deadline: deadline,
		Class:    req.Class,
		SLOMs:    req.SLOMs,
		Client:   req.Client,
		Trace:    r.Header.Get(telemetry.Header),
	})
	if err != nil {
		var full *QueueFullError
		var limited *RateLimitedError
		switch {
		case errors.As(err, &limited):
			w.Header().Set("Retry-After", retryAfterSeconds(limited.RetryAfter))
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		case errors.As(err, &full):
			w.Header().Set("Retry-After", retryAfterSeconds(full.RetryAfter))
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", retryAfterSeconds(minRetryAfter))
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		}
		return
	}
	if req.WaitMS > 0 && !st.State.Terminal() {
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(req.WaitMS)*time.Millisecond)
		if polled, ok := s.Wait(ctx, st.ID); ok {
			st = polled
		}
		cancel()
	}
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown or expired job id"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleWait(w http.ResponseWriter, r *http.Request) {
	timeout := 30 * time.Second
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		var ms int64
		if _, err := fmt.Sscanf(v, "%d", &ms); err != nil || ms <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad timeout_ms"})
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	st, ok := s.Wait(ctx, r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown or expired job id"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	result, st, ok := s.Result(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown or expired job id"})
		return
	}
	switch st.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Pasm-Cached", fmt.Sprintf("%t", st.Cached))
		w.Header().Set(CodeHeader, experiments.CodeVersion)
		w.Write(result)
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: st.Error, State: st.State})
	case StateExpired:
		writeJSON(w, http.StatusGone, errorBody{Error: st.Error, State: st.State})
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not finished", State: st.State})
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handleFill is the peer-fill endpoint: the spec arrives base64-encoded
// in FillSpecHeader, the result bytes are the raw body (stored verbatim
// after Service.Fill validates them against the spec). The endpoint
// shares the public listener, so it is defended in depth: disabled
// outright without a configured FillSecret, authenticated per request
// (403), pinned to this binary's CodeVersion (409), and body-capped
// (413). 200 stored, 208 already cached, 400 on a bad spec or payload.
func (s *Service) handleFill(w http.ResponseWriter, r *http.Request) {
	if s.cfg.FillSecret == "" {
		s.countFillReject()
		writeJSON(w, http.StatusForbidden, errorBody{Error: "peer fill disabled: no fill secret configured"})
		return
	}
	if subtle.ConstantTimeCompare([]byte(r.Header.Get(FillSecretHeader)), []byte(s.cfg.FillSecret)) != 1 {
		s.countFillReject()
		writeJSON(w, http.StatusForbidden, errorBody{Error: "bad or missing " + FillSecretHeader + " header"})
		return
	}
	if code := r.Header.Get(FillCodeHeader); code != experiments.CodeVersion {
		s.countFillReject()
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf(
			"fill code version %q does not match this instance's %q", code, experiments.CodeVersion)})
		return
	}
	enc := r.Header.Get(FillSpecHeader)
	if enc == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing " + FillSpecHeader + " header"})
		return
	}
	rawSpec, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad " + FillSpecHeader + " encoding: " + err.Error()})
		return
	}
	var spec experiments.Spec
	if err := json.Unmarshal(rawSpec, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad fill spec: " + err.Error()})
		return
	}
	result, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFillBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.countFillReject()
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf(
				"fill body exceeds %d bytes", maxFillBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading fill body: " + err.Error()})
		return
	}
	stored, err := s.Fill(spec, result)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	code := http.StatusOK
	if !stored {
		code = http.StatusAlreadyReported
	}
	writeJSON(w, code, map[string]bool{"stored": stored})
}

// countFillReject tallies a fill turned away before validation (auth,
// version, size) so probing the endpoint is visible in /metrics.
func (s *Service) countFillReject() {
	s.mu.Lock()
	s.reg.Add("peer_fill_rejects", 1)
	s.mu.Unlock()
}
