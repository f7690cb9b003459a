// Package cluster is the fault-tolerant serving layer over pasmd: a
// gateway (cmd/pasmgw) that fronts N replicas and keeps answering the
// same /v1 job API while individual replicas crash, hang, drain, or
// return errors.
//
// The pieces:
//
//   - Registry: the replica set plus an active health loop against each
//     replica's enriched /healthz (queue depth, in-flight, draining).
//   - Breaker: a per-replica circuit breaker fed passively by every
//     proxied request and actively by the health loop, whose allowed
//     check doubles as the half-open probe.
//   - ring: consistent hashing on stable replica names; a spec key's
//     ring order is its owner plus the deterministic failover sequence.
//   - Gateway: the HTTP front end — one routing rule (each spec goes to
//     its ring owner, then fails over in ring order), optional
//     cross-replica hedging, peer cache fill (a result that failover or
//     the hedge computed off its owner is offered to the owner, so a hit
//     anywhere becomes a hit everywhere), and graceful degradation: when
//     every breaker is open the gateway sheds with 503 + Retry-After
//     instead of hanging.
//
// Correctness rests on the repo's determinism invariant: a report is a
// pure function of (spec, CodeVersion), so any replica's answer for a
// key is byte-identical to any other's — which is what makes failover,
// hedging, and peer fill safe to do blindly.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Response headers the gateway adds so smoke tests (and clients) can
// see routing decisions.
const (
	// ReplicaHeader names the replica that served this response.
	ReplicaHeader = "X-Pasm-Replica"
	// OwnerHeader names the spec's consistent-hash owner (set on
	// submit and result responses; differs from ReplicaHeader when
	// failover or the hedge sent the job elsewhere).
	OwnerHeader = "X-Pasm-Owner"
)

// jobIDSep joins a replica name and its local job ID into a gateway
// job ID ("r1~j3-ab12"). Replica names reject '~' so the split is
// unambiguous, and the separator survives inside one mux path segment.
const jobIDSep = "~"

// Fixed gateway limits.
const (
	// fillTimeout bounds one peer-fill RPC.
	fillTimeout = 5 * time.Second
	// maxTracked bounds the gateway's job map (spec retention for peer
	// fill); oldest entries fall off first.
	maxTracked = 4096
	// minRetryAfter floors the Retry-After hint on shed responses.
	minRetryAfter = time.Second
)

// Config tunes a Gateway.
type Config struct {
	// Registry configures the replica set and health loop.
	Registry RegistryConfig
	// Hedge, when > 0, launches the submit at the second-choice replica
	// if the first has not answered within this long, taking whichever
	// answers first (safe: results are deterministic and submits
	// coalesce server-side).
	Hedge time.Duration
	// Logger, when non-nil, receives one structured line per routing
	// event worth narrating (failover, shed, hedge, peer fill), with
	// trace and replica fields where available.
	Logger *slog.Logger
	// Telemetry, when non-nil, records request-scoped traces across
	// the gateway's routing decisions (route/attempt/hedge spans) and
	// forwards the trace context to the winning replica so one trace ID
	// spans gateway -> replica -> worker. Nil costs one pointer test.
	Telemetry *telemetry.Tracer
}

// gwJob is what the gateway remembers about a submission: enough to
// route reads back and to fill the owner's cache from the result.
type gwJob struct {
	spec   experiments.Spec
	key    cache.Key
	served string // replica that accepted the job
	owner  string // consistent-hash owner of the key
	filled atomic.Bool
}

// Gateway fronts the replica set with the same /v1 API pasmd serves.
type Gateway struct {
	cfg    Config
	reg    *Registry
	ring   *ring
	log    *slog.Logger
	tracer *telemetry.Tracer
	lat    *telemetry.LatencySet // submit latency per outcome

	mu       sync.Mutex
	jobs     map[string]*gwJob
	jobOrder []string // FIFO eviction for the jobs map
	draining bool

	submits, accepted, failovers, hedges, sheds atomic.Int64
	peerFills, peerFillDups, peerFillErrs       atomic.Int64
	peerFillSkips                               atomic.Int64
	proxied, proxyErrs                          atomic.Int64
}

// New builds a gateway and its registry. Call Start to begin health
// checking and Stop to end it.
func New(cfg Config) (*Gateway, error) {
	reg, err := NewRegistry(cfg.Registry)
	if err != nil {
		return nil, err
	}
	return &Gateway{
		cfg:    cfg,
		reg:    reg,
		ring:   newRing(reg.Names()),
		log:    cfg.Logger,
		tracer: cfg.Telemetry,
		lat:    telemetry.NewLatencySet(),
		jobs:   make(map[string]*gwJob),
	}, nil
}

// Registry exposes the replica set (for tests and cmd wiring).
func (g *Gateway) Registry() *Registry { return g.reg }

// Start launches the health loop.
func (g *Gateway) Start() { g.reg.Start() }

// Stop ends the health loop.
func (g *Gateway) Stop() { g.reg.Stop() }

// Drain makes the gateway reject new submissions with 503 +
// Retry-After while reads (poll, wait, result) keep working, so
// clients holding accepted jobs can collect them — the lossless half
// of SIGTERM handling. In-flight HTTP requests are the server's to
// finish (http.Server.Shutdown waits for them).
func (g *Gateway) Drain() {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
}

func (g *Gateway) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// info and warn emit structured log lines (nil logger: one pointer
// test per site).
func (g *Gateway) info(msg string, args ...any) {
	if g.log != nil {
		g.log.Info(msg, args...)
	}
}

func (g *Gateway) warn(msg string, args ...any) {
	if g.log != nil {
		g.log.Warn(msg, args...)
	}
}

// verdict classifies one proxied request's outcome for routing and
// breaker accounting.
type verdict int

const (
	vOK           verdict = iota // use the response
	vBackpressure                // 503: replica alive but shedding — fail over, no breaker penalty
	vPermanent                   // other 4xx: caller's fault — return as-is, no failover
	vFailure                     // transport error or 5xx: fail over, breaker penalty
	vCanceled                    // caller's context ended: stop, outcome unknowable
)

func classify(err error) verdict {
	if err == nil {
		return vOK
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return vCanceled
	}
	var api *client.APIError
	if errors.As(err, &api) {
		switch {
		case api.Status == http.StatusServiceUnavailable:
			return vBackpressure
		case api.Status >= 500:
			return vFailure
		case api.Status >= 400:
			return vPermanent
		}
		return vFailure
	}
	return vFailure // transport-level: refused, reset, cut body, timeout
}

// account feeds one classified outcome into the replica's breaker and
// tallies. Backpressure and permanent rejections count as breaker
// successes — the replica answered; the breaker measures availability,
// not capacity.
func accountVerdict(r *Replica, v verdict, now time.Time) {
	switch v {
	case vOK, vBackpressure, vPermanent:
		r.Report(true, now)
	case vFailure:
		r.Report(false, now)
	case vCanceled:
		r.breaker.Cancel()
	}
}

// Handler returns the gateway's HTTP API — route-compatible with
// pasmd's, so internal/client works against either.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", g.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/wait", g.handleWait)
	mux.HandleFunc("GET /v1/jobs/{id}/result", g.handleResult)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.tracer.Register(mux) // /debug/requests (reports disabled when untraced)
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// shed rejects with 503 + Retry-After: the gateway-level backpressure
// answer when no replica can take the work (all breakers open, all
// draining, or the gateway itself is draining).
func (g *Gateway) shed(w http.ResponseWriter, reason string, retryAfter time.Duration) {
	g.sheds.Add(1)
	if retryAfter < minRetryAfter {
		retryAfter = minRetryAfter
	}
	secs := int(retryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: reason})
}

// proxyError translates a replica error into the client-facing reply,
// preserving the replica's status and Retry-After when it was an HTTP
// rejection and mapping transport failures to 502.
func proxyError(w http.ResponseWriter, err error) {
	var api *client.APIError
	if errors.As(err, &api) {
		if api.RetryAfter > 0 {
			secs := int(api.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeJSON(w, api.Status, errorBody{Error: api.Message})
		return
	}
	writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error()})
}

// submitResult pairs one replica attempt's outcome with its source.
type submitResult struct {
	rep *Replica
	st  service.JobStatus
	err error
}

// verdictName renders a verdict for span attrs and log fields.
func verdictName(v verdict) string {
	switch v {
	case vOK:
		return "ok"
	case vBackpressure:
		return "backpressure"
	case vPermanent:
		return "permanent"
	case vCanceled:
		return "canceled"
	default:
		return "failure"
	}
}

// handleSubmit accepts a spec, sends it to the key's ring owner, fails
// over in ring order on transient errors, optionally hedges the first attempt,
// and rewrites the accepted job's ID to "<replica>~<id>" so reads
// route back. A propagated (or gateway-minted) trace context gets a
// route span plus one attempt span per replica tried, and is forwarded
// to the replica so the same trace ID continues server-side.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	g.submits.Add(1)
	tr := g.tracer.Start(r.Header.Get(telemetry.Header), "gw-submit")
	outcome := "shed"
	defer func() {
		g.lat.Observe("submit_ms/outcome="+outcome, time.Since(start))
		tr.Finish()
	}()
	if g.isDraining() {
		g.shed(w, "gateway draining", minRetryAfter)
		return
	}
	var req service.SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, service.MaxSubmitBytes)).Decode(&req); err != nil {
		outcome = "bad_request"
		writeJSON(w, service.SubmitBodyStatus(err), errorBody{Error: "bad submit body: " + err.Error()})
		return
	}
	key, err := req.Spec.Key()
	if err != nil {
		outcome = "bad_request"
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad spec: " + err.Error()})
		return
	}
	// SLO class and client identity travel to the owning replica: header
	// form wins over body fields (the same precedence pasmd applies), so
	// a proxy can tag requests without rewriting bodies.
	if v := r.Header.Get(service.ClassHeader); v != "" {
		req.Class = v
	}
	if v := r.Header.Get(service.ClientHeader); v != "" {
		req.Client = v
	}
	if v := r.Header.Get(service.SLOHeader); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			outcome = "bad_request"
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad " + service.SLOHeader + " header"})
			return
		}
		req.SLOMs = ms
	}
	opts := client.SubmitOptions{
		Deadline:    time.Duration(req.DeadlineMS) * time.Millisecond,
		Wait:        time.Duration(req.WaitMS) * time.Millisecond,
		TraceHeader: tr.HeaderValue(),
		Class:       req.Class,
		SLOMs:       req.SLOMs,
		ClientID:    req.Client,
	}
	idxs := g.ring.order(key) // owner first, then failover in ring order
	owner := g.reg.replicas[idxs[0]]
	route := tr.Span("route").Attr("owner", owner.Name)

	var lastErr error
	tried, skipped := 0, 0
	for pos := 0; pos < len(idxs); pos++ {
		rep := g.reg.replicas[idxs[pos]]
		if !rep.Routable(time.Now()) {
			skipped++ // breaker open or replica draining/dead
			continue
		}
		tried++
		if tried > 1 {
			g.failovers.Add(1)
			g.warn("failover", "hop", tried-1, "replica", rep.Name,
				"trace", tr.TraceID(), "err", lastErr)
		}
		sp := tr.Span("attempt").Attr("replica", rep.Name)
		res := g.attempt(r.Context(), tr, rep, req.Spec, opts, func() *Replica { return g.hedgePeer(idxs, pos) })
		v := classify(res.err)
		sp.Attr("verdict", verdictName(v))
		if res.rep != rep {
			sp.Attr("hedge_winner", res.rep.Name)
		}
		sp.EndSpan()
		switch v {
		case vOK:
			outcome = "accepted"
			route.Attr("attempts", tried).Attr("breaker_skips", skipped).Attr("served_by", res.rep.Name).EndSpan()
			g.accepted.Add(1)
			g.record(res.rep.Name, owner.Name, res.st.ID, req.Spec, key)
			st := res.st
			st.ID = res.rep.Name + jobIDSep + st.ID
			w.Header().Set(ReplicaHeader, res.rep.Name)
			w.Header().Set(OwnerHeader, owner.Name)
			code := http.StatusAccepted
			if st.State.Terminal() {
				code = http.StatusOK
			}
			writeJSON(w, code, st)
			return
		case vPermanent:
			outcome = "permanent"
			route.Attr("attempts", tried).Attr("breaker_skips", skipped).EndSpan()
			proxyError(w, res.err)
			return
		case vCanceled:
			outcome = "canceled"
			route.Attr("attempts", tried).Attr("breaker_skips", skipped).EndSpan()
			// Client went away; nothing sensible to write.
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "canceled: " + res.err.Error()})
			return
		default: // backpressure or failure: try the next replica
			lastErr = res.err
		}
	}
	reason := "no replica available"
	retryAfter := minRetryAfter
	if lastErr != nil {
		reason = "all replicas failed: " + lastErr.Error()
		var api *client.APIError
		if errors.As(lastErr, &api) && api.RetryAfter > retryAfter {
			retryAfter = api.RetryAfter
		}
	}
	route.Attr("attempts", tried).Attr("breaker_skips", skipped).EndSpan()
	g.warn("shed submit", "attempts", tried, "skipped", skipped,
		"trace", tr.TraceID(), "reason", reason)
	g.shed(w, reason, retryAfter)
}

// hedgePeer picks the hedge counterpart for the attempt at position
// pos: the next routable replica after it, or nil when nobody else can
// take the request. Routable consumes a breaker Allow (possibly the
// half-open probe slot), so this must only run when the hedge is
// actually launched — the launched request's Report/Cancel is what
// resolves that probe. Calling it speculatively would wedge an open
// breaker in half-open forever if the hedge never fired.
func (g *Gateway) hedgePeer(idxs []int, pos int) *Replica {
	for i := pos + 1; i < len(idxs); i++ {
		rep := g.reg.replicas[idxs[i]]
		if rep.Routable(time.Now()) {
			return rep
		}
	}
	return nil
}

// attempt submits to one replica, optionally racing a hedge replica
// launched after the hedge delay. Whoever answers usably first wins;
// the loser's outcome still reaches its breaker. The hedge replica is
// chosen lazily (pickHedge) at the moment the timer fires, so breaker
// probe slots are only claimed by requests that really go out. Hedging
// a submit is safe because submission is idempotent: identical
// in-flight specs coalesce on a replica and finished ones are cache
// hits, and results are byte-identical across replicas by
// construction.
func (g *Gateway) attempt(ctx context.Context, tr *telemetry.Req, rep *Replica, spec experiments.Spec, opts client.SubmitOptions, pickHedge func() *Replica) submitResult {
	one := func(r *Replica) submitResult {
		st, err := r.Client().Submit(ctx, spec, opts)
		v := classify(err)
		accountVerdict(r, v, time.Now())
		return submitResult{rep: r, st: st, err: err}
	}
	if g.cfg.Hedge <= 0 {
		return one(rep)
	}
	ch := make(chan submitResult, 2)
	go func() { ch <- one(rep) }()
	timer := time.NewTimer(g.cfg.Hedge)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res
	case <-timer.C:
	}
	hedge := pickHedge()
	if hedge == nil {
		return <-ch
	}
	g.hedges.Add(1)
	g.info("hedging", "from", rep.Name, "to", hedge.Name,
		"after", g.cfg.Hedge, "trace", tr.TraceID())
	tr.Span("hedge").Attr("from", rep.Name).Attr("to", hedge.Name).EndSpan()
	go func() { ch <- one(hedge) }()
	first := <-ch
	if classify(first.err) == vOK {
		return first
	}
	second := <-ch
	if classify(second.err) == vOK {
		return second
	}
	return first
}

// record remembers a submission for read routing and peer fill,
// evicting the oldest entry past maxTracked.
func (g *Gateway) record(served, owner, localID string, spec experiments.Spec, key cache.Key) {
	gwID := served + jobIDSep + localID
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.jobs[gwID]; ok {
		return
	}
	g.jobs[gwID] = &gwJob{spec: spec, key: key, served: served, owner: owner}
	g.jobOrder = append(g.jobOrder, gwID)
	for len(g.jobOrder) > maxTracked {
		evict := g.jobOrder[0]
		g.jobOrder = g.jobOrder[1:]
		delete(g.jobs, evict)
	}
}

func (g *Gateway) lookup(gwID string) *gwJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jobs[gwID]
}

// splitID resolves a gateway job ID to its replica and local ID.
func (g *Gateway) splitID(id string) (*Replica, string, bool) {
	name, local, ok := strings.Cut(id, jobIDSep)
	if !ok || local == "" {
		return nil, "", false
	}
	rep, ok := g.reg.Find(name)
	if !ok {
		return nil, "", false
	}
	return rep, local, true
}

// proxyRead runs one read RPC against the job's replica. Reads do not
// consult the breaker's Allow — the job's state lives only on that
// replica, so there is nowhere to fail over to — but their outcomes
// still feed it.
func (g *Gateway) proxyRead(w http.ResponseWriter, r *http.Request, call func(ctx context.Context, rep *Replica, local string) (any, error)) {
	rep, local, ok := g.splitID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return
	}
	g.proxied.Add(1)
	out, err := call(r.Context(), rep, local)
	accountVerdict(rep, classify(err), time.Now())
	if err != nil {
		g.proxyErrs.Add(1)
		proxyError(w, err)
		return
	}
	w.Header().Set(ReplicaHeader, rep.Name)
	writeJSON(w, http.StatusOK, out)
}

// rewriteStatus maps a replica-local status back into gateway ID space.
func rewriteStatus(rep *Replica, st service.JobStatus) service.JobStatus {
	st.ID = rep.Name + jobIDSep + st.ID
	return st
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	g.proxyRead(w, r, func(ctx context.Context, rep *Replica, local string) (any, error) {
		st, err := rep.Client().Job(ctx, local)
		if err != nil {
			return nil, err
		}
		return rewriteStatus(rep, st), nil
	})
}

func (g *Gateway) handleWait(w http.ResponseWriter, r *http.Request) {
	timeout := 30 * time.Second
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			timeout = time.Duration(v) * time.Millisecond
		}
	}
	g.proxyRead(w, r, func(ctx context.Context, rep *Replica, local string) (any, error) {
		st, err := rep.Client().WaitOnce(ctx, local, timeout)
		if err != nil {
			return nil, err
		}
		return rewriteStatus(rep, st), nil
	})
}

// handleResult proxies the result bytes verbatim and, when the serving
// replica is not the key's hash owner (failover or the hedge placed the
// job), offers the bytes to the owner's cache in the background (peer
// fill): one replica computing a result makes it a cache hit
// cluster-wide. Fill is on exactly when the registry has a fill secret.
func (g *Gateway) handleResult(w http.ResponseWriter, r *http.Request) {
	gwID := r.PathValue("id")
	rep, local, ok := g.splitID(gwID)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return
	}
	g.proxied.Add(1)
	meta, err := rep.Client().ResultMeta(r.Context(), local)
	accountVerdict(rep, classify(err), time.Now())
	if err != nil {
		g.proxyErrs.Add(1)
		proxyError(w, err)
		return
	}
	body, cached := meta.Body, meta.Cached
	w.Header().Set(ReplicaHeader, rep.Name)
	if j := g.lookup(gwID); j != nil {
		w.Header().Set(OwnerHeader, j.owner)
		if g.cfg.Registry.FillSecret != "" && j.owner != rep.Name && j.filled.CompareAndSwap(false, true) {
			go g.fillOwner(j, body, meta.Code)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if cached {
		w.Header().Set("X-Pasm-Cached", "true")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// fillOwner pushes result bytes to the key owner's cache. On error the
// job's filled flag resets so a later result fetch retries. code is the
// CodeVersion the serving replica reported alongside the bytes; a fill
// is skipped when it is unknown or differs from the owner's last known
// version — during a rolling upgrade, bytes computed under old
// simulator semantics must never land under the owner's new-version
// key (the owner re-checks against its own compiled-in version too).
// A fill is also skipped, and left for a later read, while the owner's
// last health check failed or its breaker is open: a dead or hung
// owner would only park this goroutine for the fill timeout. (Routable
// is not asked: it would spend the half-open probe.)
func (g *Gateway) fillOwner(j *gwJob, body []byte, code string) {
	owner, ok := g.reg.Find(j.owner)
	if !ok {
		return
	}
	if code == "" {
		g.peerFillSkips.Add(1)
		g.warn("peer fill skipped", "owner", j.owner, "from", j.served,
			"reason", "serving replica did not report a code version")
		return
	}
	alive, h := owner.Snapshot()
	if !alive || owner.Breaker().State() == StateOpen {
		g.peerFillSkips.Add(1)
		j.filled.Store(false) // the owner may recover; retry later
		g.warn("peer fill skipped", "owner", j.owner, "from", j.served, "reason", "owner down")
		return
	}
	if h.Code != "" && h.Code != code {
		g.peerFillSkips.Add(1)
		j.filled.Store(false) // owner may finish upgrading; retry later
		g.warn("peer fill skipped", "owner", j.owner, "from", j.served,
			"reason", "code version mismatch", "code", code, "owner_code", h.Code)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), fillTimeout)
	defer cancel()
	stored, err := owner.Client().Fill(ctx, j.spec, body, code)
	switch {
	case err != nil:
		j.filled.Store(false) // before the count, so a reader of it can retry
		g.peerFillErrs.Add(1)
		g.warn("peer fill failed", "owner", j.owner, "from", j.served, "err", err)
	case stored:
		g.peerFills.Add(1)
		g.info("peer fill", "owner", j.owner, "from", j.served, "bytes", len(body))
	default:
		g.peerFillDups.Add(1)
	}
}

// handleList fans out to every replica and merges, rewriting IDs into
// gateway space. Replicas that fail to answer are skipped — a partial
// listing beats none during an outage.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	type res struct {
		rep *Replica
		sts []service.JobStatus
		err error
	}
	ch := make(chan res, len(g.reg.replicas))
	for _, rep := range g.reg.replicas {
		go func(rep *Replica) {
			sts, err := rep.Client().List(r.Context())
			ch <- res{rep, sts, err}
		}(rep)
	}
	var all []service.JobStatus
	for range g.reg.replicas {
		rs := <-ch
		accountVerdict(rs.rep, classify(rs.err), time.Now())
		if rs.err != nil {
			continue
		}
		for _, st := range rs.sts {
			all = append(all, rewriteStatus(rs.rep, st))
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].ID < all[b].ID })
	writeJSON(w, http.StatusOK, all)
}

// Metrics returns the gateway's own counters plus each replica's
// breaker and health view, plus a live aggregation of replica cache
// counters (cluster/cache_hits and friends power loadgen's gateway
// hit-rate mode).
func (g *Gateway) Metrics(ctx context.Context) map[string]float64 {
	m := map[string]float64{
		"cluster/replicas":         float64(len(g.reg.replicas)),
		"cluster/healthy":          float64(g.reg.Healthy()),
		"cluster/submits":          float64(g.submits.Load()),
		"cluster/accepted":         float64(g.accepted.Load()),
		"cluster/failovers":        float64(g.failovers.Load()),
		"cluster/hedges":           float64(g.hedges.Load()),
		"cluster/shed":             float64(g.sheds.Load()),
		"cluster/peer_fills":       float64(g.peerFills.Load()),
		"cluster/peer_fill_dups":   float64(g.peerFillDups.Load()),
		"cluster/peer_fill_errors": float64(g.peerFillErrs.Load()),
		"cluster/peer_fill_skips":  float64(g.peerFillSkips.Load()),
		"cluster/proxied_reads":    float64(g.proxied.Load()),
		"cluster/proxy_errors":     float64(g.proxyErrs.Load()),
	}
	g.mu.Lock()
	m["cluster/tracked_jobs"] = float64(len(g.jobs))
	if g.draining {
		m["cluster/draining"] = 1
	} else {
		m["cluster/draining"] = 0
	}
	g.mu.Unlock()

	ch := make(chan map[string]float64, len(g.reg.replicas))
	for _, rep := range g.reg.replicas {
		go func(rep *Replica) {
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			rm, err := rep.Client().Metrics(cctx)
			if err != nil {
				rm = nil
			}
			ch <- rm
		}(rep)
	}
	for _, rep := range g.reg.replicas {
		prefix := "replicas/" + rep.Name + "/"
		opens, closes, rejects := rep.breaker.Counters()
		m[prefix+"breaker_state"] = float64(rep.breaker.State())
		m[prefix+"breaker_opens"] = float64(opens)
		m[prefix+"breaker_closes"] = float64(closes)
		m[prefix+"breaker_rejects"] = float64(rejects)
		rep.mu.Lock()
		m[prefix+"forwarded"] = float64(rep.forwarded)
		m[prefix+"failures"] = float64(rep.failures)
		m[prefix+"health_checks"] = float64(rep.checks)
		m[prefix+"health_check_failures"] = float64(rep.checkFails)
		if rep.alive {
			m[prefix+"alive"] = 1
			m[prefix+"queue_depth"] = float64(rep.health.QueueDepth)
			m[prefix+"inflight"] = float64(rep.health.InFlight)
			m[prefix+"cache_entries"] = float64(rep.health.CacheEntries)
		} else {
			m[prefix+"alive"] = 0
		}
		rep.mu.Unlock()
	}
	var replicaMetrics []map[string]float64
	for range g.reg.replicas {
		rm := <-ch
		if rm == nil {
			continue
		}
		replicaMetrics = append(replicaMetrics, rm)
		// Cluster-wide sums of the counters the bench and loadgen read.
		for _, k := range []string{"cache/hits", "cache/misses", "service/submitted",
			"service/completed", "service/served_from_cache", "service/coalesced",
			"service/peer_fills", "service/rejected_ratelimited", "service/sched_promoted"} {
			m["cluster/"+strings.ReplaceAll(k, "/", "_")] += rm[k]
		}
	}
	aggregateStageHistograms(m, replicaMetrics)
	aggregateClassMetrics(m, replicaMetrics)
	for k, v := range g.lat.Flatten("cluster/") {
		m[k] = v
	}
	for k, v := range g.tracer.Metrics("telemetry/") {
		m[k] = v
	}
	return m
}

// mergeFlattened rebuilds one latency histogram from the replicas'
// flattened copies of it under base (base/count, /min, /max, /sum,
// /le=B, /overflow). Summing the le=B counts is exact because every
// replica buckets on the same bounds (telemetry.MsBounds): the merge is
// the histogram a single global service would have recorded. It
// returns nil when no replica has a sample.
func mergeFlattened(replicaMetrics []map[string]float64, base string) *obs.Histogram {
	h := obs.NewHistogram(telemetry.MsBounds)
	for _, rm := range replicaMetrics {
		n := int64(rm[base+"/count"])
		if n == 0 {
			continue
		}
		if min := int64(rm[base+"/min"]); h.N == 0 || min < h.Min {
			h.Min = min
		}
		if max := int64(rm[base+"/max"]); h.N == 0 || max > h.Max {
			h.Max = max
		}
		for i, b := range h.Bounds {
			h.Counts[i] += int64(rm[base+"/le="+strconv.FormatInt(b, 10)])
		}
		h.Counts[len(h.Counts)-1] += int64(rm[base+"/overflow"])
		h.N += n
		h.Sum += int64(rm[base+"/sum"])
	}
	if h.N == 0 {
		return nil
	}
	return h
}

// aggregateStageHistograms merges the replicas' per-stage latency
// histograms into cluster-level ones with cluster-wide quantiles.
func aggregateStageHistograms(m map[string]float64, replicaMetrics []map[string]float64) {
	for _, stage := range []string{"queue_wait_ms", "run_ms", "total_ms"} {
		if h := mergeFlattened(replicaMetrics, "service/"+stage); h != nil {
			telemetry.FlattenHistogram(m, "cluster/"+stage, h)
		}
	}
}

// aggregateClassMetrics merges the replicas' per-SLO-class serving
// metrics: class latency histograms (every replica uses the service
// msBounds, which equal telemetry.MsBounds) plus the SLO hit/miss
// counters. Class names are discovered from the replica keys, so a
// class only ever seen by one replica still appears cluster-wide.
func aggregateClassMetrics(m map[string]float64, replicaMetrics []map[string]float64) {
	const histPrefix = "service/class_total_ms/"
	classes := map[string]bool{}
	for _, rm := range replicaMetrics {
		for k := range rm {
			if rest, ok := strings.CutPrefix(k, histPrefix); ok {
				if class, ok := strings.CutSuffix(rest, "/count"); ok {
					classes[class] = true
				}
			}
		}
	}
	for class := range classes {
		if h := mergeFlattened(replicaMetrics, histPrefix+class); h != nil {
			telemetry.FlattenHistogram(m, "cluster/class_total_ms/"+class, h)
		}
		for _, ctr := range []string{"class_slo_ok/", "class_slo_miss/"} {
			var sum float64
			for _, rm := range replicaMetrics {
				sum += rm["service/"+ctr+class]
			}
			m["cluster/"+ctr+class] = sum
		}
	}
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Metrics(r.Context()))
}

// ClusterHealth is the gateway's /healthz body.
type ClusterHealth struct {
	Status   string `json:"status"` // ok | degraded | down
	Replicas int    `json:"replicas"`
	Healthy  int    `json:"healthy"`
	Draining bool   `json:"draining"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := ClusterHealth{
		Replicas: len(g.reg.replicas),
		Healthy:  g.reg.Healthy(),
		Draining: g.isDraining(),
	}
	switch {
	case h.Healthy == h.Replicas:
		h.Status = "ok"
	case h.Healthy > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
	}
	writeJSON(w, http.StatusOK, h)
}
