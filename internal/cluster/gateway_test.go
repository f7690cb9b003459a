package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/service"
)

func specN(seed uint32) experiments.Spec {
	return experiments.Spec{Exps: []string{"table1"}, Seed: seed}
}

// testFillSecret authenticates peer fills between the test replicas
// and gateways (both sides must agree on it).
const testFillSecret = "cluster-test-fill-secret"

// startReplica runs a real pasmd service over httptest.
func startReplica(t *testing.T, name string) (*service.Service, *httptest.Server) {
	t.Helper()
	s := service.New(service.Config{Workers: 2, QueueDepth: 16, Name: name,
		FillSecret: testFillSecret,
		Options:    experiments.DefaultOptions()})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		srv.Close()
	})
	return s, srv
}

func startGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	if cfg.Registry.FillSecret == "" {
		cfg.Registry.FillSecret = testFillSecret
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return g, srv
}

// ownerName resolves which replica a spec hashes to.
func ownerName(t *testing.T, g *Gateway, spec experiments.Spec) string {
	t.Helper()
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	return g.owner(key).Name
}

// seedOwnedBy hunts for a spec seed whose hash owner is the named
// replica (bounded; the ring spreads keys so a hit comes fast).
func seedOwnedBy(t *testing.T, g *Gateway, name string) uint32 {
	t.Helper()
	for seed := uint32(1); seed < 200; seed++ {
		if ownerName(t, g, specN(seed)) == name {
			return seed
		}
	}
	t.Fatalf("no seed in 1..200 hashes to %s", name)
	return 0
}

// TestGatewayEndToEnd: a submit through the gateway completes, the job
// ID routes reads back through "name~id", and the result bytes are
// identical to a standalone replica's — the determinism invariant that
// makes the whole cluster design safe.
func TestGatewayEndToEnd(t *testing.T) {
	_, r0 := startReplica(t, "a")
	_, r1 := startReplica(t, "b")
	g, gsrv := startGateway(t, Config{Registry: RegistryConfig{
		Replicas: []string{"a=" + r0.URL, "b=" + r1.URL},
	}})

	cl := client.New(gsrv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	raw, st, err := cl.Run(ctx, specN(11), client.SubmitOptions{Wait: 10 * time.Second})
	if err != nil {
		t.Fatalf("run through gateway: %v", err)
	}
	if !strings.Contains(st.ID, jobIDSep) {
		t.Errorf("gateway job ID %q lacks the %q separator", st.ID, jobIDSep)
	}
	if _, ok := cl.Job(ctx, st.ID); ok != nil {
		t.Errorf("poll by gateway ID failed: %v", ok)
	}

	// Same spec on an untouched standalone replica: byte-identical.
	_, solo := startReplica(t, "solo")
	soloRaw, _, err := client.New(solo.URL).Run(ctx, specN(11), client.SubmitOptions{Wait: 10 * time.Second})
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	if !bytes.Equal(raw, soloRaw) {
		t.Fatalf("gateway result differs from standalone (%d vs %d bytes)", len(raw), len(soloRaw))
	}

	// The submit response carries routing headers.
	body, _ := json.Marshal(service.SubmitRequest{Spec: specN(12), WaitMS: 10000})
	resp, err := http.Post(gsrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(ReplicaHeader) == "" || resp.Header.Get(OwnerHeader) == "" {
		t.Errorf("missing routing headers: replica=%q owner=%q",
			resp.Header.Get(ReplicaHeader), resp.Header.Get(OwnerHeader))
	}
	_ = g
}

// TestGatewayFailover: the spec's hash owner is dead; the gateway
// fails over along the ring and still returns the right bytes.
func TestGatewayFailover(t *testing.T) {
	_, live := startReplica(t, "live")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on

	g, gsrv := startGateway(t, Config{Registry: RegistryConfig{
		Replicas: []string{"down=" + dead.URL, "live=" + live.URL},
	}})
	seed := seedOwnedBy(t, g, "down")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(gsrv.URL)
	raw, st, err := cl.Run(ctx, specN(seed), client.SubmitOptions{Wait: 10 * time.Second})
	if err != nil {
		t.Fatalf("run with dead owner: %v", err)
	}
	if len(raw) == 0 || st.State != service.StateDone {
		t.Fatalf("bad outcome: state=%s len=%d", st.State, len(raw))
	}
	if !strings.HasPrefix(st.ID, "live"+jobIDSep) {
		t.Errorf("job landed on %q, want the live replica", st.ID)
	}

	m := g.Metrics(ctx)
	if m["cluster/failovers"] < 1 {
		t.Errorf("cluster/failovers = %v, want >= 1", m["cluster/failovers"])
	}

	_, solo := startReplica(t, "solo")
	soloRaw, _, err := client.New(solo.URL).Run(ctx, specN(seed), client.SubmitOptions{Wait: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, soloRaw) {
		t.Fatal("failover result differs from standalone run")
	}
}

// TestGatewayAllDownSheds: with every replica dead the breakers open
// after the configured failures and the gateway sheds with 503 +
// Retry-After instead of hanging or retrying forever.
func TestGatewayAllDownSheds(t *testing.T) {
	d1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	d2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	d1.Close()
	d2.Close()

	g, gsrv := startGateway(t, Config{Registry: RegistryConfig{
		Replicas: []string{"x=" + d1.URL, "y=" + d2.URL},
		Breaker:  BreakerConfig{ConsecutiveFailures: 1, Cooldown: time.Minute},
	}})

	submit := func() *http.Response {
		body, _ := json.Marshal(service.SubmitRequest{Spec: specN(1)})
		resp, err := http.Post(gsrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// First submit: both replicas tried, both fail, both breakers open.
	resp := submit()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-dead submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("all-dead submit: missing Retry-After")
	}
	for _, rep := range g.Registry().Replicas() {
		if rep.Breaker().State() != StateOpen {
			t.Errorf("replica %s breaker %v, want open", rep.Name, rep.Breaker().State())
		}
	}

	// Second submit: nothing routable — pure shed, no connection attempts.
	resp = submit()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed submit: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	m := g.Metrics(context.Background())
	if m["cluster/shed"] < 2 {
		t.Errorf("cluster/shed = %v, want >= 2", m["cluster/shed"])
	}
	if m["replicas/x/breaker_state"] != float64(StateOpen) {
		t.Errorf("breaker_state metric = %v, want %d", m["replicas/x/breaker_state"], StateOpen)
	}
}

// TestGatewayPeerFill: under round-robin routing a spec lands off its
// hash owner; fetching the result triggers a background fill, after
// which the owner serves the same spec from cache.
func TestGatewayPeerFill(t *testing.T) {
	_, r0 := startReplica(t, "a")
	_, r1 := startReplica(t, "b")
	_, r2 := startReplica(t, "c")
	addrs := map[string]string{"a": r0.URL, "b": r1.URL, "c": r2.URL}

	g, gsrv := startGateway(t, Config{
		Registry: RegistryConfig{Replicas: []string{"a=" + r0.URL, "b=" + r1.URL, "c=" + r2.URL}},
		Policy:   PolicyRoundRobin,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Round-robin walks a,b,c,... while ownership is hash-determined,
	// so within a handful of distinct specs one lands off-owner.
	var owner string
	var fillSpec experiments.Spec
	for seed := uint32(21); seed < 33; seed++ {
		spec := specN(seed)
		body, _ := json.Marshal(service.SubmitRequest{Spec: spec, WaitMS: 20000})
		resp, err := http.Post(gsrv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st service.JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		served := resp.Header.Get(ReplicaHeader)
		own := resp.Header.Get(OwnerHeader)
		if st.State != service.StateDone {
			t.Fatalf("seed %d: state %s, want done", seed, st.State)
		}
		// Fetch the result — the fill trigger lives on the result path.
		rresp, err := http.Get(gsrv.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, rresp.Body)
		rresp.Body.Close()
		if served != own {
			owner, fillSpec = own, spec
			break
		}
	}
	if owner == "" {
		t.Fatal("no off-owner submission in 12 distinct specs — routing or ring broken")
	}

	// The fill is async: wait for the counter.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := g.Metrics(ctx)
		if m["cluster/peer_fills"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer fill never landed: %v", m["cluster/peer_fill_errors"])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The owner now serves the spec from its cache without executing.
	st, err := client.New(addrs[owner]).Submit(ctx, fillSpec, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached || st.State != service.StateDone {
		t.Errorf("owner %s: cached=%v state=%s, want a cache hit", owner, st.Cached, st.State)
	}
}

// TestGatewayDrain: a draining gateway sheds new submissions but keeps
// serving reads for accepted jobs — the lossless half of SIGTERM.
func TestGatewayDrain(t *testing.T) {
	_, r0 := startReplica(t, "a")
	g, gsrv := startGateway(t, Config{Registry: RegistryConfig{Replicas: []string{"a=" + r0.URL}}})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(gsrv.URL)
	st, err := cl.Submit(ctx, specN(5), client.SubmitOptions{Wait: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	g.Drain()

	if _, err := cl.Submit(ctx, specN(6), client.SubmitOptions{}); err == nil {
		t.Fatal("draining gateway accepted a submit")
	} else {
		var api *client.APIError
		if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable || api.RetryAfter <= 0 {
			t.Fatalf("drain rejection = %v, want 503 with Retry-After", err)
		}
	}

	if _, err := cl.Job(ctx, st.ID); err != nil {
		t.Errorf("read during drain failed: %v", err)
	}
	if _, err := cl.Result(ctx, st.ID); err != nil {
		t.Errorf("result during drain failed: %v", err)
	}
}

// TestGatewayHedge: when the owner hangs, the hedge timer launches the
// submit at the next replica and the client gets its answer from
// there.
func TestGatewayHedge(t *testing.T) {
	_, live := startReplica(t, "fast")
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		// Hang until the caller gives up (or the test ends).
		select {
		case <-r.Context().Done():
		case <-release:
		}
		http.Error(w, "too late", http.StatusInternalServerError)
	}))
	t.Cleanup(slow.Close)
	t.Cleanup(func() { close(release) }) // LIFO: unblock handlers before Close waits on them

	g, gsrv := startGateway(t, Config{
		Registry: RegistryConfig{Replicas: []string{"slow=" + slow.URL, "fast=" + live.URL}},
		Hedge:    100 * time.Millisecond,
	})
	seed := seedOwnedBy(t, g, "slow")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	raw, st, err := client.New(gsrv.URL).Run(ctx, specN(seed), client.SubmitOptions{Wait: 10 * time.Second})
	if err != nil {
		t.Fatalf("hedged run: %v", err)
	}
	if !strings.HasPrefix(st.ID, "fast"+jobIDSep) {
		t.Errorf("job served by %q, want the fast replica", st.ID)
	}
	if len(raw) == 0 {
		t.Error("empty result")
	}
	if m := g.Metrics(ctx); m["cluster/hedges"] < 1 {
		t.Errorf("cluster/hedges = %v, want >= 1", m["cluster/hedges"])
	}
}

// TestRegistryHealthProbeClosesBreaker: the active health loop opens
// the breaker of a failing replica and — acting as the half-open probe
// — closes it again once the replica recovers, with no client traffic
// at all.
func TestRegistryHealthProbeClosesBreaker(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"status":"ok","name":"flaky"}`)
	}))
	t.Cleanup(flaky.Close)
	_, good := startReplica(t, "good")

	reg, err := NewRegistry(RegistryConfig{
		Replicas: []string{"flaky=" + flaky.URL, "good=" + good.URL},
		Breaker:  BreakerConfig{ConsecutiveFailures: 2, Cooldown: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	reg.CheckAll()
	reg.CheckAll()
	fl, _ := reg.Find("flaky")
	if fl.Breaker().State() != StateOpen {
		t.Fatalf("flaky breaker %v after 2 failed checks, want open", fl.Breaker().State())
	}
	if reg.Healthy() != 1 {
		t.Fatalf("healthy = %d, want 1", reg.Healthy())
	}

	// Recover the replica; once the cooldown passes, the next check is
	// the probe that closes the breaker.
	down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for fl.Breaker().State() != StateClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after recovery (state %v)", fl.Breaker().State())
		}
		time.Sleep(25 * time.Millisecond)
		reg.CheckAll()
	}
	if reg.Healthy() != 2 {
		t.Errorf("healthy = %d after recovery, want 2", reg.Healthy())
	}

	// The snapshot reflects a real replica's enriched health.
	gd, _ := reg.Find("good")
	if alive, h := gd.Snapshot(); !alive || h.Name != "good" || h.Workers == 0 {
		t.Errorf("good snapshot: alive=%v name=%q workers=%d", alive, h.Name, h.Workers)
	}
}

// TestRoutableExcludesDraining: a replica advertising draining in its
// health body stops receiving new submissions even though it answers
// health checks.
func TestRoutableExcludesDraining(t *testing.T) {
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"draining","draining":true}`)
	}))
	t.Cleanup(draining.Close)

	reg, err := NewRegistry(RegistryConfig{Replicas: []string{"d=" + draining.URL}})
	if err != nil {
		t.Fatal(err)
	}
	reg.CheckAll()
	rep, _ := reg.Find("d")
	if rep.Routable(time.Now()) {
		t.Fatal("draining replica still routable")
	}
	if rep.Breaker().State() != StateClosed {
		t.Fatalf("breaker %v, want closed — draining is not a failure", rep.Breaker().State())
	}
}

// TestHedgeSelectionDoesNotConsumeProbe: regression for a breaker
// wedge. Picking a hedge candidate used to call Routable (and thus
// Breaker.Allow) before the hedge timer fired; when the primary
// answered in time, the candidate's half-open probe slot was claimed
// but never resolved, leaving the breaker rejecting everything
// forever. Hedge selection is now lazy: a candidate's breaker is only
// consulted by a request that actually launches.
func TestHedgeSelectionDoesNotConsumeProbe(t *testing.T) {
	_, r0 := startReplica(t, "a")
	_, r1 := startReplica(t, "b")
	g, gsrv := startGateway(t, Config{
		Registry: RegistryConfig{
			Replicas: []string{"a=" + r0.URL, "b=" + r1.URL},
			Breaker:  BreakerConfig{ConsecutiveFailures: 1, Cooldown: time.Millisecond},
		},
		Hedge: 30 * time.Second, // never fires: the primary is healthy
	})
	seed := seedOwnedBy(t, g, "a")

	// Trip b's breaker, then let the cooldown lapse so its next Allow
	// would hand out the single half-open probe slot.
	b, _ := g.Registry().Find("b")
	b.Breaker().Report(false, time.Now())
	if b.Breaker().State() != StateOpen {
		t.Fatalf("b breaker %v after failure, want open", b.Breaker().State())
	}
	time.Sleep(10 * time.Millisecond)

	// The primary answers long before the hedge delay, so no hedge
	// request ever launches toward b.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := client.New(gsrv.URL).Run(ctx, specN(seed), client.SubmitOptions{Wait: 15 * time.Second}); err != nil {
		t.Fatalf("hedged run with healthy primary: %v", err)
	}

	// b's probe slot must still be available: Allow either probes
	// (open -> half-open) or the breaker already closed via a real
	// hedge on a slow machine — both are fine; a wedged half-open
	// breaker that rejects is the bug.
	if !b.Breaker().Allow(time.Now()) {
		t.Fatalf("hedge candidate's breaker lost its probe slot with no hedge launched (state %v)", b.Breaker().State())
	}
	b.Breaker().Cancel()
}

// TestPeerFillVersionSkip: a fill is skipped (not sent) when the
// serving replica's code version is unknown or differs from the
// owner's — old-semantics bytes must never land under a new-version
// key during a rolling upgrade.
func TestPeerFillVersionSkip(t *testing.T) {
	_, r0 := startReplica(t, "a")
	g, _ := startGateway(t, Config{Registry: RegistryConfig{Replicas: []string{"a=" + r0.URL}}})

	rep, _ := g.Registry().Find("a")
	rep.mu.Lock()
	rep.alive = true
	rep.health.Code = "pasm-sim/other"
	rep.mu.Unlock()

	j := &gwJob{spec: specN(1), owner: "a", served: "b"}
	j.filled.Store(true)
	g.fillOwner(j, []byte("x\n"), experiments.CodeVersion)
	if g.peerFillSkips.Load() != 1 {
		t.Fatalf("peerFillSkips = %d after version mismatch, want 1", g.peerFillSkips.Load())
	}
	if j.filled.Load() {
		t.Error("filled flag not reset after a version skip (no retry possible)")
	}
	if g.peerFills.Load() != 0 || g.peerFillErrs.Load() != 0 {
		t.Error("skipped fill still issued an RPC")
	}

	g.fillOwner(j, []byte("x\n"), "") // unknown producer version
	if g.peerFillSkips.Load() != 2 {
		t.Fatalf("peerFillSkips = %d after unknown version, want 2", g.peerFillSkips.Load())
	}
	if m := g.Metrics(context.Background()); m["cluster/peer_fill_skips"] != 2 {
		t.Errorf("cluster/peer_fill_skips = %v, want 2", m["cluster/peer_fill_skips"])
	}
}

// TestRegistryStopWithoutStart: Stop must not hang when the health
// loop never launched (the error path of a caller that defers Stop but
// fails before Start).
func TestRegistryStopWithoutStart(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{Replicas: []string{"a=127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { reg.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop without Start deadlocked")
	}

	// The started path still round-trips cleanly.
	reg2, err := NewRegistry(RegistryConfig{Replicas: []string{"a=127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	reg2.Start()
	reg2.Stop()
}

// startPartitionReplica runs a pasmd service in partition mode: jobs
// pack onto subcube partitions of one shared machine instead of a
// worker pool.
func startPartitionReplica(t *testing.T, name string, pes int) (*service.Service, *httptest.Server) {
	t.Helper()
	cfg := experiments.DefaultOptions()
	machineCfg := cfg.Config
	machineCfg.NumPEs = pes
	m, err := partition.New(machineCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := service.New(service.Config{QueueDepth: 16, Name: name,
		FillSecret: testFillSecret,
		Machine:    m,
		Options:    cfg})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		srv.Close()
	})
	return s, srv
}

// TestGatewayPartitionPassthrough: a spec that names a machine size
// passes through the gateway unchanged — the report echoes its pes —
// and a partition-mode replica behind the gateway returns bytes
// identical to a classic worker-pool replica, so partition sizing is
// invisible to the routing layer.
func TestGatewayPartitionPassthrough(t *testing.T) {
	_, pr := startPartitionReplica(t, "part", 32)
	_, gsrv := startGateway(t, Config{Registry: RegistryConfig{
		Replicas: []string{"part=" + pr.URL},
	}})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spec := experiments.Spec{Exps: []string{"table1"}, PEs: 32, Seed: 21}
	raw, _, err := client.New(gsrv.URL).Run(ctx, spec, client.SubmitOptions{Wait: 20 * time.Second})
	if err != nil {
		t.Fatalf("run through gateway: %v", err)
	}
	var rep experiments.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.PEs != 32 {
		t.Errorf("report pes = %d, want the requested 32 (gateway must pass sizing through)", rep.PEs)
	}

	// The classic path produces the same bytes for the same spec.
	_, solo := startReplica(t, "solo")
	soloRaw, _, err := client.New(solo.URL).Run(ctx, spec, client.SubmitOptions{Wait: 20 * time.Second})
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	if !bytes.Equal(raw, soloRaw) {
		t.Fatalf("partition-mode replica differs from classic (%d vs %d bytes)", len(raw), len(soloRaw))
	}

	// A spec larger than the replica's machine is a clean bad request
	// through the gateway, not a failover storm.
	_, _, err = client.New(gsrv.URL).Run(ctx, experiments.Spec{Exps: []string{"table1"}, PEs: 64, Seed: 21},
		client.SubmitOptions{Wait: 5 * time.Second})
	if err == nil {
		t.Error("oversize spec succeeded on a 32-PE machine")
	}
}

// TestGatewaySubmitBodyBound: the gateway refuses a submit body past
// service.MaxSubmitBytes with a JSON 413 before routing it anywhere,
// and a body of exactly the limit routes normally and serves the
// standalone replica's bytes.
func TestGatewaySubmitBodyBound(t *testing.T) {
	s0, r0 := startReplica(t, "a")
	_, gsrv := startGateway(t, Config{Registry: RegistryConfig{
		Replicas: []string{"a=" + r0.URL},
	}})
	padded := func(size int) []byte {
		body, err := json.Marshal(service.SubmitRequest{Spec: specN(21), WaitMS: 10000})
		if err != nil {
			t.Fatal(err)
		}
		pad := bytes.Repeat([]byte(" "), size-len(body))
		return append(append(body[:len(body)-1:len(body)-1], pad...), '}')
	}

	resp, err := http.Post(gsrv.URL+"/v1/jobs", "application/json", bytes.NewReader(padded(service.MaxSubmitBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	decErr := json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" || decErr != nil || eb.Error == "" {
		t.Errorf("oversized body: want a JSON error, got Content-Type %q, decode err %v, body %+v", ct, decErr, eb)
	}
	if n := len(s0.Jobs()); n != 0 {
		t.Errorf("oversized body reached the replica: %d jobs", n)
	}

	resp, err = http.Post(gsrv.URL+"/v1/jobs", "application/json", bytes.NewReader(padded(service.MaxSubmitBytes)))
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	decErr = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || decErr != nil || st.State != service.StateDone {
		t.Fatalf("body at the limit: status %d, state %s, decode err %v", resp.StatusCode, st.State, decErr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	raw, err := client.New(gsrv.URL).Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, solo := startReplica(t, "solo")
	soloRaw, _, err := client.New(solo.URL).Run(ctx, specN(21), client.SubmitOptions{Wait: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, soloRaw) {
		t.Fatal("body at the limit: gateway result differs from a standalone run")
	}
}
