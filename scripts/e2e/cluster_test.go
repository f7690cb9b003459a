//go:build e2e

package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// fillSecret authenticates the gateway's peer-fill pushes; both sides
// only need to agree on it.
const fillSecret = "e2e-fill-secret"

// TestCluster: three replicas behind pasmgw under real process chaos,
// with fixed seeds and replica names so ring ownership repeats.
//
//  1. All healthy: every spec is byte-identical to a fault-free run.
//  2. Replica b SIGKILLed: the gateway fails over, b's breaker opens,
//     and every spec still completes byte-identical (jobs that died
//     with b are resubmitted and served by the survivors).
//  3. b restarted on its address: the health probe closes its breaker
//     and b serves again. Re-reading phase 2's results peer-fills the
//     b-owned ones into b, after which every phase-2 spec is a cache
//     hit through the gateway.
//  4. SIGTERM drains the gateway, then the replicas, all exiting 0.
func TestCluster(t *testing.T) {
	c := startCluster(t, []string{"a", "b", "c"}, []string{"-fill-secret", fillSecret},
		[]string{"-breaker-failures", "2", "-breaker-cooldown", "500ms", "-fill-secret", fillSecret})
	cl := retrying(c.gw.addr, 11)
	ctx := testContext(t, 5*time.Minute)

	drivePhase(ctx, t, cl, "healthy", cells(1000, 9))

	// No drain, no goodbye; traffic follows at once, so live requests
	// hit the dead address before the health loop notices.
	c.reps[1].stop(t, syscall.SIGKILL, 10*time.Second)
	phase2 := cells(2000, 9)
	phase2IDs := drivePhase(ctx, t, cl, "b-dead", phase2)
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics after kill: %v", err)
	}
	if m["replicas/b/breaker_opens"] < 1 || m["cluster/failovers"] < 1 {
		t.Fatalf("replicas/b/breaker_opens = %g, cluster/failovers = %g; want both >= 1",
			m["replicas/b/breaker_opens"], m["cluster/failovers"])
	}

	c.reps[1] = startReplica(t, "b", c.reps[1].addr, "-fill-secret", fillSecret)
	waitMetric(ctx, t, cl, "replicas/b/breaker_closes", 1, 15*time.Second)
	waitMetric(ctx, t, cl, "replicas/b/alive", 1, 15*time.Second)
	drivePhase(ctx, t, cl, "b-restarted", cells(3000, 9))
	if m, _ := cl.Metrics(ctx); m["replicas/b/forwarded"] < 1 {
		t.Fatalf("replicas/b/forwarded = %g after rejoin, want >= 1", m["replicas/b/forwarded"])
	}

	// Failover computed the b-owned phase-2 specs off their owner; these
	// reads fill b's cache.
	want := reference(t, phase2)
	ownedByB := 0
	for i, id := range phase2IDs {
		resp, err := http.Get("http://" + c.gw.addr + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatalf("re-reading phase-2 result %s: %v", id, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[i]) {
			t.Fatalf("re-reading phase-2 spec %d: HTTP %d, err %v, bytes match: %v", i, resp.StatusCode, err, bytes.Equal(body, want[i]))
		}
		if resp.Header.Get(cluster.OwnerHeader) == "b" {
			if resp.Header.Get(cluster.ReplicaHeader) == "b" {
				t.Fatalf("phase-2 spec %d was served by b while b was dead", i)
			}
			ownedByB++
		}
	}
	if ownedByB == 0 {
		t.Fatal("no phase-2 spec hashes to b, so nothing exercises peer fill")
	}
	waitMetric(ctx, t, cl, "cluster/peer_fills", float64(ownedByB), 10*time.Second)
	if m, err := cl.Metrics(ctx); err == nil {
		t.Logf("%d b-owned specs: peer_fills %g, peer_fill_errors %g, peer_fill_skips %g",
			ownedByB, m["cluster/peer_fills"], m["cluster/peer_fill_errors"], m["cluster/peer_fill_skips"])
	}
	for i, spec := range phase2 {
		if st, err := cl.Submit(ctx, spec, client.SubmitOptions{}); err != nil || !st.Cached {
			t.Fatalf("resubmitting phase-2 spec %d: cached=%v err=%v, want a cache hit", i, st.Cached, err)
		}
	}

	c.gw.stop(t, syscall.SIGTERM, 30*time.Second)
	for _, r := range c.reps {
		r.signal(t, syscall.SIGTERM)
	}
	for _, r := range c.reps {
		r.wait(t, 60*time.Second)
	}
}

// drivePhase runs every spec to done through the gateway, checks it
// byte for byte against a fault-free run, and returns each spec's
// gateway job ID. A job lost with a killed replica is resubmitted; a
// wrong byte never is.
func drivePhase(ctx context.Context, t *testing.T, cl *client.Client, phase string, specs []experiments.Spec) []string {
	t.Helper()
	want := reference(t, specs)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		got, id, err := runToCompletion(ctx, cl, spec, client.SubmitOptions{Wait: 30 * time.Second}, 40, true)
		if err != nil {
			t.Fatalf("phase %s: spec %d never completed: %v", phase, i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("phase %s: spec %d: bytes differ from the fault-free run", phase, i)
		}
		ids[i] = id
	}
	return ids
}

// TestTelemetry: three traced replicas behind a traced gateway. One
// client-minted trace ID spans the whole path: route and attempt spans
// at the gateway, admit, queue and run (on the worker track) at the
// replica that served it, which continued the gateway's span context.
// That replica's merged Perfetto export is a valid Chrome trace with
// both the host-time serving track and the simulated clock, and the
// gateway's /metrics carries cluster-wide stage quantiles and trace
// counters.
func TestTelemetry(t *testing.T) {
	const trace = "00000000ab1e50da"
	// Propagated contexts are always traced, whatever the sample rate.
	c := startCluster(t, []string{"a", "b", "c"}, []string{"-trace-sample", "0"}, []string{"-trace-sample", "1"})
	cl := client.New(c.gw.addr)
	ctx := testContext(t, 3*time.Minute)

	spec := experiments.Spec{Cells: []experiments.CellSpec{{N: 16, P: 4, Muls: 1, Mode: "smimd"}}, Seed: 4242}
	if _, _, err := cl.Run(ctx, spec, client.SubmitOptions{Wait: 60 * time.Second, TraceHeader: trace}); err != nil {
		t.Fatalf("traced run: %v", err)
	}

	snap, err := fetchSnapshot(c.gw.addr, trace)
	if err == nil {
		err = wantSpans(snap, "route", "attempt")
	}
	if err != nil {
		t.Fatalf("gateway trace: %v", err)
	}
	var served *proc
	for _, r := range c.reps {
		if snap, err = fetchSnapshot(r.addr, trace); err == nil {
			served = r
			break
		}
	}
	if served == nil {
		t.Fatalf("no replica recorded trace %s", trace)
	}
	if err := wantSpans(snap, "admit", "queue", "run"); err != nil {
		t.Fatalf("%s trace: %v", served.name, err)
	}
	for _, sp := range snap.Spans {
		if sp.Name == "run" && sp.Track != "worker" {
			t.Fatalf("run span on track %q, want worker", sp.Track)
		}
	}
	if snap.Parent == "" {
		t.Fatal("the replica's trace did not continue the gateway's span context")
	}

	perfetto, err := httpGet(served.addr, "/debug/requests/"+trace+"/perfetto")
	if err != nil {
		t.Fatalf("perfetto export: %v", err)
	}
	n, err := obs.ValidateChromeTrace(perfetto)
	if err != nil {
		t.Fatalf("perfetto export invalid: %v", err)
	}
	for _, want := range []string{"simulated clock", "run", "serving"} {
		if !bytes.Contains(perfetto, []byte(want)) {
			t.Fatalf("perfetto export (%d events) lacks %q", n, want)
		}
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("gateway metrics: %v", err)
	}
	for _, key := range []string{"cluster/total_ms/p50", "cluster/total_ms/p99", "cluster/run_ms/p95", "telemetry/traces_started"} {
		if _, ok := m[key]; !ok {
			t.Errorf("gateway metrics missing %q", key)
		}
	}
	if m["telemetry/traces_finished"] < 1 {
		t.Errorf("telemetry/traces_finished = %v, want >= 1", m["telemetry/traces_finished"])
	}
}

// fetchSnapshot pulls one trace's timeline from a host's
// /debug/requests endpoint.
func fetchSnapshot(addr, trace string) (*telemetry.ReqSnapshot, error) {
	data, err := httpGet(addr, "/debug/requests/"+trace)
	if err != nil {
		return nil, err
	}
	var snap telemetry.ReqSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("decoding snapshot: %v", err)
	}
	return &snap, nil
}

func wantSpans(snap *telemetry.ReqSnapshot, names ...string) error {
	have := map[string]bool{}
	for _, sp := range snap.Spans {
		have[sp.Name] = true
	}
	for _, want := range names {
		if !have[want] {
			return fmt.Errorf("missing %q span (have %v)", want, snap.Spans)
		}
	}
	return nil
}

func httpGet(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}
