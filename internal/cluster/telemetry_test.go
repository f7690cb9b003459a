package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// startTracedReplica runs a pasmd service with a tracer attached so
// propagation tests can inspect the replica-side trace.
func startTracedReplica(t *testing.T, name string) (*telemetry.Tracer, *httptest.Server) {
	t.Helper()
	tr := telemetry.New(telemetry.Config{Component: "pasmd/" + name, Seed: 11})
	s := service.New(service.Config{Workers: 2, QueueDepth: 16, Name: name,
		FillSecret: testFillSecret,
		Telemetry:  tr,
		Options:    experiments.DefaultOptions()})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		srv.Close()
	})
	return tr, srv
}

// TestGatewayTracePropagation: a client-minted trace context flows
// through the gateway (route + attempt spans) into the serving replica
// (admit/queue/run spans) under one trace ID, and both hops expose it
// on /debug/requests.
func TestGatewayTracePropagation(t *testing.T) {
	ta, ra := startTracedReplica(t, "a")
	tb, rb := startTracedReplica(t, "b")
	gwTracer := telemetry.New(telemetry.Config{Component: "pasmgw", Seed: 12})
	_, gsrv := startGateway(t, Config{
		Registry:  RegistryConfig{Replicas: []string{"a=" + ra.URL, "b=" + rb.URL}},
		Telemetry: gwTracer,
	})

	const trace = "00000000cafef00d"
	cl := client.New(gsrv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := cl.Run(ctx, specN(21), client.SubmitOptions{
		Wait:        10 * time.Second,
		TraceHeader: trace,
	}); err != nil {
		t.Fatalf("traced run: %v", err)
	}

	// Gateway hop: route span naming the owner, one attempt span.
	gw := gwTracer.Lookup(trace)
	if gw == nil {
		t.Fatalf("gateway did not record trace %s", trace)
	}
	gwSnap := gw.Snapshot()
	spans := map[string]telemetry.SpanSnapshot{}
	for _, sp := range gwSnap.Spans {
		spans[sp.Name] = sp
	}
	route, ok := spans["route"]
	if !ok {
		t.Fatalf("gateway trace lacks route span: %+v", gwSnap.Spans)
	}
	attrs := map[string]any{}
	for _, a := range route.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["owner"] != "a" && attrs["owner"] != "b" {
		t.Errorf("route owner attr = %v, want a replica name", attrs["owner"])
	}
	if _, ok := spans["attempt"]; !ok {
		t.Fatalf("gateway trace lacks attempt span: %+v", gwSnap.Spans)
	}

	// Replica hop: the same trace ID continued on whichever replica
	// served, with the full admit/queue/run stage set.
	var rep *telemetry.Req
	for _, tr := range []*telemetry.Tracer{ta, tb} {
		if r := tr.Lookup(trace); r != nil {
			rep = r
			break
		}
	}
	if rep == nil {
		t.Fatalf("no replica recorded trace %s", trace)
	}
	repSnap := rep.Snapshot()
	got := map[string]bool{}
	for _, sp := range repSnap.Spans {
		got[sp.Name] = true
	}
	for _, want := range []string{"admit", "queue", "run"} {
		if !got[want] {
			t.Errorf("replica trace missing %q span; have %+v", want, repSnap.Spans)
		}
	}
	if repSnap.Parent == "" {
		t.Errorf("replica trace did not continue the gateway's span context")
	}

	// Both hops serve the trace on /debug/requests.
	resp, err := http.Get(gsrv.URL + "/debug/requests/" + trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway /debug/requests/%s: %d", trace, resp.StatusCode)
	}
	var body telemetry.ReqSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Trace != trace {
		t.Fatalf("debug snapshot trace = %q", body.Trace)
	}
}

// TestGatewayMetricsAggregation: the gateway merges the replicas'
// per-stage latency histograms bucket-by-bucket into cluster-level
// quantiles, and its own per-outcome submit latency shows up under
// cluster/submit_ms. Two jobs are owned by each replica, so the merge
// really sums across replicas.
func TestGatewayMetricsAggregation(t *testing.T) {
	_, ra := startReplica(t, "a")
	_, rb := startReplica(t, "b")
	g, gsrv := startGateway(t, Config{
		Registry: RegistryConfig{Replicas: []string{"a=" + ra.URL, "b=" + rb.URL}},
	})
	seeds := append(seedsOwnedBy(t, g, "a", 2), seedsOwnedBy(t, g, "b", 2)...)

	cl := client.New(gsrv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const jobs = 4 // len(seeds)
	for i, seed := range seeds {
		if _, _, err := cl.Run(ctx, specN(seed), client.SubmitOptions{Wait: 20 * time.Second}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	m := g.Metrics(ctx)
	if got := m["cluster/total_ms/count"]; got != jobs {
		t.Errorf("cluster/total_ms/count = %v, want %d", got, jobs)
	}
	for _, key := range []string{
		"cluster/total_ms/p50", "cluster/total_ms/p99",
		"cluster/run_ms/p95", "cluster/queue_wait_ms/count",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	// Aggregated count equals the sum over replicas — nothing dropped.
	var perReplica float64
	for name, srv := range map[string]*httptest.Server{"a": ra, "b": rb} {
		rm, err := client.New(srv.URL).Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n := rm["service/total_ms/count"]; n < 1 {
			t.Errorf("replica %s ran %v jobs, want >= 1 (its two owned specs)", name, n)
		}
		perReplica += rm["service/total_ms/count"]
	}
	if m["cluster/total_ms/count"] != perReplica {
		t.Errorf("aggregated count %v != replica sum %v", m["cluster/total_ms/count"], perReplica)
	}
	// Gateway-side submit latency, keyed by outcome.
	accepted := "cluster/submit_ms/outcome=accepted/count"
	if got := m[accepted]; got != jobs {
		t.Errorf("%s = %v, want %d", accepted, got, jobs)
	}
}
