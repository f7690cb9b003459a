// Command telemetrysmoke is the end-to-end gate for request tracing
// and serving telemetry (make telemetry-smoke). It builds pasmd and
// pasmgw, starts three traced replicas behind a traced gateway, and
// proves the observability invariants:
//
//  1. one trace ID spans the whole serving path: a client-minted
//     X-Pasm-Trace context shows route/attempt spans at the gateway
//     and admit/queue/run spans (run on the worker track) at the
//     replica that served it, all under the same ID;
//  2. the merged Perfetto export at the replica is valid Chrome trace
//     JSON carrying both clock domains — host-time serving spans and
//     the simulated-clock event stream of the same request;
//  3. /metrics v2 exposes per-stage latency quantiles standalone and
//     aggregated cluster-wide at the gateway;
//  4. detached telemetry stays free: the full span choreography
//     against a nil tracer allocates nothing.
//
// Exit 0 only if every check passes.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/scripts/internal/smoke"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "telemetrysmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "telemetrysmoke: PASS")
}

// trace is the client-minted context for the traced request: fixed, so
// every assertion below can name it.
const trace = "00000000ab1e50da"

type replica struct {
	name string
	addr string
	cmd  *exec.Cmd
}

func run() error {
	dir, err := os.MkdirTemp("", "telemetrysmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	pasmd := filepath.Join(dir, "pasmd")
	pasmgw := filepath.Join(dir, "pasmgw")
	for bin, pkg := range map[string]string{pasmd: "./cmd/pasmd", pasmgw: "./cmd/pasmgw"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %v\n%s", pkg, err, out)
		}
	}

	var reps []*replica
	defer func() {
		for _, r := range reps {
			if r.cmd.Process != nil {
				r.cmd.Process.Kill()
			}
		}
	}()
	for _, name := range []string{"a", "b", "c"} {
		addrFile := filepath.Join(dir, "addr-"+name)
		cmd := exec.Command(pasmd,
			"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-name", name,
			"-queue", "16", "-workers", "2", "-parallel", "2",
			"-trace-sample", "0") // propagated contexts are always traced
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting replica %s: %v", name, err)
		}
		bound, err := smoke.WaitForFile(addrFile, 15*time.Second)
		if err != nil {
			cmd.Process.Kill()
			return err
		}
		reps = append(reps, &replica{name: name, addr: strings.TrimSpace(bound), cmd: cmd})
	}

	gwAddrFile := filepath.Join(dir, "addr-gw")
	gw := exec.Command(pasmgw,
		"-addr", "127.0.0.1:0", "-addr-file", gwAddrFile,
		"-replica", "a="+reps[0].addr,
		"-replica", "b="+reps[1].addr,
		"-replica", "c="+reps[2].addr,
		"-health-interval", "300ms",
		"-trace-sample", "1")
	gw.Stderr = os.Stderr
	if err := gw.Start(); err != nil {
		return fmt.Errorf("starting pasmgw: %v", err)
	}
	defer gw.Process.Kill()
	gwAddr, err := smoke.WaitForFile(gwAddrFile, 15*time.Second)
	if err != nil {
		return err
	}
	gwAddr = strings.TrimSpace(gwAddr)

	cl := client.New(gwAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if _, err := cl.Health(ctx); err != nil {
		return fmt.Errorf("gateway healthz: %v", err)
	}

	// One traced request through the whole path: client context,
	// gateway routing, replica execution. The simulated cells make the
	// sim-clock capture non-trivial.
	spec := experiments.Spec{
		Cells: []experiments.CellSpec{{N: 16, P: 4, Muls: 1, Mode: "smimd"}},
		Seed:  4242,
	}
	if _, _, err := cl.Run(ctx, spec, client.SubmitOptions{
		Wait:        60 * time.Second,
		TraceHeader: trace,
	}); err != nil {
		return fmt.Errorf("traced run: %v", err)
	}

	// Check 1a — gateway hop recorded the trace with routing spans.
	gwSnap, err := fetchSnapshot(gwAddr, trace)
	if err != nil {
		return fmt.Errorf("gateway trace: %v", err)
	}
	if err := wantSpans(gwSnap, "route", "attempt"); err != nil {
		return fmt.Errorf("gateway trace: %v", err)
	}
	fmt.Fprintln(os.Stderr, "telemetrysmoke: gateway spans ✓ (route, attempt)")

	// Check 1b — the same trace ID continued on the serving replica
	// with every serving stage, run on the worker track.
	var repSnap *telemetry.ReqSnapshot
	var served *replica
	for _, r := range reps {
		if snap, err := fetchSnapshot(r.addr, trace); err == nil {
			repSnap, served = snap, r
			break
		}
	}
	if repSnap == nil {
		return fmt.Errorf("no replica recorded trace %s", trace)
	}
	if err := wantSpans(repSnap, "admit", "queue", "run"); err != nil {
		return fmt.Errorf("replica %s trace: %v", served.name, err)
	}
	for _, sp := range repSnap.Spans {
		if sp.Name == "run" && sp.Track != "worker" {
			return fmt.Errorf("run span on track %q, want worker", sp.Track)
		}
	}
	if repSnap.Parent == "" {
		return fmt.Errorf("replica trace did not continue the gateway span context")
	}
	fmt.Fprintf(os.Stderr, "telemetrysmoke: replica %s spans ✓ (admit, queue, run@worker, parent=%s)\n",
		served.name, repSnap.Parent)

	// Check 2 — merged Perfetto export: valid Chrome trace JSON with
	// both the host-time serving track and the simulated clock track.
	perfetto, err := httpGet(served.addr, "/debug/requests/"+trace+"/perfetto")
	if err != nil {
		return fmt.Errorf("perfetto export: %v", err)
	}
	n, err := obs.ValidateChromeTrace(perfetto)
	if err != nil {
		return fmt.Errorf("perfetto export invalid: %v", err)
	}
	body := string(perfetto)
	for _, want := range []string{"simulated clock", "run", "serving"} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("perfetto export (%d events) lacks %q", n, want)
		}
	}
	fmt.Fprintf(os.Stderr, "telemetrysmoke: perfetto export ✓ (%d events, host+sim tracks)\n", n)

	// Check 3 — /metrics v2 per-stage quantiles: replica-local and
	// cluster-aggregated at the gateway.
	m, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("gateway metrics: %v", err)
	}
	for _, key := range []string{
		"cluster/total_ms/p50", "cluster/total_ms/p99", "cluster/run_ms/p95",
		"telemetry/traces_started",
	} {
		if _, ok := m[key]; !ok {
			return fmt.Errorf("gateway metrics missing %q", key)
		}
	}
	if m["telemetry/traces_finished"] < 1 {
		return fmt.Errorf("gateway finished no traces: %v", m["telemetry/traces_finished"])
	}
	fmt.Fprintln(os.Stderr, "telemetrysmoke: cluster stage quantiles + trace counters ✓")

	// Check 4 — the detached path costs nothing: the full span
	// choreography against a nil tracer is zero allocations.
	var nilTracer *telemetry.Tracer
	allocs := testing.AllocsPerRun(200, func() {
		tr := nilTracer.Start("", "submit")
		sp := tr.Span("admit").Attr("outcome", "queued").OnTrack("worker")
		sp.EndSpan()
		tr.Finish()
	})
	if allocs != 0 {
		return fmt.Errorf("detached telemetry allocates: %v allocs/op", allocs)
	}
	fmt.Fprintln(os.Stderr, "telemetrysmoke: detached path 0 allocs ✓")
	return nil
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
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	resp, err := http.Get(addr + path)
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
