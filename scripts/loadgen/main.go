// Command loadgen is a closed-loop micro load generator for pasmd:
// -c concurrent clients each submit-wait-fetch -n/-c requests back to
// back, and the run reports throughput and latency percentiles. Two
// phases separate the serving regimes:
//
//	cold — every request uses a distinct seed, so every request is a
//	       cache miss that simulates from scratch;
//	hit  — every request uses the same spec (pre-warmed), so every
//	       request is served from the result cache.
//
// Usage:
//
//	loadgen -addr HOST:PORT [-c 4] [-n 40] [-exp table1]
//	        [-phase both|cold|hit] [-seed 1988] [-out FILE|-]
//	        [-pes-mix "4:0.5,16:0.3,64:0.2"]
//	        [-gateway] [-trace-sample 0]
//	loadgen -cohorts SPEC [-duration 5s] [-seed 1988] -record FILE
//	loadgen -addr HOST:PORT [-cohorts SPEC | -replay FILE] [-speed 1]
//
// The second and third forms are the open-loop workload engine
// (internal/workload): -cohorts describes multi-client cohorts with
// Poisson/Gamma/Weibull arrivals, per-cohort spec mixes, SLO classes,
// and diurnal ramps (see docs/WORKLOAD.md for the grammar); -record
// writes the generated trace as versioned JSONL without touching any
// server; -replay fires a previously recorded trace file. Open-loop
// runs submit at the trace's own timestamps — arrival times never
// depend on response times, so the run measures how latency degrades
// under a fixed offered load instead of throttling with the server.
// -speed scales replay time (2 = twice as fast). Requests carry their
// cohort's SLO class and client identity, and the report adds
// per-class client-observed percentiles, SLO hit rates, and the
// server's fairness index.
//
// -pes-mix drives a partition-mode server (pasmd -machine-pes) with a
// mixed-size job storm: each cold-phase request draws its spec's pes
// from the given size:weight distribution (deterministically from
// -seed, so two runs submit the identical storm). Sizes must be powers
// of two and should not exceed the server's machine. Empty (default)
// leaves pes off the spec — the 16-PE prototype.
//
// The JSON document goes to -out; progress goes to stderr.
//
// -gateway marks -addr as a pasmgw gateway: after the phases the run
// snapshots the gateway's /metrics and records the cluster-wide cache
// hit rate, failovers, hedges, and peer fills alongside the latency
// numbers.
//
// After the phases the run also reads the server's /metrics v2
// per-stage latency histograms (queue wait, run, total — cluster-level
// aggregates in -gateway mode) and reports a stage breakdown: where a
// request's time went server-side, next to the client-observed
// percentiles. -trace-sample attaches an X-Pasm-Trace context to that
// fraction of submissions, so a loadgen run leaves inspectable
// request timelines in the server's /debug/requests ring.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/prng"
	"repro/internal/workload"
)

type phaseResult struct {
	Phase      string  `json:"phase"`
	Requests   int     `json:"requests"`
	Concurrent int     `json:"concurrent"`
	Errors     int     `json:"errors"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"throughput_rps"`
	P50Millis  float64 `json:"p50_ms"`
	P90Millis  float64 `json:"p90_ms"`
	P99Millis  float64 `json:"p99_ms"`
	MaxMillis  float64 `json:"max_ms"`
	Bytes      int64   `json:"bytes_total"`
}

// clusterStats summarizes a gateway's /metrics after the run
// (-gateway mode only).
type clusterStats struct {
	Replicas  float64 `json:"replicas"`
	Healthy   float64 `json:"healthy"`
	CacheHits float64 `json:"cache_hits"`
	Misses    float64 `json:"cache_misses"`
	HitRate   float64 `json:"hit_rate"`
	Failovers float64 `json:"failovers"`
	Hedges    float64 `json:"hedges"`
	PeerFills float64 `json:"peer_fills"`
}

// stageStats is one server-side serving stage's latency summary, read
// from /metrics v2 after the phases (service/* histograms standalone,
// cluster/* aggregates in -gateway mode).
type stageStats struct {
	Stage  string  `json:"stage"`
	Count  float64 `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// classResult is one SLO class's client-observed summary from an
// open-loop workload run.
type classResult struct {
	Class     string  `json:"class"`
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	RateLimit int     `json:"rate_limited,omitempty"`
	SLOMs     int64   `json:"slo_ms,omitempty"`
	SLOHits   int     `json:"slo_hits,omitempty"`
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
	MaxMillis float64 `json:"max_ms"`
}

type benchDoc struct {
	Schema   string        `json:"schema"`
	Addr     string        `json:"addr"`
	Exp      string        `json:"exp,omitempty"`
	PesMix   string        `json:"pes_mix,omitempty"`
	Workload string        `json:"workload,omitempty"`
	Host     string        `json:"host"`
	CPUs     int           `json:"cpus"`
	Code     string        `json:"code_version"`
	Phases   []phaseResult `json:"phases,omitempty"`
	Classes  []classResult `json:"classes,omitempty"`
	Fairness float64       `json:"fairness_jain,omitempty"`
	Stages   []stageStats  `json:"server_stages,omitempty"`
	Cluster  *clusterStats `json:"cluster,omitempty"`
}

// pesMixEntry is one size class of the -pes-mix distribution.
type pesMixEntry struct {
	pes    int
	weight float64
}

// parsePesMix parses "4:0.5,16:0.3,64:0.2" into size classes.
func parsePesMix(s string) ([]pesMixEntry, error) {
	var mix []pesMixEntry
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sizeStr, weightStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("pes-mix entry %q is not size:weight", part)
		}
		pes, err := strconv.Atoi(strings.TrimSpace(sizeStr))
		if err != nil || pes < 1 || pes&(pes-1) != 0 {
			return nil, fmt.Errorf("pes-mix size %q must be a power of two", sizeStr)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(weightStr), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("pes-mix weight %q must be a positive number", weightStr)
		}
		mix = append(mix, pesMixEntry{pes: pes, weight: w})
		total += w
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("pes-mix %q holds no entries", s)
	}
	for i := range mix {
		mix[i].weight /= total
	}
	return mix, nil
}

// mixSpec builds request i's spec under a -pes-mix storm: the size is
// drawn deterministically from the mix (same seed, same storm), and
// the work is a matmul cell that spans the drawn partition — named
// sweeps are pinned to the 16-PE prototype, so small partitions get a
// proportionate custom cell instead.
func mixSpec(mix []pesMixEntry, seed uint32, i int) experiments.Spec {
	r := float64(prng.New(seed+uint32(i)).Uint32()) / (1 << 32)
	pes := mix[len(mix)-1].pes
	for _, e := range mix {
		if r < e.weight {
			pes = e.pes
			break
		}
		r -= e.weight
	}
	n := pes
	if n < 8 {
		n = 8
	}
	return experiments.Spec{
		Cells: []experiments.CellSpec{{N: n, P: pes, Muls: 1, Mode: "simd"}},
		PEs:   pes,
		Seed:  seed + uint32(i),
	}
}

// serverStages extracts the per-stage breakdown from a flattened
// /metrics map under the given prefix.
func serverStages(m map[string]float64, prefix string) []stageStats {
	var out []stageStats
	for _, stage := range []string{"queue_wait_ms", "partition_wait_ms", "run_ms", "total_ms"} {
		base := prefix + stage
		if m[base+"/count"] == 0 {
			continue
		}
		out = append(out, stageStats{
			Stage:  stage,
			Count:  m[base+"/count"],
			MeanMS: m[base+"/mean"],
			P50MS:  m[base+"/p50"],
			P95MS:  m[base+"/p95"],
			P99MS:  m[base+"/p99"],
		})
	}
	return out
}

func main() {
	addr := flag.String("addr", "", "pasmd address (required)")
	c := flag.Int("c", 4, "concurrent closed-loop clients")
	n := flag.Int("n", 40, "total requests per phase")
	exp := flag.String("exp", "table1", "experiment to request")
	phase := flag.String("phase", "both", "cold, hit, or both")
	seed := flag.Uint("seed", 1988, "base seed (cold phase uses seed+i per request)")
	pesMix := flag.String("pes-mix", "", "weighted machine-size mix for cold requests, e.g. \"4:0.5,16:0.3,64:0.2\" (empty = no pes field)")
	gateway := flag.Bool("gateway", false, "treat -addr as a pasmgw gateway and record cluster metrics")
	traceSample := flag.Float64("trace-sample", 0, "attach an X-Pasm-Trace context to this fraction of submissions")
	out := flag.String("out", "-", "write the JSON results to `file` (\"-\" for stdout)")
	cohorts := flag.String("cohorts", "", "open-loop workload cohorts, e.g. \"name=probe,proc=poisson,rate=50,class=interactive,slo=50,mix=table1;name=bulk,proc=weibull,shape=0.6,rate=5,mix=cell(32,16,1,smimd)\"")
	duration := flag.Duration("duration", 5*time.Second, "generated workload length (with -cohorts)")
	record := flag.String("record", "", "write the generated trace to `file` as workload/tracev1 JSONL and exit (no server needed)")
	replay := flag.String("replay", "", "fire a recorded trace `file` instead of generating one")
	speed := flag.Float64("speed", 1, "open-loop time scale (2 = replay twice as fast)")
	flag.Parse()

	// Workload engine forms: generate (and optionally just record) or
	// replay a trace, open-loop.
	var trace *workload.Trace
	switch {
	case *cohorts != "" && *replay != "":
		fmt.Fprintln(os.Stderr, "loadgen: -cohorts and -replay are mutually exclusive")
		os.Exit(2)
	case *cohorts != "":
		cs, err := workload.ParseCohorts(*cohorts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
		trace, err = workload.Generate(workload.GenConfig{
			Name: "loadgen", Seed: int64(*seed), Duration: *duration, Cohorts: cs,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
	case *replay != "":
		raw, err := os.ReadFile(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		if trace, err = workload.Parse(raw); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %s: %v\n", *replay, err)
			os.Exit(1)
		}
	}
	if *record != "" {
		if trace == nil {
			fmt.Fprintln(os.Stderr, "loadgen: -record needs -cohorts (or -replay to re-encode)")
			os.Exit(2)
		}
		raw, err := trace.Encode()
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*record, raw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "loadgen: recorded %d requests to %s\n", len(trace.Requests), *record)
		return
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -addr is required")
		flag.Usage()
		os.Exit(2)
	}

	var mix []pesMixEntry
	if *pesMix != "" {
		var err error
		if mix, err = parsePesMix(*pesMix); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(2)
		}
	}

	cl := client.New(*addr)
	if *traceSample > 0 {
		cl = cl.WithTracing(*traceSample, uint64(*seed)|1)
	}
	ctx := context.Background()
	doc := benchDoc{
		Schema: "pasm-loadgen/1",
		Addr:   *addr,
		Exp:    *exp,
		PesMix: *pesMix,
		CPUs:   runtime.NumCPU(),
		Code:   experiments.CodeVersion,
	}
	if h, err := os.Hostname(); err == nil {
		doc.Host = h
	}
	if _, err := cl.Health(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}

	if trace != nil {
		doc.Workload = trace.Header.Name
		doc.Classes = runTrace(ctx, cl, trace, *speed)
		if m, err := cl.Metrics(ctx); err == nil {
			prefix := "service/"
			if *gateway {
				prefix = "cluster/"
			}
			doc.Fairness = m[prefix+"fairness_jain"]
			doc.Stages = serverStages(m, prefix)
		}
		writeDoc(doc, *out)
		return
	}

	spec := func(s uint32) experiments.Spec {
		return experiments.Spec{Exps: []string{*exp}, Seed: s}
	}
	if *phase == "both" || *phase == "cold" {
		doc.Phases = append(doc.Phases, runPhase(ctx, cl, "cold", *c, *n, func(i int) experiments.Spec {
			if mix != nil {
				return mixSpec(mix, uint32(*seed), i)
			}
			return spec(uint32(*seed) + uint32(i))
		}))
	}
	if *phase == "both" || *phase == "hit" {
		// Pre-warm one entry, then hammer it: every timed request hits.
		warm := spec(uint32(*seed))
		if _, _, err := cl.Run(ctx, warm, client.SubmitOptions{Wait: 60 * time.Second}); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: warm-up: %v\n", err)
			os.Exit(1)
		}
		doc.Phases = append(doc.Phases, runPhase(ctx, cl, "hit", *c, *n, func(int) experiments.Spec {
			return warm
		}))
	}

	// Server-side stage breakdown from /metrics v2: how the requests'
	// time split across queue wait, run, and total on the serving side.
	m, err := cl.Metrics(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: metrics: %v\n", err)
		os.Exit(1)
	}
	stagePrefix := "service/"
	if *gateway {
		stagePrefix = "cluster/"
	}
	doc.Stages = serverStages(m, stagePrefix)
	if len(doc.Stages) > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: server stages:  %-14s %8s %8s %8s %8s %8s\n",
			"stage", "count", "mean", "p50", "p95", "p99")
		for _, st := range doc.Stages {
			fmt.Fprintf(os.Stderr, "loadgen:                 %-14s %8.0f %8.2f %8.2f %8.2f %8.2f\n",
				st.Stage, st.Count, st.MeanMS, st.P50MS, st.P95MS, st.P99MS)
		}
	}

	if *gateway {
		cs := &clusterStats{
			Replicas:  m["cluster/replicas"],
			Healthy:   m["cluster/healthy"],
			CacheHits: m["cluster/cache_hits"],
			Misses:    m["cluster/cache_misses"],
			Failovers: m["cluster/failovers"],
			Hedges:    m["cluster/hedges"],
			PeerFills: m["cluster/peer_fills"],
		}
		if total := cs.CacheHits + cs.Misses; total > 0 {
			cs.HitRate = cs.CacheHits / total
		}
		doc.Cluster = cs
		fmt.Fprintf(os.Stderr, "loadgen: cluster: %g/%g healthy, hit rate %.2f, %g failovers, %g peer fills\n",
			cs.Healthy, cs.Replicas, cs.HitRate, cs.Failovers, cs.PeerFills)
	}

	writeDoc(doc, *out)
}

func writeDoc(doc benchDoc, out string) {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", out)
}

// runTrace fires a trace open-loop: request i is submitted at its
// recorded offset (scaled by speed), regardless of how earlier
// requests are faring — offered load is fixed by the trace, and
// latency absorbs the pressure. Each submission carries its cohort's
// class, SLO, and client identity; results aggregate per class.
func runTrace(ctx context.Context, cl *client.Client, tr *workload.Trace, speed float64) []classResult {
	if speed <= 0 {
		speed = 1
	}
	fmt.Fprintf(os.Stderr, "loadgen: open-loop trace %q: %d requests, speed %gx\n",
		tr.Header.Name, len(tr.Requests), speed)
	type obs struct {
		class   string
		sloMS   int64
		ms      float64
		err     error
		limited bool
	}
	results := make([]obs, len(tr.Requests))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range tr.Requests {
		due := time.Duration(float64(r.AtUS) / speed * float64(time.Microsecond))
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, r workload.Request) {
			defer wg.Done()
			t0 := time.Now()
			_, _, err := cl.Run(ctx, r.Spec, client.SubmitOptions{
				Wait: 60 * time.Second, Class: r.Class, SLOMs: r.SLOMs, ClientID: r.Client,
			})
			o := obs{class: r.Class, sloMS: r.SLOMs, ms: time.Since(t0).Seconds() * 1000, err: err}
			if err != nil && strings.Contains(err.Error(), "429") {
				o.limited = true
			}
			results[i] = o
		}(i, r)
	}
	wg.Wait()

	byClass := map[string][]obs{}
	for _, o := range results {
		byClass[o.class] = append(byClass[o.class], o)
	}
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	var out []classResult
	for _, name := range names {
		group := byClass[name]
		cr := classResult{Class: name, Requests: len(group)}
		var lat []float64
		for _, o := range group {
			if o.sloMS > cr.SLOMs {
				cr.SLOMs = o.sloMS
			}
			if o.err != nil {
				cr.Errors++
				if o.limited {
					cr.RateLimit++
				}
				continue
			}
			lat = append(lat, o.ms)
			if o.sloMS > 0 && o.ms <= float64(o.sloMS) {
				cr.SLOHits++
			}
		}
		sort.Float64s(lat)
		pct := func(p float64) float64 {
			if len(lat) == 0 {
				return 0
			}
			i := int(p*float64(len(lat))) - 1
			if i < 0 {
				i = 0
			}
			return lat[i]
		}
		cr.P50Millis, cr.P95Millis, cr.P99Millis = pct(0.50), pct(0.95), pct(0.99)
		if len(lat) > 0 {
			cr.MaxMillis = lat[len(lat)-1]
		}
		fmt.Fprintf(os.Stderr, "loadgen: class %-12s %4d reqs, %d errors, p50 %.1fms p99 %.1fms\n",
			name, cr.Requests, cr.Errors, cr.P50Millis, cr.P99Millis)
		out = append(out, cr)
	}
	return out
}

// runPhase drives n requests through c closed-loop workers and
// aggregates latencies.
func runPhase(ctx context.Context, cl *client.Client, name string, c, n int, specFor func(i int) experiments.Spec) phaseResult {
	fmt.Fprintf(os.Stderr, "loadgen: phase %s: %d requests, %d clients\n", name, n, c)
	lat := make([]float64, n)
	var errs, bytesTotal int64
	var next int64 = -1
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				t0 := time.Now()
				raw, _, err := cl.Run(ctx, specFor(i), client.SubmitOptions{Wait: 60 * time.Second})
				lat[i] = time.Since(t0).Seconds() * 1000
				if err != nil {
					atomic.AddInt64(&errs, 1)
					fmt.Fprintf(os.Stderr, "loadgen: request %d: %v\n", i, err)
					continue
				}
				atomic.AddInt64(&bytesTotal, int64(len(raw)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	sort.Float64s(lat)
	pct := func(p float64) float64 {
		if n == 0 {
			return 0
		}
		i := int(p*float64(n)) - 1
		if i < 0 {
			i = 0
		}
		return lat[i]
	}
	res := phaseResult{
		Phase:      name,
		Requests:   n,
		Concurrent: c,
		Errors:     int(errs),
		Seconds:    elapsed,
		Throughput: float64(n) / elapsed,
		P50Millis:  pct(0.50),
		P90Millis:  pct(0.90),
		P99Millis:  pct(0.99),
		MaxMillis:  lat[n-1],
		Bytes:      bytesTotal,
	}
	fmt.Fprintf(os.Stderr, "loadgen: phase %s: %.1f req/s, p50 %.1fms, p99 %.1fms, %d errors\n",
		name, res.Throughput, res.P50Millis, res.P99Millis, res.Errors)
	return res
}
