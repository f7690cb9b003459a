// Command slosmoke is the end-to-end gate for SLO-aware serving
// (make slo-smoke). It builds the real pasmd binary, starts it with
// `-sched sjf -classes interactive=50,batch=0`, replays the committed
// golden workload trace (internal/workload/testdata) open-loop against
// it, and asserts:
//
//  1. lossless drain: every one of the trace's requests completes
//     successfully — SLO scheduling reorders work, it never drops it;
//  2. per-class serving metrics appear: latency quantiles for both
//     classes, SLO hit/miss counters for the interactive class, the
//     scheduler mode marker, and a sane Jain fairness index;
//  3. per-client token-bucket admission: a second daemon started with
//     -admit-rate rejects an over-rate client with 429 + Retry-After
//     while leaving other clients untouched.
//
// Exit status 0 only if every check passes.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/scripts/internal/smoke"
)

const goldenTrace = "internal/workload/testdata/golden_200.tracev1"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slosmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "slosmoke: PASS")
}

func run() error {
	dir, err := os.MkdirTemp("", "slosmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	pasmd := filepath.Join(dir, "pasmd")
	if out, err := exec.Command("go", "build", "-o", pasmd, "./cmd/pasmd").CombinedOutput(); err != nil {
		return fmt.Errorf("building pasmd: %v\n%s", err, out)
	}

	raw, err := os.ReadFile(goldenTrace)
	if err != nil {
		return err
	}
	tr, err := workload.Parse(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", goldenTrace, err)
	}

	if err := sloReplay(dir, pasmd, tr); err != nil {
		return err
	}
	return admissionCheck(dir, pasmd)
}

// startDaemon launches pasmd with the given extra flags and returns a
// client plus a stopper.
func startDaemon(dir, pasmd, tag string, extra ...string) (*client.Client, func(), error) {
	addrFile := filepath.Join(dir, "addr-"+tag)
	args := append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-parallel", "2",
	}, extra...)
	daemon := exec.Command(pasmd, args...)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return nil, nil, fmt.Errorf("starting pasmd: %v", err)
	}
	stop := func() { daemon.Process.Kill(); daemon.Wait() }
	raw, err := smoke.WaitForFile(addrFile, 15*time.Second)
	if err != nil {
		stop()
		return nil, nil, fmt.Errorf("pasmd never wrote its address file: %v", err)
	}
	return client.New(strings.TrimSpace(raw)), stop, nil
}

// sloReplay drives the golden trace open-loop (at 2x speed — the
// schedule pressure matters, not wall time) through an SJF daemon and
// checks lossless completion plus the per-class metrics surface.
func sloReplay(dir, pasmd string, tr *workload.Trace) error {
	cl, stop, err := startDaemon(dir, pasmd, "slo",
		"-workers", "2", "-queue", "512",
		"-sched", "sjf", "-classes", "interactive=50,batch=0")
	if err != nil {
		return err
	}
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if _, err := cl.Health(ctx); err != nil {
		return fmt.Errorf("healthz: %v", err)
	}

	fmt.Fprintf(os.Stderr, "slosmoke: replaying %d requests from %s\n", len(tr.Requests), goldenTrace)
	errs := make([]error, len(tr.Requests))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range tr.Requests {
		due := time.Duration(r.AtUS/2) * time.Microsecond
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, r workload.Request) {
			defer wg.Done()
			_, _, err := cl.Run(ctx, r.Spec, client.SubmitOptions{
				Wait: 60 * time.Second, Class: r.Class, SLOMs: r.SLOMs, ClientID: r.Client,
			})
			errs[i] = err
		}(i, r)
	}
	wg.Wait()

	// 1. Lossless: every request completed.
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintf(os.Stderr, "slosmoke: request %d: %v\n", i, err)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d trace requests failed", failed, len(tr.Requests))
	}
	fmt.Fprintln(os.Stderr, "slosmoke: all trace requests completed (lossless) ✓")

	// 2. The per-class serving metrics surface.
	m, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %v", err)
	}
	if m["service/sched_sjf"] != 1 {
		return errors.New("metrics do not mark the sjf scheduler")
	}
	for _, class := range []string{"interactive", "batch"} {
		base := "service/class_total_ms/" + class
		if m[base+"/count"] < 1 {
			return fmt.Errorf("no %s class latency histogram in /metrics", class)
		}
		for _, q := range []string{"/p50", "/p95", "/p99"} {
			if _, ok := m[base+q]; !ok {
				return fmt.Errorf("missing %s quantile %s", class, q)
			}
		}
	}
	verdicts := m["service/class_slo_ok/interactive"] + m["service/class_slo_miss/interactive"]
	if verdicts < 1 {
		return errors.New("no SLO verdicts recorded for the interactive class")
	}
	j := m["service/fairness_jain"]
	if !(j > 0 && j <= 1.0000001) {
		return fmt.Errorf("fairness_jain = %v, want in (0,1]", j)
	}
	fmt.Fprintf(os.Stderr, "slosmoke: per-class quantiles + SLO verdicts + fairness %.3f ✓\n", j)
	return nil
}

// admissionCheck verifies the 429 path: a daemon with a tight
// per-client rate refuses an over-rate client and tells it when to
// come back, while a different client id sails through.
func admissionCheck(dir, pasmd string) error {
	cl, stop, err := startDaemon(dir, pasmd, "admit",
		"-workers", "2", "-queue", "64",
		"-admit-rate", "1", "-admit-burst", "2")
	if err != nil {
		return err
	}
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := cl.Health(ctx); err != nil {
		return fmt.Errorf("healthz: %v", err)
	}

	spec := func(seed uint32) experiments.Spec {
		return experiments.Spec{Exps: []string{"table1"}, Seed: seed}
	}
	limited := 0
	var lastErr error
	for i := 0; i < 5; i++ {
		_, err := cl.Submit(ctx, spec(uint32(100+i)), client.SubmitOptions{ClientID: "greedy"})
		if err != nil {
			var api *client.APIError
			if errors.As(err, &api) && api.Status == 429 {
				limited++
				if api.RetryAfter <= 0 {
					return errors.New("429 without a Retry-After hint")
				}
				continue
			}
			lastErr = err
		}
	}
	if lastErr != nil {
		return fmt.Errorf("unexpected submit error: %v", lastErr)
	}
	if limited == 0 {
		return errors.New("greedy client burst of 5 was never rate-limited (burst 2, rate 1/s)")
	}
	// A polite, distinct client is untouched.
	if _, err := cl.Submit(ctx, spec(200), client.SubmitOptions{ClientID: "polite"}); err != nil {
		return fmt.Errorf("distinct client should not be limited: %v", err)
	}
	// Anonymous submits are never rate-limited.
	if _, err := cl.Submit(ctx, spec(201), client.SubmitOptions{}); err != nil {
		return fmt.Errorf("anonymous submit should not be limited: %v", err)
	}
	fmt.Fprintf(os.Stderr, "slosmoke: admission control: %d/5 greedy submits got 429 + Retry-After ✓\n", limited)
	return nil
}
