// Command chaossmoke is the resilience gate for the pasmd serving path
// (make chaos-smoke). It starts a daemon with a fixed fault-injection
// profile — errors, delays, and panics at the admission, cache,
// execution, and HTTP points — drives a fleet of distinct specs
// through a retrying client, and asserts the chaos invariants:
//
//  1. no accepted job is lost: every job the daemon admits reaches a
//     terminal state, and every spec eventually completes despite
//     injected failures (the client resubmits failed jobs);
//  2. every result is byte-identical to a fault-free local run of the
//     same spec — chaos may slow or fail work, never corrupt it;
//  3. /metrics proves the chaos was real: injected fault counts are
//     non-zero and the server observed client retries;
//  4. the daemon survives it all (injected panics self-heal) and still
//     drains cleanly on SIGTERM.
//
// The chaos seed is fixed, so the injector's per-point decision
// sequences are reproducible run to run. Exit status 0 only if every
// check passes.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/scripts/internal/smoke"
)

// chaosProfile exercises every fault point. Rates are high enough that
// a short run injects every fault class, low enough that each spec
// completes within a few resubmissions.
const chaosProfile = "admit:error=0.1;cache:error=0.25;" +
	"run:error=0.15,panic=0.1,delay=0.25@20ms;" +
	"http:error=0.12,panic=0.03,delay=0.15@10ms"

const chaosSeed = "1988"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaossmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "chaossmoke: PASS")
}

// specs are small distinct jobs: cheap to reference locally, numerous
// enough that the fault sequences hit admission, cache, run, and HTTP
// probes many times each.
func specs() []experiments.Spec {
	out := []experiments.Spec{
		{Exps: []string{"table1"}, Seed: 1988},
	}
	for seed := uint32(1); seed <= 5; seed++ {
		out = append(out, experiments.Spec{
			Cells: []experiments.CellSpec{{N: 16, P: 4, Muls: 1, Mode: "mimd"}},
			Seed:  seed,
		})
	}
	return out
}

func run() error {
	dir, err := os.MkdirTemp("", "chaossmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	pasmd := filepath.Join(dir, "pasmd")
	if out, err := exec.Command("go", "build", "-o", pasmd, "./cmd/pasmd").CombinedOutput(); err != nil {
		return fmt.Errorf("building pasmd: %v\n%s", err, out)
	}

	// Fault-free local reference bytes for every spec, computed with
	// the same engine and marshaling as the daemon's runner.
	opts := experiments.DefaultOptions()
	opts.Parallelism = 2
	want := make([][]byte, len(specs()))
	for i, spec := range specs() {
		rep, err := experiments.RunSpec(spec, experiments.RunConfig{Options: opts})
		if err != nil {
			return fmt.Errorf("local reference for spec %d: %v", i, err)
		}
		if want[i], err = rep.Marshal(); err != nil {
			return fmt.Errorf("marshaling reference %d: %v", i, err)
		}
	}

	addrFile := filepath.Join(dir, "addr")
	daemon := exec.Command(pasmd,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-queue", "16", "-workers", "2", "-parallel", "2",
		"-chaos-seed", chaosSeed, "-chaos-profile", chaosProfile)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("starting pasmd: %v", err)
	}
	defer daemon.Process.Kill()

	addr, err := smoke.WaitForFile(addrFile, 15*time.Second)
	if err != nil {
		return err
	}
	cl := client.New(strings.TrimSpace(addr)).WithRetry(client.RetryPolicy{
		MaxAttempts: 8,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Seed:        7,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if _, err := cl.Health(ctx); err != nil {
		return fmt.Errorf("healthz: %v", err)
	}

	// Drive every spec to completion. Injected run faults and panics
	// fail individual jobs; the client answers by resubmitting — the
	// invariant is that accepted jobs always reach a terminal state
	// (never lost or stuck) and completed bytes are always correct.
	var accepted, failedRuns int
	for i, spec := range specs() {
		got, attempts, err := smoke.RunToCompletion(ctx, cl, spec, client.SubmitOptions{}, 40, false)
		if err != nil {
			return fmt.Errorf("spec %d never completed: %v", i, err)
		}
		accepted += attempts.Accepted
		failedRuns += attempts.Failed
		if !bytes.Equal(got, want[i]) {
			return fmt.Errorf("spec %d: result differs from fault-free local run\nserved:\n%s\nlocal:\n%s", i, got, want[i])
		}
	}
	fmt.Fprintf(os.Stderr, "chaossmoke: %d specs byte-identical under chaos (%d jobs accepted, %d failed+resubmitted) ✓\n",
		len(specs()), accepted, failedRuns)

	// The chaos must have been real, and the server must have seen the
	// client retrying: both are visible in /metrics.
	m, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %v", err)
	}
	if m["faults/injected_total"] <= 0 {
		return fmt.Errorf("faults/injected_total = %v, want > 0 — chaos profile inactive?", m["faults/injected_total"])
	}
	if m["service/retried_submits"] <= 0 {
		return fmt.Errorf("service/retried_submits = %v, want > 0 — client retries invisible to server", m["service/retried_submits"])
	}
	fmt.Fprintf(os.Stderr, "chaossmoke: metrics: injected=%v retried_submits=%v panics_recovered=%v ✓\n",
		m["faults/injected_total"], m["service/retried_submits"], m["service/panics_recovered"])

	// The daemon took panics and errors all run; it must still drain
	// cleanly.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %v", err)
	}
	exit := make(chan error, 1)
	go func() { exit <- daemon.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			return fmt.Errorf("pasmd exited uncleanly after chaos run: %v", err)
		}
	case <-time.After(60 * time.Second):
		return errors.New("pasmd did not exit after drain")
	}
	fmt.Fprintln(os.Stderr, "chaossmoke: clean drain after chaos ✓")
	return nil
}
