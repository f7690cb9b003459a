// Command servicesmoke is the end-to-end gate for the pasmd serving
// path (make service-smoke). It builds the real binaries, starts a
// daemon on an ephemeral port, and asserts the acceptance criteria:
//
//  1. a submitted Table-1 spec returns bytes identical to local
//     `pasmbench -json - -host-timings=false` — cold miss and cache
//     hit, via both the Go client and `pasmbench -remote`;
//  2. with a single busy worker and a depth-1 queue, the next distinct
//     submission gets 503 + Retry-After instead of unbounded queuing;
//  3. SIGTERM drains gracefully: new work is rejected, every accepted
//     job finishes and its result stays fetchable, the process exits 0.
//
// Exit status 0 only if every check passes.
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
	"repro/internal/service"
	"repro/scripts/internal/smoke"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servicesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "servicesmoke: PASS")
}

// slowCell is a ~2s simulation (n=256 MIMD): long enough to observe
// queue states deterministically, short enough for CI.
func slowSpec(seed uint32) experiments.Spec {
	return experiments.Spec{
		Cells: []experiments.CellSpec{{N: 256, P: 4, Muls: 2, Mode: "mimd"}},
		Seed:  seed,
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "servicesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	pasmd := filepath.Join(dir, "pasmd")
	pasmbench := filepath.Join(dir, "pasmbench")
	for bin, pkg := range map[string]string{pasmd: "./cmd/pasmd", pasmbench: "./cmd/pasmbench"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			return fmt.Errorf("building %s: %v\n%s", pkg, err, out)
		}
	}

	// Local reference bytes: the deterministic v2 document.
	table1 := []string{"-exp", "table1", "-seed", "1988", "-parallel", "2", "-host-timings=false", "-json", "-"}
	want, err := exec.Command(pasmbench, table1...).Output()
	if err != nil {
		return fmt.Errorf("local pasmbench: %v", err)
	}

	// Start the daemon: one worker, one queue slot, ephemeral port.
	addrFile := filepath.Join(dir, "addr")
	daemon := exec.Command(pasmd,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-queue", "1", "-workers", "1", "-parallel", "2")
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("starting pasmd: %v", err)
	}
	defer daemon.Process.Kill()

	addr, err := smoke.WaitForFile(addrFile, 15*time.Second)
	if err != nil {
		return err
	}
	cl := client.New(strings.TrimSpace(addr))
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// 0. The enriched /healthz body: the cluster gateway routes on these
	// fields, so their presence and sanity are part of the contract.
	h, err := cl.HealthInfo(ctx)
	if err != nil {
		return fmt.Errorf("healthz: %v", err)
	}
	switch {
	case h.Status != "ok":
		return fmt.Errorf("healthz status = %q, want ok", h.Status)
	case h.Draining:
		return errors.New("healthz claims draining on a fresh daemon")
	case h.Workers != 1:
		return fmt.Errorf("healthz workers = %d, want 1", h.Workers)
	case h.Code != experiments.CodeVersion:
		return fmt.Errorf("healthz code = %q, want %q", h.Code, experiments.CodeVersion)
	}
	fmt.Fprintln(os.Stderr, "servicesmoke: enriched /healthz body sane ✓")

	// 1a. Cold miss through the Go client: byte-identical.
	spec := experiments.Spec{Exps: []string{"table1"}, Seed: 1988}
	got, st, err := cl.Run(ctx, spec, client.SubmitOptions{Wait: 30 * time.Second})
	if err != nil {
		return fmt.Errorf("cold submit: %v", err)
	}
	if st.Cached {
		return errors.New("cold submit claims cached")
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("cold result differs from local pasmbench -json:\nserved:\n%s\nlocal:\n%s", got, want)
	}
	fmt.Fprintln(os.Stderr, "servicesmoke: cold miss byte-identical ✓")

	// 1b. Cache hit: served instantly, same bytes.
	got, st, err = cl.Run(ctx, spec, client.SubmitOptions{Wait: 30 * time.Second})
	if err != nil {
		return fmt.Errorf("hit submit: %v", err)
	}
	if !st.Cached {
		return errors.New("resubmit was not served from cache")
	}
	if !bytes.Equal(got, want) {
		return errors.New("cache hit bytes differ")
	}
	fmt.Fprintln(os.Stderr, "servicesmoke: cache hit byte-identical ✓")

	// 1c. The CLI remote mode end to end.
	remoteOut, err := exec.Command(pasmbench,
		"-remote", strings.TrimSpace(addr), "-exp", "table1", "-seed", "1988", "-json", "-").Output()
	if err != nil {
		return fmt.Errorf("pasmbench -remote: %v", err)
	}
	if !bytes.Equal(remoteOut, want) {
		return errors.New("pasmbench -remote bytes differ from local run")
	}
	fmt.Fprintln(os.Stderr, "servicesmoke: pasmbench -remote byte-identical ✓")

	// 2. Backpressure: occupy the worker, fill the queue, expect 503.
	slowA, err := cl.Submit(ctx, slowSpec(1), client.SubmitOptions{})
	if err != nil {
		return fmt.Errorf("slow A: %v", err)
	}
	if err := waitForState(ctx, cl, slowA.ID, service.StateRunning); err != nil {
		return fmt.Errorf("slow A never ran: %v", err)
	}
	slowB, err := cl.Submit(ctx, slowSpec(2), client.SubmitOptions{})
	if err != nil {
		return fmt.Errorf("slow B should queue: %v", err)
	}
	_, err = cl.Submit(ctx, slowSpec(3), client.SubmitOptions{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		return fmt.Errorf("queue-full submit: err = %v, want HTTP 503", err)
	}
	if apiErr.RetryAfter <= 0 {
		return errors.New("503 without a Retry-After hint")
	}
	fmt.Fprintf(os.Stderr, "servicesmoke: queue full -> 503, retry after %s ✓\n", apiErr.RetryAfter)

	// 3. Graceful shutdown with accepted jobs still in flight.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %v", err)
	}
	if err := smoke.WaitForDraining(ctx, cl); err != nil {
		return err
	}
	if _, err = cl.Submit(ctx, slowSpec(4), client.SubmitOptions{}); !errors.As(err, &apiErr) || apiErr.Status != 503 {
		return fmt.Errorf("drain submit: err = %v, want HTTP 503", err)
	}
	for _, j := range []service.JobStatus{slowA, slowB} {
		st, err := cl.Wait(ctx, j.ID)
		if err != nil {
			return fmt.Errorf("waiting for %s during drain: %v", j.ID, err)
		}
		if st.State != service.StateDone {
			return fmt.Errorf("accepted job %s ended %s (%s) — drain lost work", j.ID, st.State, st.Error)
		}
		if res, err := cl.Result(ctx, j.ID); err != nil || len(res) == 0 {
			return fmt.Errorf("result of %s during drain: %v", j.ID, err)
		}
	}
	fmt.Fprintln(os.Stderr, "servicesmoke: drain completed both accepted jobs ✓")

	exit := make(chan error, 1)
	go func() { exit <- daemon.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			return fmt.Errorf("pasmd exited uncleanly: %v", err)
		}
	case <-time.After(60 * time.Second):
		return errors.New("pasmd did not exit after drain")
	}
	fmt.Fprintln(os.Stderr, "servicesmoke: clean exit after drain ✓")
	return nil
}

func waitForState(ctx context.Context, cl *client.Client, id string, want service.State) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Job(ctx, id)
		if err != nil {
			return err
		}
		if st.State == want {
			return nil
		}
		if st.State.Terminal() {
			return fmt.Errorf("job %s reached %s, wanted %s", id, st.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for %s -> %s", id, want)
}
