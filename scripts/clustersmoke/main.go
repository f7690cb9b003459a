// Command clustersmoke is the fault-tolerance gate for the pasm
// cluster (make cluster-smoke). It builds pasmd and pasmgw, starts
// three replicas behind a gateway, and proves the cluster invariants
// under real process chaos:
//
//  1. all-healthy: every spec driven through the gateway completes
//     with bytes identical to a fault-free local run, and round-robin
//     routing plus result fetches produce peer cache fills (a result
//     computed off its hash owner lands in the owner's cache);
//  2. replica killed mid-run (SIGKILL, no warning): the gateway fails
//     over, the killed replica's breaker opens, and every spec still
//     completes byte-identical — jobs that died with the replica are
//     resubmitted by the client and served by the survivors;
//  3. replica restarted on the same address: the health loop's probe
//     closes the breaker and the replica rejoins the rotation;
//  4. drain: SIGTERM stops the gateway cleanly (sheds new submits,
//     finishes reads), and the replicas drain cleanly after it.
//
// The workload seeds and replica names are fixed, so ring ownership
// and the spec set are reproducible run to run. Exit 0 only if every
// check passes.
package main

import (
	"bytes"
	"context"
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

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "clustersmoke: PASS")
}

// specs builds the workload: distinct small specs, re-seeded per phase
// so each phase is all cache misses unless peer fill or caching did
// its job.
func specs(base uint32, n int) []experiments.Spec {
	out := make([]experiments.Spec, n)
	for i := range out {
		out[i] = experiments.Spec{
			Cells: []experiments.CellSpec{{N: 16, P: 4, Muls: 1, Mode: "mimd"}},
			Seed:  base + uint32(i),
		}
	}
	return out
}

// reference computes fault-free local bytes for each spec — the
// cluster must serve exactly these, whatever fails.
func reference(ss []experiments.Spec) ([][]byte, error) {
	opts := experiments.DefaultOptions()
	opts.Parallelism = 2
	out := make([][]byte, len(ss))
	for i, spec := range ss {
		rep, err := experiments.RunSpec(spec, experiments.RunConfig{Options: opts})
		if err != nil {
			return nil, fmt.Errorf("local reference %d: %v", i, err)
		}
		if out[i], err = rep.Marshal(); err != nil {
			return nil, fmt.Errorf("marshaling reference %d: %v", i, err)
		}
	}
	return out, nil
}

type replica struct {
	name string
	addr string
	cmd  *exec.Cmd
}

// fillSecret authenticates the gateway's peer-fill pushes to the
// replicas; any value works as long as both sides agree.
const fillSecret = "clustersmoke-fill-secret"

func run() error {
	dir, err := os.MkdirTemp("", "clustersmoke")
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

	// Three replicas on ephemeral ports.
	startReplica := func(name, addr string) (*replica, error) {
		addrFile := filepath.Join(dir, "addr-"+name+"-"+fmt.Sprint(time.Now().UnixNano()))
		cmd := exec.Command(pasmd,
			"-addr", addr, "-addr-file", addrFile, "-name", name,
			"-queue", "16", "-workers", "2", "-parallel", "2",
			"-fill-secret", fillSecret)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting replica %s: %v", name, err)
		}
		bound, err := smoke.WaitForFile(addrFile, 15*time.Second)
		if err != nil {
			cmd.Process.Kill()
			return nil, err
		}
		return &replica{name: name, addr: strings.TrimSpace(bound), cmd: cmd}, nil
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
		r, err := startReplica(name, "127.0.0.1:0")
		if err != nil {
			return err
		}
		reps = append(reps, r)
	}

	// Gateway: round-robin so traffic regularly lands off-owner (that
	// is what makes peer fill observable), fast health checks and a
	// short breaker cooldown so kill/recovery round-trips quickly.
	gwAddrFile := filepath.Join(dir, "addr-gw")
	gw := exec.Command(pasmgw,
		"-addr", "127.0.0.1:0", "-addr-file", gwAddrFile,
		"-replica", "a="+reps[0].addr,
		"-replica", "b="+reps[1].addr,
		"-replica", "c="+reps[2].addr,
		"-policy", "round-robin",
		"-health-interval", "300ms",
		"-breaker-failures", "2",
		"-breaker-cooldown", "500ms",
		"-fill-secret", fillSecret)
	gw.Stderr = os.Stderr
	if err := gw.Start(); err != nil {
		return fmt.Errorf("starting pasmgw: %v", err)
	}
	defer gw.Process.Kill()
	gwAddr, err := smoke.WaitForFile(gwAddrFile, 15*time.Second)
	if err != nil {
		return err
	}
	cl := client.New(strings.TrimSpace(gwAddr)).WithRetry(client.RetryPolicy{
		MaxAttempts: 8,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		Seed:        11,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if _, err := cl.Health(ctx); err != nil {
		return fmt.Errorf("gateway healthz: %v", err)
	}

	// Phase 1 — all healthy: everything completes, bytes exact, and
	// round-robin + result fetches trigger peer fills.
	phase1 := specs(1000, 9)
	if err := drivePhase(ctx, cl, "healthy", phase1); err != nil {
		return err
	}
	if err := waitMetric(ctx, cl, "cluster/peer_fills", 1, 10*time.Second); err != nil {
		return fmt.Errorf("peer fill never observed: %v", err)
	}
	m, _ := cl.Metrics(ctx)
	fmt.Fprintf(os.Stderr, "clustersmoke: phase 1: peer_fills=%g dups=%g ✓\n",
		m["cluster/peer_fills"], m["cluster/peer_fill_dups"])

	// Phase 2 — SIGKILL replica b mid-run: no drain, no goodbye. Drive
	// traffic immediately so live requests hit the dead address and
	// fail over before the health loop catches up.
	if err := reps[1].cmd.Process.Kill(); err != nil {
		return fmt.Errorf("killing replica b: %v", err)
	}
	go reps[1].cmd.Wait() // reap
	fmt.Fprintln(os.Stderr, "clustersmoke: killed replica b (SIGKILL)")
	phase2 := specs(2000, 9)
	if err := drivePhase(ctx, cl, "b-dead", phase2); err != nil {
		return err
	}
	m, err = cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics after kill: %v", err)
	}
	if m["replicas/b/breaker_opens"] < 1 {
		return fmt.Errorf("replicas/b/breaker_opens = %g, want >= 1 — breaker never tripped", m["replicas/b/breaker_opens"])
	}
	if m["cluster/failovers"] < 1 {
		return fmt.Errorf("cluster/failovers = %g, want >= 1 — dead replica never failed over", m["cluster/failovers"])
	}
	fmt.Fprintf(os.Stderr, "clustersmoke: phase 2: failovers=%g breaker_opens(b)=%g shed=%g ✓\n",
		m["cluster/failovers"], m["replicas/b/breaker_opens"], m["cluster/shed"])

	// Phase 3 — restart b on the same address: the health probe closes
	// the breaker and b rejoins.
	rb, err := startReplica("b", reps[1].addr)
	if err != nil {
		return fmt.Errorf("restarting replica b: %v", err)
	}
	reps[1] = rb
	if err := waitMetric(ctx, cl, "replicas/b/breaker_closes", 1, 15*time.Second); err != nil {
		return fmt.Errorf("breaker never closed after restart: %v", err)
	}
	if err := waitMetric(ctx, cl, "replicas/b/alive", 1, 15*time.Second); err != nil {
		return fmt.Errorf("replica b never marked alive after restart: %v", err)
	}
	phase3 := specs(3000, 9)
	if err := drivePhase(ctx, cl, "b-restarted", phase3); err != nil {
		return err
	}
	m, _ = cl.Metrics(ctx)
	if m["replicas/b/forwarded"] < 1 {
		return fmt.Errorf("replicas/b/forwarded = %g after rejoin, want >= 1", m["replicas/b/forwarded"])
	}
	fmt.Fprintf(os.Stderr, "clustersmoke: phase 3: b rejoined (breaker_closes=%g, forwarded=%g) ✓\n",
		m["replicas/b/breaker_closes"], m["replicas/b/forwarded"])

	// Phase 4 — drain: SIGTERM the gateway; it must shed new submits
	// and exit cleanly. Then the replicas drain cleanly too.
	if err := gw.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM gateway: %v", err)
	}
	if err := waitExit(gw, 30*time.Second); err != nil {
		return fmt.Errorf("gateway drain: %v", err)
	}
	for _, r := range reps {
		if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return fmt.Errorf("SIGTERM replica %s: %v", r.name, err)
		}
	}
	for _, r := range reps {
		if err := waitExit(r.cmd, 60*time.Second); err != nil {
			return fmt.Errorf("replica %s drain: %v", r.name, err)
		}
	}
	fmt.Fprintln(os.Stderr, "clustersmoke: phase 4: clean drain ✓")
	return nil
}

// drivePhase runs every spec to done through the gateway and checks
// byte-identity against fault-free local runs. A job lost to a killed
// replica surfaces as a wait/result error; the answer is resubmission
// (the gateway routes it to a survivor) — what may never happen is a
// wrong byte.
func drivePhase(ctx context.Context, cl *client.Client, name string, ss []experiments.Spec) error {
	want, err := reference(ss)
	if err != nil {
		return err
	}
	for i, spec := range ss {
		got, _, err := smoke.RunToCompletion(ctx, cl, spec, client.SubmitOptions{Wait: 30 * time.Second}, 40, true)
		if err != nil {
			return fmt.Errorf("phase %s: spec %d never completed: %v", name, i, err)
		}
		if !bytes.Equal(got, want[i]) {
			return fmt.Errorf("phase %s: spec %d: bytes differ from fault-free local run", name, i)
		}
	}
	fmt.Fprintf(os.Stderr, "clustersmoke: phase %s: %d specs byte-identical ✓\n", name, len(ss))
	return nil
}

// waitMetric polls the gateway until the metric reaches min.
func waitMetric(ctx context.Context, cl *client.Client, key string, min float64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last float64
	for time.Now().Before(deadline) {
		m, err := cl.Metrics(ctx)
		if err == nil {
			last = m[key]
			if last >= min {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("%s = %g after %s, want >= %g", key, last, timeout, min)
}

func waitExit(cmd *exec.Cmd, timeout time.Duration) error {
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			return fmt.Errorf("unclean exit: %v", err)
		}
		return nil
	case <-time.After(timeout):
		cmd.Process.Kill()
		return fmt.Errorf("no exit within %s", timeout)
	}
}
