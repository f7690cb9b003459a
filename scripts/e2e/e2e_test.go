//go:build e2e

// Package e2e is the end-to-end harness for the serving stack: real
// pasmd, pasmgw, pasmbench, pasmrun and loadgen processes, built once
// per run, driven over HTTP and the CLIs. Every scenario checks that
// results come back byte-identical to a local run, whatever sits in
// between (cache, gateway, partitions, chaos, SLO scheduling).
//
// Run it with `make e2e`, or one scenario with
//
//	go test -tags e2e -run TestCluster ./scripts/e2e
package e2e

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/service"
)

// binDir holds the binaries TestMain builds.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pasm-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"repro/cmd/pasmd", "repro/cmd/pasmgw", "repro/cmd/pasmbench", "repro/cmd/pasmrun", "repro/scripts/loadgen")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the binaries: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// bin returns the path of a built binary.
func bin(name string) string { return filepath.Join(binDir, name) }

// output runs a built binary to completion and returns its stdout.
func output(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	out, err := exec.Command(bin(name), args...).Output()
	if err != nil {
		var exit *exec.ExitError
		var stderr []byte
		if errors.As(err, &exit) {
			stderr = exit.Stderr
		}
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr)
	}
	return out
}

// proc is a running daemon. Cleanup kills it, so a failing scenario
// leaves nothing behind.
type proc struct {
	name   string
	addr   string // the bound address, read from -addr-file
	cmd    *exec.Cmd
	sig    os.Signal     // the last signal sent
	exited chan struct{} // closed once the process has exited
	err    error         // the exit status, set before exited closes
}

// start launches a daemon (pasmd or pasmgw) listening on addr and waits
// for it to write its bound address.
func start(t *testing.T, binary, name, addr string, args ...string) *proc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin(binary), append([]string{"-addr", addr, "-addr-file", addrFile}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() { p.err = cmd.Wait(); close(p.exited) }()
	t.Cleanup(func() { cmd.Process.Kill(); <-p.exited })
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.addr = strings.TrimSpace(string(b))
			if _, err := client.New(p.addr).Health(context.Background()); err != nil {
				t.Fatalf("%s /healthz: %v", name, err)
			}
			return p
		}
		select {
		case <-p.exited:
			t.Fatalf("%s exited before listening: %v", name, p.err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("%s never wrote its address file", name)
	return nil
}

// startPasmd launches one pasmd on an ephemeral port.
func startPasmd(t *testing.T, args ...string) (*proc, *client.Client) {
	t.Helper()
	p := start(t, "pasmd", "pasmd", "127.0.0.1:0", args...)
	return p, client.New(p.addr)
}

// fleet is named pasmd replicas behind one pasmgw.
type fleet struct {
	gw   *proc
	reps []*proc
}

// replicaArgs are every cluster replica's flags.
var replicaArgs = []string{"-queue", "16", "-workers", "2", "-parallel", "2"}

// startCluster launches one replica per name (replicaArgs plus
// repArgs), then a gateway over them (gwArgs), with fast health checks.
func startCluster(t *testing.T, names []string, repArgs, gwArgs []string) *fleet {
	t.Helper()
	c := &fleet{}
	args := []string{"-health-interval", "300ms"}
	for _, name := range names {
		c.reps = append(c.reps, startReplica(t, name, "127.0.0.1:0", repArgs...))
		args = append(args, "-replica", name+"="+c.reps[len(c.reps)-1].addr)
	}
	c.gw = start(t, "pasmgw", "gateway", "127.0.0.1:0", append(args, gwArgs...)...)
	return c
}

// startReplica launches one named replica on addr.
func startReplica(t *testing.T, name, addr string, args ...string) *proc {
	t.Helper()
	return start(t, "pasmd", "replica "+name, addr, append(append([]string{"-name", name}, replicaArgs...), args...)...)
}

// signal sends sig to the process.
func (p *proc) signal(t *testing.T, sig os.Signal) {
	t.Helper()
	p.sig = sig
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("signalling %s: %v", p.name, err)
	}
}

// wait waits for the process to exit. Unless it was SIGKILLed, the
// exit must be clean: that is what a lossless drain ends with.
func (p *proc) wait(t *testing.T, timeout time.Duration) {
	t.Helper()
	select {
	case <-p.exited:
	case <-time.After(timeout):
		t.Fatalf("%s did not exit within %s", p.name, timeout)
	}
	if p.err != nil && p.sig != syscall.SIGKILL {
		t.Fatalf("%s exited uncleanly: %v", p.name, p.err)
	}
}

// stop signals the process and waits for it to exit.
func (p *proc) stop(t *testing.T, sig os.Signal, timeout time.Duration) {
	t.Helper()
	p.signal(t, sig)
	p.wait(t, timeout)
}

// testContext bounds one scenario's client calls.
func testContext(t *testing.T, timeout time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	t.Cleanup(cancel)
	return ctx
}

// retrying is a client that retries transport errors and 5xx answers
// with seeded backoff.
func retrying(addr string, seed uint64) *client.Client {
	return client.New(addr).WithRetry(client.RetryPolicy{
		MaxAttempts: 8, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Seed: seed,
	})
}

// reference computes each spec's bytes on a fault-free local run: what
// the stack must serve, whatever fails in between.
func reference(t *testing.T, specs []experiments.Spec) [][]byte {
	t.Helper()
	opts := experiments.DefaultOptions()
	opts.Parallelism = 2
	out := make([][]byte, len(specs))
	for i, spec := range specs {
		rep, err := experiments.RunSpec(spec, experiments.RunConfig{Options: opts})
		if err != nil {
			t.Fatalf("local reference %d: %v", i, err)
		}
		if out[i], err = rep.Marshal(); err != nil {
			t.Fatalf("marshaling reference %d: %v", i, err)
		}
	}
	return out
}

// cells returns n distinct small MIMD cell specs seeded from base.
func cells(base uint32, n int) []experiments.Spec {
	out := make([]experiments.Spec, n)
	for i := range out {
		out[i] = experiments.Spec{
			Cells: []experiments.CellSpec{{N: 16, P: 4, Muls: 1, Mode: "mimd"}},
			Seed:  base + uint32(i),
		}
	}
	return out
}

// poll calls cond every interval until it holds or timeout passes.
func poll(timeout, interval time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); ; time.Sleep(interval) {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// waitMetric waits until /metrics reports key >= min.
func waitMetric(ctx context.Context, t *testing.T, cl *client.Client, key string, min float64, timeout time.Duration) {
	t.Helper()
	var last float64
	if !poll(timeout, 50*time.Millisecond, func() bool {
		m, err := cl.Metrics(ctx)
		last = m[key]
		return err == nil && last >= min
	}) {
		t.Fatalf("%s = %g after %s, want >= %g", key, last, timeout, min)
	}
}

// waitForState waits until job id reaches want; any other terminal
// state fails.
func waitForState(ctx context.Context, t *testing.T, cl *client.Client, id string, want service.State) {
	t.Helper()
	var st service.JobStatus
	var err error
	if !poll(30*time.Second, 20*time.Millisecond, func() bool {
		st, err = cl.Job(ctx, id)
		return err != nil || st.State == want || st.State.Terminal()
	}) || err != nil || st.State != want {
		t.Fatalf("job %s: state %s (err %v), want %s", id, st.State, err, want)
	}
}

// waitDraining waits until /healthz reports the daemon draining.
func waitDraining(ctx context.Context, t *testing.T, cl *client.Client) {
	t.Helper()
	if !poll(15*time.Second, 20*time.Millisecond, func() bool {
		h, err := cl.HealthInfo(ctx)
		return err == nil && h.Draining
	}) {
		t.Fatal("daemon never reported draining after SIGTERM")
	}
}

// wantDone waits for each job and checks it finished with a result:
// a drain must not lose accepted work.
func wantDone(ctx context.Context, t *testing.T, cl *client.Client, jobs []service.JobStatus) {
	t.Helper()
	for _, j := range jobs {
		st, err := cl.Wait(ctx, j.ID)
		if err != nil {
			t.Fatalf("waiting for %s: %v", j.ID, err)
		}
		if st.State != service.StateDone {
			t.Fatalf("accepted job %s ended %s (%s): work lost", j.ID, st.State, st.Error)
		}
		if res, err := cl.Result(ctx, j.ID); err != nil || len(res) == 0 {
			t.Fatalf("result of %s: %v", j.ID, err)
		}
	}
}

// runToCompletion submits spec until an admitted job ends done and
// returns its result bytes and job ID. A submit the client gives up on
// and a job that ends failed are retried. With lossy set (a replica may
// die under the job) so is a job that is lost, ends in any other state
// or whose result cannot be read; without it each of those breaks the
// invariant that accepted jobs settle.
func runToCompletion(ctx context.Context, cl *client.Client, spec experiments.Spec, opts client.SubmitOptions, maxSubmits int, lossy bool) ([]byte, string, error) {
	var lastErr error
	for s := 0; s < maxSubmits; s++ {
		st, err := cl.Submit(ctx, spec, opts)
		if err != nil {
			lastErr = err // nothing was accepted
			continue
		}
		id := st.ID
		// Poll rather than long-poll, so an injected fault on one
		// status read is retried quickly by the client policy.
		if !poll(60*time.Second, 25*time.Millisecond, func() bool {
			st, err = cl.Job(ctx, id)
			return err != nil || st.State.Terminal()
		}) {
			err = fmt.Errorf("not terminal after 60s")
		}
		if err != nil {
			err = fmt.Errorf("accepted job %s lost: %v", id, err)
		} else {
			switch st.State {
			case service.StateDone:
				res, rerr := cl.Result(ctx, id)
				if rerr == nil {
					return res, id, nil
				}
				err = fmt.Errorf("result of done job %s: %v", id, rerr)
			case service.StateFailed:
				lastErr = fmt.Errorf("job %s failed (%s)", id, st.Error)
				continue
			default:
				err = fmt.Errorf("job %s ended %s (%s)", id, st.State, st.Error)
			}
		}
		if !lossy {
			return nil, "", err
		}
		lastErr = err
	}
	return nil, "", fmt.Errorf("no success in %d submissions (last: %v)", maxSubmits, lastErr)
}
