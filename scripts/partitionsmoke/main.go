// Command partitionsmoke is the end-to-end gate for partition mode
// (make partition-smoke). It builds the real binaries, starts pasmd
// with -machine-pes 64, and asserts the partitioned-machine contract:
//
//  1. /healthz advertises the machine size;
//  2. partition residency is invisible in the results: a pes=32 spec
//     served while co-resident with another job is byte-identical to
//     local `pasmbench -pes 32 -json -` with host timings off (the
//     subcube isomorphism, measured across the HTTP boundary);
//  3. concurrent packing really happens: four 16-PE jobs fill all 64
//     PEs at once, and the machine returns to fully free;
//  4. a `loadgen -pes-mix` mixed-size storm completes with zero
//     errors;
//  5. a spec larger than the machine is a 400, not a queued job;
//  6. SIGTERM drains: every accepted job — including ones still
//     waiting for a partition — finishes, and the process exits 0.
//
// Exit status 0 only if every check passes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
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
		fmt.Fprintln(os.Stderr, "partitionsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "partitionsmoke: PASS")
}

// slowSpec is a ~1s MIMD cell pinned to a pes-PE partition: long
// enough that a batch of submissions overlaps on the machine, short
// enough for CI. Distinct seeds keep submissions from coalescing.
func slowSpec(pes int, seed uint32) experiments.Spec {
	return experiments.Spec{
		Cells: []experiments.CellSpec{{N: 128, P: 4, Muls: 2, Mode: "mimd"}},
		PEs:   pes,
		Seed:  seed,
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "partitionsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	pasmd := filepath.Join(dir, "pasmd")
	pasmbench := filepath.Join(dir, "pasmbench")
	loadgen := filepath.Join(dir, "loadgen")
	for bin, pkg := range map[string]string{
		pasmd: "./cmd/pasmd", pasmbench: "./cmd/pasmbench", loadgen: "./scripts/loadgen",
	} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			return fmt.Errorf("building %s: %v\n%s", pkg, err, out)
		}
	}

	// Local reference: a standalone 32-PE machine's deterministic
	// document. The daemon must reproduce these bytes from inside a
	// 32-PE partition of its 64-PE machine.
	want, err := exec.Command(pasmbench, "-exp", "table1", "-pes", "32", "-seed", "1988",
		"-parallel", "2", "-host-timings=false", "-json", "-").Output()
	if err != nil {
		return fmt.Errorf("local pasmbench -pes 32: %v", err)
	}

	addrFile := filepath.Join(dir, "addr")
	daemon := exec.Command(pasmd,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-queue", "32", "-machine-pes", "64", "-parallel", "2")
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("starting pasmd: %v", err)
	}
	defer daemon.Process.Kill()

	addrRaw, err := smoke.WaitForFile(addrFile, 15*time.Second)
	if err != nil {
		return err
	}
	addr := strings.TrimSpace(addrRaw)
	cl := client.New(addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// 1. Partition mode shows up in /healthz.
	h, err := cl.HealthInfo(ctx)
	if err != nil {
		return fmt.Errorf("healthz: %v", err)
	}
	switch {
	case h.Status != "ok":
		return fmt.Errorf("healthz status = %q, want ok", h.Status)
	case h.MachinePEs != 64:
		return fmt.Errorf("healthz machine_pes = %d, want 64", h.MachinePEs)
	}
	fmt.Fprintln(os.Stderr, "partitionsmoke: /healthz advertises machine_pes=64 ✓")

	// 2. Byte identity from inside a partition, with a co-resident job
	// on the machine. The 16-PE filler lands on a low subcube, so the
	// pes=32 job runs at a nonzero base — the strongest version of the
	// residency check.
	filler, err := cl.Submit(ctx, slowSpec(16, 7001), client.SubmitOptions{})
	if err != nil {
		return fmt.Errorf("filler submit: %v", err)
	}
	spec := experiments.Spec{Exps: []string{"table1"}, PEs: 32, Seed: 1988}
	got, st, err := cl.Run(ctx, spec, client.SubmitOptions{Wait: 60 * time.Second})
	if err != nil {
		return fmt.Errorf("pes=32 submit: %v", err)
	}
	if st.Cached {
		return errors.New("cold pes=32 submit claims cached")
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("partition-resident result differs from standalone pasmbench -pes 32:\nserved:\n%s\nlocal:\n%s", got, want)
	}
	if _, err := cl.Wait(ctx, filler.ID); err != nil {
		return fmt.Errorf("filler: %v", err)
	}
	fmt.Fprintln(os.Stderr, "partitionsmoke: co-resident pes=32 job byte-identical to a standalone 32-PE machine ✓")

	// 2b. Cache hit keyed on pes: the same spec again is a hit, and a
	// different pes is a distinct (cold) document.
	got2, st2, err := cl.Run(ctx, spec, client.SubmitOptions{Wait: 60 * time.Second})
	if err != nil {
		return fmt.Errorf("pes=32 resubmit: %v", err)
	}
	if !st2.Cached || !bytes.Equal(got2, got) {
		return errors.New("pes=32 resubmit was not an identical cache hit")
	}
	got16, st16, err := cl.Run(ctx, experiments.Spec{Exps: []string{"table1"}, PEs: 16, Seed: 1988},
		client.SubmitOptions{Wait: 60 * time.Second})
	if err != nil {
		return fmt.Errorf("pes=16 submit: %v", err)
	}
	if st16.Cached {
		return errors.New("pes=16 variant hit the pes=32 cache entry — pes is missing from the key")
	}
	if bytes.Equal(got16, got) {
		return errors.New("pes=16 and pes=32 documents are identical — pes is not reaching the engine")
	}
	fmt.Fprintln(os.Stderr, "partitionsmoke: cache keys distinguish pes ✓")

	// 3. Concurrent packing: four 16-PE jobs fill the machine.
	var jobs []service.JobStatus
	for i := 0; i < 4; i++ {
		st, err := cl.Submit(ctx, slowSpec(16, uint32(7100+i)), client.SubmitOptions{})
		if err != nil {
			return fmt.Errorf("packing submit %d: %v", i, err)
		}
		jobs = append(jobs, st)
	}
	for _, j := range jobs {
		if st, err := cl.Wait(ctx, j.ID); err != nil || st.State != service.StateDone {
			return fmt.Errorf("packing job %s: state=%v err=%v", j.ID, st.State, err)
		}
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %v", err)
	}
	if m["partition/pes_total"] != 64 {
		return fmt.Errorf("partition/pes_total = %v, want 64", m["partition/pes_total"])
	}
	if peak := m["partition/pes_busy_peak"]; peak != 64 {
		return fmt.Errorf("partition/pes_busy_peak = %v, want 64 (four 16-PE jobs never co-resident)", peak)
	}
	if m["partition/pes_busy"] != 0 {
		return fmt.Errorf("partition/pes_busy = %v after all jobs done", m["partition/pes_busy"])
	}
	if m["partition/leases_total"] != m["partition/releases_total"] {
		return fmt.Errorf("leases_total=%v != releases_total=%v", m["partition/leases_total"], m["partition/releases_total"])
	}
	fmt.Fprintln(os.Stderr, "partitionsmoke: four 16-PE jobs packed to pes_busy_peak=64 ✓")

	// 4. The loadgen mixed-size storm against the partitioned daemon.
	lgOut := filepath.Join(dir, "loadgen.json")
	lg := exec.Command(loadgen, "-addr", addr, "-phase", "cold", "-n", "12", "-c", "4",
		"-pes-mix", "4:0.5,16:0.3,64:0.2", "-out", lgOut)
	lg.Stderr = os.Stderr
	if err := lg.Run(); err != nil {
		return fmt.Errorf("loadgen -pes-mix: %v", err)
	}
	var doc struct {
		Phases []struct {
			Requests int `json:"requests"`
			Errors   int `json:"errors"`
		} `json:"phases"`
	}
	raw, err := os.ReadFile(lgOut)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("loadgen output: %v", err)
	}
	if len(doc.Phases) != 1 || doc.Phases[0].Requests != 12 || doc.Phases[0].Errors != 0 {
		return fmt.Errorf("loadgen phases = %+v, want 12 requests, 0 errors", doc.Phases)
	}
	fmt.Fprintln(os.Stderr, "partitionsmoke: loadgen -pes-mix storm, 12/12 ok ✓")

	// 5. A spec bigger than the machine is a bad request.
	_, err = cl.Submit(ctx, experiments.Spec{Exps: []string{"table1"}, PEs: 128, Seed: 1}, client.SubmitOptions{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		return fmt.Errorf("oversize submit: err = %v, want HTTP 400", err)
	}
	fmt.Fprintln(os.Stderr, "partitionsmoke: pes=128 on a 64-PE machine -> 400 ✓")

	// 6. Drain with jobs still waiting for a partition: six 32-PE jobs
	// run two at a time, so SIGTERM arrives with most still pending.
	var drainJobs []service.JobStatus
	for i := 0; i < 6; i++ {
		st, err := cl.Submit(ctx, slowSpec(32, uint32(7200+i)), client.SubmitOptions{})
		if err != nil {
			return fmt.Errorf("drain submit %d: %v", i, err)
		}
		drainJobs = append(drainJobs, st)
	}
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %v", err)
	}
	if err := smoke.WaitForDraining(ctx, cl); err != nil {
		return err
	}
	if _, err = cl.Submit(ctx, slowSpec(16, 7999), client.SubmitOptions{}); !errors.As(err, &apiErr) || apiErr.Status != 503 {
		return fmt.Errorf("drain submit: err = %v, want HTTP 503", err)
	}
	for _, j := range drainJobs {
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
	fmt.Fprintln(os.Stderr, "partitionsmoke: drain completed all six accepted jobs ✓")

	exit := make(chan error, 1)
	go func() { exit <- daemon.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			return fmt.Errorf("pasmd exited uncleanly: %v", err)
		}
	case <-time.After(120 * time.Second):
		return errors.New("pasmd did not exit after drain")
	}
	fmt.Fprintln(os.Stderr, "partitionsmoke: clean exit after drain ✓")
	return nil
}
