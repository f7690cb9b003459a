package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/service"
)

// Workload names, as passed to --workload.
const (
	simLockstep = "sim-lockstep"
	serveCold   = "serve-cold"
	serveHit    = "serve-hit"
)

// Every op of a workload simulates the same fixed cell bundle and
// differs from its neighbours only in seed, so every op does the same
// work: the simulated instruction count is identical from op to op and
// the latency distribution has one mode.
var (
	// lockstepCells are SIMD-only cells from the fig8-12 grid (n in
	// {32, 64}, p in {4, 16}, muls in {1, 14, 30}): the lockstep engine
	// and the Fetch Unit do nearly all the work. Both have n=32, which
	// keeps an op near 40 ms, so a run has enough ops for a steady p90.
	lockstepCells = []experiments.CellSpec{
		{N: 32, P: 16, Muls: 30, Mode: "simd"},
		{N: 32, P: 4, Muls: 14, Mode: "simd"},
	}
	// coldCells keep all three asynchronous program variants: the
	// S/MIMD cells run the async engine, segment memo, network and
	// barrier devices, and the lockstep engine does nothing. The MIMD
	// cell has one PE: with more, PEs busy-wait on the network and the
	// polls they execute vary with the B data, so ops would stop doing
	// equal work.
	coldCells = []experiments.CellSpec{
		{N: 32, P: 1, Muls: 30, Mode: "mimd"},
		{N: 32, P: 4, Muls: 30, Mode: "smimd"},
		{N: 16, P: 16, Muls: 14, Mode: "smimd"},
		{N: 64, P: 1, Muls: 1, Mode: "sisd"},
	}
	// hotCells make the serve-hit hot set: the cold bundle's variants
	// at a size that keeps warming the hot set cheap. Their reports
	// have the same shape as a cold op's, so hits move similar bytes.
	hotCells = []experiments.CellSpec{
		{N: 8, P: 1, Muls: 30, Mode: "mimd"},
		{N: 8, P: 4, Muls: 30, Mode: "smimd"},
		{N: 8, P: 8, Muls: 14, Mode: "smimd"},
		{N: 8, P: 1, Muls: 1, Mode: "sisd"},
	}
	// fillCells are the cheapest valid spec; serve-cold set-up submits
	// cacheEntries of them so the cache starts at its bound and every
	// timed op evicts one entry.
	fillCells = []experiments.CellSpec{{N: 4, P: 1, Muls: 1, Mode: "sisd"}}
)

const (
	// cacheEntries is pasmd's default result-cache bound.
	cacheEntries = 256
	// hotSetSize is the serve-hit working set, well under cacheEntries
	// so no hot entry is ever evicted.
	hotSetSize = 32
	// warmOps is how many ops set-up runs before timing starts; the
	// timed ops continue the same op stream after them.
	warmOps = 3
	// warmHitOps is serve-hit's warm-up length (its ops are ~1000x
	// cheaper than a simulation op).
	warmHitOps = 500
)

// baseSeed spreads the benchmark seed over the 32-bit spec seed space
// (splitmix64 finalizer), so runs with neighbouring --seed values
// simulate disjoint B matrices instead of the same stream shifted by
// one op.
func baseSeed(seed uint32) uint32 {
	x := uint64(seed) + 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return uint32((x ^ x>>31) >> 32)
}

// generator turns a workload seed into the workload's op stream. The
// program only ever sees the specs it produces.
type generator struct {
	workload string
	base     uint32
}

func newGenerator(workload string, seed uint32) (*generator, error) {
	switch workload {
	case simLockstep, serveCold, serveHit:
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, simLockstep, serveCold, serveHit)
	}
	return &generator{workload: workload, base: baseSeed(seed)}, nil
}

// hotSpec is member k of the serve-hit hot set.
func (g *generator) hotSpec(k int) experiments.Spec {
	return experiments.Spec{Cells: hotCells, Seed: g.base + uint32(k)}
}

// fillSpec is the k-th serve-cold cache filler.
func (g *generator) fillSpec(k int) experiments.Spec {
	return experiments.Spec{Cells: fillCells, Seed: g.base + uint32(k)}
}

// next returns the spec of the workload's next op. Simulation ops use
// seed base+i, so no two ops of a run share a B matrix; serve-hit ops
// resubmit hot-set members in a seeded order.
func (g *generator) next(i int) experiments.Spec {
	switch g.workload {
	case simLockstep:
		return experiments.Spec{Cells: lockstepCells, Seed: g.base + uint32(i)}
	case serveCold:
		return experiments.Spec{Cells: coldCells, Seed: g.base + uint32(i)}
	}
	return g.hotSpec(int(baseSeed(g.base+uint32(i)) % hotSetSize))
}

// benchOptions is the execution configuration of every workload: the
// prototype machine, cells run one after another (Parallelism 1), and
// the MIMD engine serial (HostWorkers 0). With one caller this keeps
// at most one simulation thread busy on a 2-CPU host.
func benchOptions() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Parallelism = 1
	opts.Config.HostWorkers = 0
	return opts
}

// server is one in-process pasmd: the real service handler behind the
// real client, joined by an in-process transport instead of a socket.
type server struct {
	svc *service.Service
	rt  *inproc
	cl  *client.Client
}

// newServer starts a service with pasmd's defaults (FCFS, 2 workers,
// queue 64, a 256-entry cache), except that each job runs its cells
// serially.
func newServer() *server {
	svc := service.New(service.Config{
		QueueDepth: 64,
		Workers:    2,
		Options:    benchOptions(),
		Cache:      cache.Config{MaxEntries: cacheEntries},
	})
	rt := &inproc{h: svc.Handler()}
	return &server{svc: svc, rt: rt, cl: client.New("inproc").WithTransport(rt)}
}

func (s *server) run(spec experiments.Spec) ([]byte, service.JobStatus, error) {
	return s.cl.Run(context.Background(), spec, client.SubmitOptions{})
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.svc.Shutdown(ctx) // every job has finished; nothing to drain
}

// inproc is an http.RoundTripper that serves each request by calling
// the service handler directly on the caller's goroutine. When tr is
// set it records each handler call as a span of the traced op.
type inproc struct {
	h  http.Handler
	tr *opTrace
}

func (t *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	start := now()
	t.h.ServeHTTP(w, req)
	if t.tr != nil {
		t.tr.add(levelHandler, handlerLayer(req), start, now())
	}
	if req.Body != nil {
		req.Body.Close()
	}
	return w.Result(), nil
}

// handlerLayer names the service handler a request reaches.
func handlerLayer(req *http.Request) string {
	switch p := req.URL.Path; {
	case req.Method == http.MethodPost && p == "/v1/jobs":
		return "service.submit"
	case strings.HasSuffix(p, "/wait"):
		return "service.wait"
	case strings.HasSuffix(p, "/result"):
		return "service.result"
	}
	return "service.other"
}
