// Command pasmgw is the fault-tolerant gateway for a pasmd cluster: it
// serves the same /v1 job API as a single pasmd while routing each
// submission across N replicas, failing over when a replica refuses,
// errors, or hangs, and keeping per-replica circuit breakers so a dead
// replica costs nothing after it trips. Because a result document is a
// pure function of (spec, code version), any replica's answer is
// byte-identical to any other's — the gateway can re-route, hedge, and
// cache-fill freely without ever changing what the client reads.
//
// Usage:
//
//	pasmgw -replica a=127.0.0.1:8041 -replica b=127.0.0.1:8042 ...
//	       [-addr 127.0.0.1:8040] [-addr-file FILE]
//	       [-hedge 0] [-health-interval 1s] [-fill-secret SECRET]
//	       [-breaker-failures 3] [-breaker-cooldown 5s]
//	       [-trace-sample 0] [-trace-ring 64] [-debug-addr ADDR]
//
// -trace-sample arms request tracing at the gateway: submissions
// carrying X-Pasm-Trace are always traced, headerless ones with this
// probability. A traced submit gets route/attempt/hedge spans, its
// context is forwarded to the winning replica (one trace ID spans
// gateway -> replica -> worker), and the gateway's view is browsable
// at /debug/requests. -debug-addr starts a net/http/pprof listener.
//
// Each -replica is "name=addr"; the name is the replica's stable
// consistent-hash identity (survives restarts and port changes), so
// give replicas the same names across runs. Bare addresses get
// generated names r0, r1, ... in flag order.
//
// Routing has one rule: each spec goes to its consistent-hash owner,
// maximizing replica-local cache hits, and fails over along the spec's
// deterministic ring order when the owner refuses, errors or is
// breaker-open. -hedge launches a second submit at the next replica
// when the first has not answered in time.
//
// Peer cache fill: when failover or the hedge computed a result off its
// hash owner, the gateway pushes the bytes to the owner's cache in the
// background, so one computation becomes a cluster-wide cache hit.
// Fills authenticate with -fill-secret, which must match every
// replica's pasmd -fill-secret; peer fill is on exactly when it is set
// (the replicas would reject unauthenticated pushes anyway).
//
// On SIGINT/SIGTERM the gateway drains: new submissions get 503 +
// Retry-After, reads keep answering so clients can collect accepted
// jobs, then the listener shuts down. Replicas are not touched.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr listener (DefaultServeMux)
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// replicaList collects repeated -replica flags.
type replicaList []string

func (r *replicaList) String() string { return strings.Join(*r, ",") }
func (r *replicaList) Set(v string) error {
	if v == "" {
		return errors.New("empty replica")
	}
	*r = append(*r, v)
	return nil
}

// seed drives the breaker-jitter and trace-ID sequences.
const seed = 1

func main() {
	os.Exit(run())
}

func run() int {
	var replicas replicaList
	flag.Var(&replicas, "replica", "replica as name=addr (repeatable; bare addr gets a generated name)")
	addr := flag.String("addr", "127.0.0.1:8040", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to `file` after listening")
	hedge := flag.Duration("hedge", 0, "launch the submit at the next replica if the first has not answered in this long (0 = off)")
	healthInterval := flag.Duration("health-interval", time.Second, "active health check period per replica")
	fillSecret := flag.String("fill-secret", "", "shared secret for peer-fill pushes; must match the replicas' pasmd -fill-secret (empty = peer fill disabled)")
	breakerFailures := flag.Int("breaker-failures", 3, "consecutive failures that open a replica's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open breaker base cooldown before the half-open probe (doubles per failed probe)")
	traceSample := flag.Float64("trace-sample", 0, "probability of tracing a headerless submit (X-Pasm-Trace submits are always traced)")
	traceRing := flag.Int("trace-ring", 64, "finished traced requests retained for /debug/requests")
	debugAddr := flag.String("debug-addr", "", "second listener for net/http/pprof (empty = off)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "pasmgw")

	if len(replicas) == 0 {
		logger.Error("at least one -replica required")
		return 1
	}

	if *fillSecret == "" {
		logger.Info("no -fill-secret: peer cache fill disabled (replicas reject unauthenticated fills)")
	}

	tracer := telemetry.New(telemetry.Config{
		Component: "pasmgw",
		Sample:    *traceSample,
		Ring:      *traceRing,
		Seed:      seed,
		Logger:    logger,
	})

	gw, err := cluster.New(cluster.Config{
		Registry: cluster.RegistryConfig{
			Replicas:       replicas,
			HealthInterval: *healthInterval,
			Breaker: cluster.BreakerConfig{
				ConsecutiveFailures: *breakerFailures,
				Cooldown:            *breakerCooldown,
				Seed:                seed,
			},
			FillSecret: *fillSecret,
		},
		Hedge:     *hedge,
		Logger:    logger,
		Telemetry: tracer,
	})
	if err != nil {
		logger.Error("gateway init failed", "err", err)
		return 1
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listen failed", "addr", *debugAddr, "err", err)
			return 1
		}
		// DefaultServeMux carries net/http/pprof's handlers.
		go func() { _ = http.Serve(dln, nil) }()
		logger.Info("pprof listening", "addr", dln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			logger.Error("writing addr file failed", "file", *addrFile, "err", err)
			return 1
		}
	}
	logger.Info("listening", "addr", bound, "replicas", len(replicas),
		"hedge", *hedge, "peer_fill", *fillSecret != "", "trace_sample", *traceSample)

	gw.Start()
	defer gw.Stop()

	srv := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: service.ReadHeaderTimeout,
		ReadTimeout: service.ReadTimeout, IdleTimeout: service.IdleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		logger.Error("serve failed", "err", err)
		return 1
	case s := <-sig:
		logger.Info("draining", "signal", s.String())
	}

	// Lossless drain: flip to shedding new submits, then let the HTTP
	// shutdown wait out in-flight requests (including long-polls) so
	// every client holding an accepted job can collect its result.
	gw.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown failed", "err", err)
		return 1
	}
	logger.Info("drained, bye")
	return 0
}
