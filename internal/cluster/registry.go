package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/service"
)

// Replica is one pasmd instance behind the gateway: its stable name
// (the consistent-hash identity), its client, its circuit breaker, and
// the last health snapshot the active checker took.
type Replica struct {
	Name string
	Addr string

	cl      *client.Client
	breaker *Breaker

	mu          sync.Mutex
	alive       bool // last active health check answered
	health      service.HealthInfo
	lastErr     string
	lastChecked time.Time
	checks      int64
	checkFails  int64
	forwarded   int64 // requests the gateway sent here
	failures    int64 // forwarded requests that failed (passive accounting)
}

// Client returns the replica's API client.
func (r *Replica) Client() *client.Client { return r.cl }

// Breaker returns the replica's circuit breaker.
func (r *Replica) Breaker() *Breaker { return r.breaker }

// Snapshot returns the last active health check's view.
func (r *Replica) Snapshot() (alive bool, h service.HealthInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive, r.health
}

// Routable reports whether new submissions may go here: the breaker
// must admit the request and the replica must not be draining. (A
// replica that has never been health-checked is still routable — the
// breaker, not the checker, is the gate — so the gateway works before
// the first check completes and keeps trying replicas the checker has
// not caught up with.)
func (r *Replica) Routable(now time.Time) bool {
	r.mu.Lock()
	draining := r.alive && r.health.Draining
	r.mu.Unlock()
	if draining {
		return false
	}
	return r.breaker.Allow(now)
}

// Report feeds a request outcome into the breaker and the passive
// failure tallies.
func (r *Replica) Report(ok bool, now time.Time) {
	r.mu.Lock()
	r.forwarded++
	if !ok {
		r.failures++
	}
	r.mu.Unlock()
	r.breaker.Report(ok, now)
}

// Registry owns the replica set and runs the active health loop: every
// interval, each replica's enriched /healthz is fetched; the snapshot
// feeds drain awareness and the peer-fill version check, and the outcome
// feeds the breaker — which is how an open breaker's probe goes out
// even when no client traffic would be allowed through it.
type Registry struct {
	replicas []*Replica
	interval time.Duration

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// ReplicaSpec names one replica for NewRegistry: "name=addr", or a
// bare address (names default to r0, r1, ... in order). Names must not
// contain "~" (the gateway's job-ID separator).
func parseReplicaSpec(i int, s string) (name, addr string, err error) {
	name, addr, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Sprintf("r%d", i), s, nil
	}
	if name == "" || strings.Contains(name, "~") || strings.Contains(name, "/") {
		return "", "", fmt.Errorf("cluster: bad replica name %q (non-empty, no '~' or '/')", name)
	}
	return name, addr, nil
}

// RegistryConfig configures the replica set and health loop.
type RegistryConfig struct {
	// Replicas are "name=addr" or bare-address entries, in ring order.
	Replicas []string
	// HealthInterval is the active check period. Default 1s. One check
	// may take at most half of it.
	HealthInterval time.Duration
	// Breaker tunes every replica's breaker; each replica's jitter seed
	// is Breaker.Seed mixed with its index so probes desynchronize.
	Breaker BreakerConfig
	// Transport, when non-nil, wraps every replica client's HTTP
	// transport (fault injection).
	Transport http.RoundTripper
	// FillSecret authenticates peer-fill pushes to the replicas' fill
	// endpoints (every replica must run with the same secret). Peer
	// fill is on exactly when it is set: empty means the replicas have
	// fills disabled, so the gateway sends none.
	FillSecret string
}

// NewRegistry builds the replica set. Start launches the health loop.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	reg := &Registry{
		interval: cfg.HealthInterval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	seen := map[string]bool{}
	for i, s := range cfg.Replicas {
		name, addr, err := parseReplicaSpec(i, s)
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate replica name %q", name)
		}
		seen[name] = true
		bcfg := cfg.Breaker
		bcfg.Seed = cfg.Breaker.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		cl := client.New(addr)
		if cfg.Transport != nil {
			cl.WithTransport(cfg.Transport)
		}
		if cfg.FillSecret != "" {
			cl.WithFillSecret(cfg.FillSecret)
		}
		reg.replicas = append(reg.replicas, &Replica{
			Name:    name,
			Addr:    addr,
			cl:      cl,
			breaker: NewBreaker(bcfg),
		})
	}
	return reg, nil
}

// Replicas returns the replica set in registration (ring) order.
func (g *Registry) Replicas() []*Replica { return g.replicas }

// Names returns the replica names in registration order.
func (g *Registry) Names() []string {
	out := make([]string, len(g.replicas))
	for i, r := range g.replicas {
		out[i] = r.Name
	}
	return out
}

// Find returns the replica with the given name.
func (g *Registry) Find(name string) (*Replica, bool) {
	for _, r := range g.replicas {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

// Healthy counts replicas whose last active check answered.
func (g *Registry) Healthy() int {
	n := 0
	for _, r := range g.replicas {
		if alive, _ := r.Snapshot(); alive {
			n++
		}
	}
	return n
}

// Start launches the health loop (one goroutine; replicas are checked
// concurrently each tick). Stop with Stop. A second Start is a no-op.
func (g *Registry) Start() {
	if !g.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(g.done)
		g.CheckAll() // prime the snapshots before the first tick
		ticker := time.NewTicker(g.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				g.CheckAll()
			case <-g.stop:
				return
			}
		}
	}()
}

// Stop ends the health loop. Safe to call even when Start never ran
// (the error-path defer of a caller that failed before Start) — done is
// only closed by the loop goroutine, so waiting on it is gated on the
// loop having launched.
func (g *Registry) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	if g.started.Load() {
		<-g.done
	}
}

// CheckAll health-checks every replica once, concurrently, and blocks
// until all checks resolve (exported for tests and for priming).
func (g *Registry) CheckAll() {
	var wg sync.WaitGroup
	for _, r := range g.replicas {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			g.checkOne(r)
		}(r)
	}
	wg.Wait()
}

// checkOne fetches one replica's /healthz. The outcome updates the
// snapshot and — breaker-gated when the breaker is not closed — feeds
// the breaker: a closed breaker sees failures (so a dead-but-idle
// replica still opens it) and successes (resetting the consecutive
// count); an open breaker's allowed check is exactly the half-open
// probe that can close it.
func (g *Registry) checkOne(r *Replica) {
	now := time.Now()
	probe := true
	if st := r.breaker.State(); st != StateClosed {
		probe = r.breaker.Allow(now)
		if !probe {
			return // open and inside cooldown: skip the request entirely
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.interval/2)
	defer cancel()
	h, err := r.cl.HealthInfo(ctx)
	r.mu.Lock()
	r.checks++
	r.lastChecked = now
	if err != nil {
		r.checkFails++
		r.alive = false
		r.lastErr = err.Error()
	} else {
		r.alive = true
		r.health = h
		r.lastErr = ""
	}
	r.mu.Unlock()
	r.breaker.Report(err == nil, time.Now())
}
