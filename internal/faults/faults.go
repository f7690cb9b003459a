// Package faults is a deterministic, seed-driven fault injector for
// the serving path. The paper's lesson is that non-deterministic
// instruction time (MULU's 38 + 2·ones(multiplier) cycles) must be
// absorbed by the architecture rather than serialized away; at the
// host level the analogue is a slow, failing, or crashing worker, and
// this package manufactures exactly those conditions on demand so the
// service's absorption machinery (retries, deadlines, panic isolation,
// backpressure) can be exercised reproducibly.
//
// Design constraints, in order:
//
//   - Deterministic: the decision for the n-th probe of a given point
//     is a pure function of (seed, point, n). Concurrent goroutines
//     may interleave probes across points, but each point's own
//     decision sequence never changes, so a chaos run is reproducible
//     from its seed alone.
//   - Free when detached: callers hold a *Injector that is normally
//     nil; every method is nil-receiver safe and the enabled check is
//     one pointer test, so the healthy path stays at its benchmarked
//     throughput.
//   - Observable: every injected fault increments a counter that the
//     service exports under "faults/" in /metrics, which is how the
//     chaos smoke test asserts the profile actually fired.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point identifies an injection site in the serving path.
type Point string

// Injection sites. Each names the operation a decision applies to.
const (
	// Admit probes run on queue admission: an injected error rejects
	// the submit as transient overload (503 + Retry-After).
	Admit Point = "admit"
	// Run probes run in the worker before executing a job: errors fail
	// the job, panics exercise worker panic isolation, delays stretch
	// the execution.
	Run Point = "run"
	// Cache probes run on result-cache lookups: an injected error
	// makes the lookup miss, forcing a recompute (degraded, not down).
	Cache Point = "cache"
	// HTTP probes run per request in the daemon: errors become 500s,
	// delays stall the response, panics abort the connection mid-reply.
	HTTP Point = "http"
)

// Points lists every injection site (profile validation, metrics).
var Points = []Point{Admit, Run, Cache, HTTP}

// ErrInjected is the sentinel wrapped by every injected error, so
// tests and logs can tell manufactured failures from real ones.
var ErrInjected = errors.New("injected fault")

// Action is the injector's decision for one probe. The zero Action
// means "proceed normally". At most one of Err/Panic is set; Delay may
// accompany either.
type Action struct {
	// Delay, when positive, asks the caller to stall this long first.
	Delay time.Duration
	// Err, when non-nil, asks the caller to fail the operation. It
	// wraps ErrInjected.
	Err error
	// Panic asks the caller to panic (exercising recovery paths).
	Panic bool
}

// PointProfile sets one site's fault rates. Rates are probabilities in
// [0, 1]; each probe draws error, panic, and delay decisions
// independently (panic wins over error when both fire).
type PointProfile struct {
	ErrorRate float64
	PanicRate float64
	DelayRate float64
	// Delay is the stall applied when a delay decision fires.
	Delay time.Duration
}

func (p PointProfile) active() bool {
	return p.ErrorRate > 0 || p.PanicRate > 0 || p.DelayRate > 0
}

// Profile maps injection sites to their rates. Sites absent from the
// map are never faulted.
type Profile map[Point]PointProfile

// ParseProfile parses the -chaos-profile flag syntax: semicolon-
// separated sites, each "point:key=value,..." with keys error, panic,
// delay (rates in [0,1]) and delay taking an optional "@duration"
// suffix setting the stall length (default 10ms).
//
//	run:error=0.15,panic=0.05,delay=0.25@30ms;http:error=0.1
func ParseProfile(s string) (Profile, error) {
	prof := Profile{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, rates, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("faults: %q missing point name (want point:key=rate,...)", part)
		}
		pt := Point(strings.TrimSpace(point))
		if !validPoint(pt) {
			return nil, fmt.Errorf("faults: unknown point %q (want one of %v)", pt, Points)
		}
		pp := prof[pt]
		for _, kv := range strings.Split(rates, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("faults: %q is not key=rate", kv)
			}
			if key == "delay" {
				rate, dur, err := parseDelay(val)
				if err != nil {
					return nil, err
				}
				pp.DelayRate, pp.Delay = rate, dur
				continue
			}
			rate, err := parseRate(val)
			if err != nil {
				return nil, fmt.Errorf("faults: %s: %v", key, err)
			}
			switch key {
			case "error":
				pp.ErrorRate = rate
			case "panic":
				pp.PanicRate = rate
			default:
				return nil, fmt.Errorf("faults: unknown rate %q (want error, panic, or delay)", key)
			}
		}
		prof[pt] = pp
	}
	if len(prof) == 0 {
		return nil, errors.New("faults: empty profile")
	}
	return prof, nil
}

func validPoint(p Point) bool {
	for _, q := range Points {
		if p == q {
			return true
		}
	}
	return false
}

func parseRate(s string) (float64, error) {
	rate, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	if rate < 0 || rate > 1 {
		return 0, fmt.Errorf("rate %v outside [0, 1]", rate)
	}
	return rate, nil
}

func parseDelay(s string) (float64, time.Duration, error) {
	rateStr, durStr, hasDur := strings.Cut(s, "@")
	rate, err := parseRate(rateStr)
	if err != nil {
		return 0, 0, fmt.Errorf("faults: delay: %v", err)
	}
	dur := 10 * time.Millisecond
	if hasDur {
		if dur, err = time.ParseDuration(durStr); err != nil || dur < 0 {
			return 0, 0, fmt.Errorf("faults: bad delay duration %q", durStr)
		}
	}
	return rate, dur, nil
}

// String renders the profile in ParseProfile syntax, points sorted, so
// logs show the exact flag that reproduces a run.
func (p Profile) String() string {
	points := make([]string, 0, len(p))
	for pt := range p {
		points = append(points, string(pt))
	}
	sort.Strings(points)
	var b strings.Builder
	for _, pt := range points {
		pp := p[Point(pt)]
		var kvs []string
		if pp.ErrorRate > 0 {
			kvs = append(kvs, fmt.Sprintf("error=%g", pp.ErrorRate))
		}
		if pp.PanicRate > 0 {
			kvs = append(kvs, fmt.Sprintf("panic=%g", pp.PanicRate))
		}
		if pp.DelayRate > 0 {
			kvs = append(kvs, fmt.Sprintf("delay=%g@%s", pp.DelayRate, pp.Delay))
		}
		if len(kvs) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s:%s", pt, strings.Join(kvs, ","))
	}
	return b.String()
}

// pointState is one site's call counter and injection tallies.
type pointState struct {
	calls    int64
	errors   int64
	panics   int64
	delays   int64
	delayDur time.Duration // cumulative injected stall
}

// Injector makes seed-driven fault decisions. A nil *Injector is fully
// detached: Check returns the zero Action and Metrics returns nil.
type Injector struct {
	seed    uint64
	profile Profile

	mu    sync.Mutex
	state map[Point]*pointState
}

// New returns an injector drawing decisions from seed under profile.
func New(seed uint64, profile Profile) *Injector {
	inj := &Injector{seed: seed, profile: profile, state: map[Point]*pointState{}}
	for _, pt := range Points {
		inj.state[pt] = &pointState{}
	}
	return inj
}

// Enabled reports whether any point can fire (false for nil).
func (i *Injector) Enabled() bool {
	if i == nil {
		return false
	}
	for _, pp := range i.profile {
		if pp.active() {
			return true
		}
	}
	return false
}

// splitmix64 is the standard 64-bit finalizer-style mixer: a bijective
// hash whose output bits are uniform enough to treat as a random draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// hashPoint folds a point name into the seed stream.
func hashPoint(p Point) uint64 {
	var h uint64 = 14695981039346656037 // FNV-64 offset basis
	for i := 0; i < len(p); i++ {
		h = (h ^ uint64(p[i])) * 1099511628211
	}
	return h
}

// draw returns a uniform [0, 1) value for the n-th probe of a point on
// one decision channel, independent of every other (point, n, channel).
func (i *Injector) draw(p Point, n int64, channel uint64) float64 {
	x := splitmix64(i.seed ^ hashPoint(p) ^ splitmix64(uint64(n)<<2|channel))
	return float64(x>>11) / (1 << 53)
}

// Check makes the decision for one probe of point. Decisions are a
// pure function of (seed, point, per-point call index): two runs with
// the same seed and profile see identical per-point fault sequences no
// matter how calls interleave across points. Safe for concurrent use.
func (i *Injector) Check(point Point) Action {
	if i == nil {
		return Action{}
	}
	pp, ok := i.profile[point]
	if !ok || !pp.active() {
		return Action{}
	}
	i.mu.Lock()
	st := i.state[point]
	n := st.calls
	st.calls++
	var act Action
	if pp.DelayRate > 0 && i.draw(point, n, 0) < pp.DelayRate {
		act.Delay = pp.Delay
		st.delays++
		st.delayDur += pp.Delay
	}
	switch {
	case pp.PanicRate > 0 && i.draw(point, n, 1) < pp.PanicRate:
		act.Panic = true
		st.panics++
	case pp.ErrorRate > 0 && i.draw(point, n, 2) < pp.ErrorRate:
		act.Err = fmt.Errorf("faults: %w at %s probe %d", ErrInjected, point, n)
		st.errors++
	}
	i.mu.Unlock()
	return act
}

// Metrics returns per-point probe and injection counts, keys prefixed
// (the service exports them as "faults/<point>/<kind>"). Nil-safe.
func (i *Injector) Metrics(prefix string) map[string]float64 {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	m := map[string]float64{}
	total := 0.0
	for _, pt := range Points {
		st := i.state[pt]
		if st.calls == 0 && !i.profile[pt].active() {
			continue
		}
		base := prefix + string(pt)
		m[base+"/probes"] = float64(st.calls)
		m[base+"/errors"] = float64(st.errors)
		m[base+"/panics"] = float64(st.panics)
		m[base+"/delays"] = float64(st.delays)
		m[base+"/delay_ms"] = float64(st.delayDur.Milliseconds())
		total += float64(st.errors + st.panics + st.delays)
	}
	m[prefix+"injected_total"] = total
	return m
}
