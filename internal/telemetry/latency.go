package telemetry

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// MsBounds is the shared bucket layout for serving-path latency
// histograms, in milliseconds. It matches the service's queue_wait/run
// histograms so gateway-side and replica-side distributions merge
// bucket-by-bucket.
var MsBounds = []int64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 15000}

// Quantiles are the derived percentile keys every latency histogram
// exports alongside its buckets.
var Quantiles = []struct {
	Key string
	Q   float64
}{
	{"p50", 0.50},
	{"p95", 0.95},
	{"p99", 0.99},
}

// LatencySet is a concurrent family of millisecond latency histograms
// keyed by a caller-chosen name (the gateway keys by
// "submit_ms/outcome=<o>"). Unlike obs.Registry it is safe
// for concurrent Observe from request goroutines.
type LatencySet struct {
	mu    sync.Mutex
	hists map[string]*obs.Histogram
}

// NewLatencySet returns an empty set.
func NewLatencySet() *LatencySet {
	return &LatencySet{hists: map[string]*obs.Histogram{}}
}

// Observe records one duration under name, bucketed in milliseconds.
func (l *LatencySet) Observe(name string, d time.Duration) {
	if l == nil {
		return
	}
	ms := d.Milliseconds()
	l.mu.Lock()
	h, ok := l.hists[name]
	if !ok {
		h = obs.NewHistogram(MsBounds)
		l.hists[name] = h
	}
	h.Observe(ms)
	l.mu.Unlock()
}

// Flatten renders every histogram under prefix in the /metrics scalar
// style: count/sum/mean/min/max, non-empty le=N buckets, overflow, and
// derived p50/p95/p99.
func (l *LatencySet) Flatten(prefix string) map[string]float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	m := map[string]float64{}
	for name, h := range l.hists {
		flattenHistogram(m, prefix+name, h)
	}
	return m
}

// flattenHistogram renders one histogram as scalar metrics under key,
// matching obs.Registry.Flatten's bucket naming plus quantiles.
func flattenHistogram(m map[string]float64, key string, h *obs.Histogram) {
	if h.N == 0 {
		return
	}
	m[key+"/count"] = float64(h.N)
	m[key+"/sum"] = float64(h.Sum)
	m[key+"/mean"] = h.Mean()
	m[key+"/min"] = float64(h.Min)
	m[key+"/max"] = float64(h.Max)
	for i, b := range h.Bounds {
		if h.Counts[i] != 0 {
			m[key+"/le="+strconv.FormatInt(b, 10)] = float64(h.Counts[i])
		}
	}
	if c := h.Counts[len(h.Counts)-1]; c != 0 {
		m[key+"/overflow"] = float64(c)
	}
	for _, q := range Quantiles {
		m[key+"/"+q.Key] = h.Quantile(q.Q)
	}
}

// FlattenHistogram renders one histogram under key with buckets and
// derived quantiles (the service uses it for its own registry hists).
func FlattenHistogram(m map[string]float64, key string, h *obs.Histogram) {
	flattenHistogram(m, key, h)
}
