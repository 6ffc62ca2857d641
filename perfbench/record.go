package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// tally holds a phase's outcome counters. Every field except the ones
// marked timing-dependent is a pure function of the seed and the number of
// arrivals, so it feeds the digest.
type tally struct {
	attempted     int
	accepted      int
	costSum       float64
	rejInfeasible int
	rejCapacity   int
	rejAdmission  int
	liveSum       int // live leases after each arrival, summed

	repairs     int
	orphans     int
	reattached  int
	restoredSum float64 // per sweep with orphans: reattached / orphans, summed
	damaging    int     // sweeps with orphans
	fastPath    int
	reembeds    int
	failedDests int
	reprices    int

	hits, misses, chainHits, chainMisses uint64 // CacheStats deltas around Embed
	missEmbeds                           int    // embeds during which Misses moved

	pruned uint64 // dist.StreamStats delta

	// Timing-dependent: fragment coalescing and overlap follow the
	// scheduler, and byte counts follow fragment coalescing.
	frags     uint64
	overlapNS int64
	rpcBytes  int64
}

// add adds o's counters to t.
func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.accepted += o.accepted
	t.costSum += o.costSum
	t.rejInfeasible += o.rejInfeasible
	t.rejCapacity += o.rejCapacity
	t.rejAdmission += o.rejAdmission
	t.liveSum += o.liveSum
	t.repairs += o.repairs
	t.orphans += o.orphans
	t.reattached += o.reattached
	t.restoredSum += o.restoredSum
	t.damaging += o.damaging
	t.fastPath += o.fastPath
	t.reembeds += o.reembeds
	t.failedDests += o.failedDests
	t.reprices += o.reprices
	t.hits += o.hits
	t.misses += o.misses
	t.chainHits += o.chainHits
	t.chainMisses += o.chainMisses
	t.missEmbeds += o.missEmbeds
	t.pruned += o.pruned
	t.frags += o.frags
	t.overlapNS += o.overlapNS
	t.rpcBytes += o.rpcBytes
}

// digest hashes the deterministic counters.
func (t *tally) digest() string {
	h := fnv.New64a()
	for _, v := range []uint64{
		uint64(t.attempted), uint64(t.accepted), math.Float64bits(t.costSum),
		uint64(t.rejInfeasible), uint64(t.rejCapacity), uint64(t.rejAdmission), uint64(t.liveSum),
		uint64(t.repairs), uint64(t.orphans), uint64(t.reattached), math.Float64bits(t.restoredSum), uint64(t.fastPath),
		uint64(t.reembeds), uint64(t.failedDests), uint64(t.reprices),
		t.hits, t.misses, t.chainHits, t.chainMisses, uint64(t.missEmbeds), t.pruned,
	} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (t *tally) String() string {
	return fmt.Sprintf("attempted=%d accepted=%d cost=%.6f rejects(infeasible=%d capacity=%d admission=%d) "+
		"repairs=%d orphans=%d reattached=%d reprices=%d dijkstras=%d kstrolls=%d pruned=%d",
		t.attempted, t.accepted, t.costSum, t.rejInfeasible, t.rejCapacity, t.rejAdmission,
		t.repairs, t.orphans, t.reattached, t.reprices, t.misses, t.chainMisses, t.pruned)
}

// span is one timed call into a layer. Arrival roots have parent -1; their
// children (advance, restore, fail, repair, embed, reprice) point at them.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Arrival int    `json:"arrival"`
}

// recorder times one phase of arrivals. It always measures what the
// end-to-end metrics need (step and embed durations, allocated bytes);
// with tracing on it also keeps every span in memory.
type recorder struct {
	tracing bool
	t0      time.Time
	spans   []span
	tally   tally

	arrival   int // arrivals started so far
	root      int // span index of the current arrival, -1 when untraced
	stepStart time.Time
	allocMark uint64

	steps      []time.Duration
	embeds     []time.Duration
	embedMiss  []bool
	advances   []time.Duration
	reprices   []time.Duration
	repairs    []time.Duration
	allocBytes uint64

	// Per block of consecutive arrivals of one instance (see merge):
	// arrivals per second of step time, and embed latency quantiles.
	blockRates, blockP50, blockP90 []float64

	failures []string
	sample   []metrics.Sample
}

func newRecorder(tracing bool) *recorder {
	return &recorder{
		tracing: tracing,
		t0:      time.Now(),
		root:    -1,
		sample:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (r *recorder) allocated() uint64 {
	metrics.Read(r.sample)
	return r.sample[0].Value.Uint64()
}

// begin starts an arrival's step clock and allocation count.
func (r *recorder) begin() {
	r.arrival++
	r.tally.attempted++
	r.allocMark = r.allocated()
	r.stepStart = time.Now()
	if r.tracing {
		r.root = len(r.spans)
		r.spans = append(r.spans, span{Name: "arrival", StartNS: r.ns(r.stepStart), Parent: -1, Arrival: r.arrival})
	}
}

// end stops the step clock; checks run after it, outside the timing.
func (r *recorder) end() {
	now := time.Now()
	r.steps = append(r.steps, now.Sub(r.stepStart))
	r.allocBytes += r.allocated() - r.allocMark
	if r.tracing {
		r.spans[r.root].EndNS = r.ns(now)
	}
}

// child records a call that started at start and ends now, returning its
// duration.
func (r *recorder) child(name string, start time.Time) time.Duration {
	now := time.Now()
	if r.tracing {
		r.spans = append(r.spans, span{Name: name, StartNS: r.ns(start), EndNS: r.ns(now), Parent: r.root, Arrival: r.arrival})
	}
	return now.Sub(start)
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

// fail records a failed check or an unexpected error.
func (r *recorder) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// writeSpans writes the phase's spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// merge appends o, one instance's part of a phase, to r (spans aside:
// each part writes its own). Its arrivals
// are cut into blocks of n for the timing figures (one block when there
// are fewer than n); the rest of a part short of a block is counted but
// not timed.
func (r *recorder) merge(o *recorder, n int) {
	if len(o.steps) < n {
		n = len(o.steps)
	}
	for lo := 0; n > 0 && lo+n <= len(o.steps); lo += n {
		steps, embeds := o.steps[lo:lo+n], o.embeds[lo:lo+n]
		r.blockRates = append(r.blockRates, float64(n)/sumDur(steps).Seconds())
		r.blockP50 = append(r.blockP50, quantileMS(embeds, 0.5))
		r.blockP90 = append(r.blockP90, quantileMS(embeds, 0.9))
	}
	r.arrival += o.arrival
	r.tally.add(&o.tally)
	r.steps = append(r.steps, o.steps...)
	r.embeds = append(r.embeds, o.embeds...)
	r.embedMiss = append(r.embedMiss, o.embedMiss...)
	r.advances = append(r.advances, o.advances...)
	r.reprices = append(r.reprices, o.reprices...)
	r.repairs = append(r.repairs, o.repairs...)
	r.allocBytes += o.allocBytes
	r.failures = append(r.failures, o.failures...)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileMS is the nearest-rank q-quantile of ds in milliseconds.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / 1e6
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / 1e6
}

func sumDur(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// pct is 100·a/b, 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}
