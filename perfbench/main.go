// Command perfbench is the repository's end-to-end benchmark. It drives the
// online embedding path through four workloads (see README.md), each a
// closed loop with one client: every arrival waits for the previous one,
// because its prices depend on the previous outcome.
//
//	perfbench --workload classic --seed 1 --seconds 10 --trace 0
//
// A run sets up several instances of the workload, each from its own
// sub-seed of --seed, and measures them one after another for an equal
// share of --seconds, so its figures average over several topologies while
// only one instance is in memory at a time. With --trace 0 it reports the
// end-to-end metrics with tracing off; with --trace 1 each instance's share
// is split into a traced half (spans, CPU and allocation profiles) and an
// untraced half to compare it with, and it reports the per-layer metrics. The last line of
// standard output is one JSON object with the result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// traceDir holds the latest traced run's spans and profiles per workload,
// relative to the working directory.
const traceDir = ".bench_build/trace"

type instance interface {
	// arrive runs one arrival and returns the checks of its outputs, which
	// run after the arrival's timing has stopped.
	arrive(ctx context.Context, r *recorder) func() error
	// verify runs the end-of-run output checks and returns the failures.
	verify(ctx context.Context) []string
	nodes() int
	close()
}

type workload struct {
	instances int // instances per run, each from its own sub-seed
	warmup    int // arrivals per instance run during set-up
	window    int // first timed arrivals per instance; their outcomes form the digest
	block     int // arrivals per block; timing figures are medians over blocks
	build     func(seed int64) (instance, error)
	// assert checks that the window exercised the mechanisms the workload
	// exists to stress.
	assert func(nodes int, w *tally) []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: classic, scaled, churn or leader")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	fmt.Printf("workload %s seed %d seconds %d trace %d gomaxprocs %d nproc %d\n",
		*name, *seed, *seconds, *trace, procs, runtime.NumCPU())

	res, err := execute(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func execute(name string, w *workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	part := dur / time.Duration(w.instances)
	dir := filepath.Join(traceDir, name)
	if traced {
		part /= 2
		// Keep only the latest traced run of a workload on disk.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	var (
		a        = newRecorder(false) // untraced arrivals from the start of each instance
		b        = newRecorder(true)  // traced arrivals
		c        = newRecorder(false) // untraced arrivals to compare b with
		window   tally
		setups   []float64
		heaps    []float64
		digests  []string
		nodes    int
		prof     = newProfileSums()
		failures []string
	)
	for j := 0; j < w.instances; j++ {
		inst, secs, warm, err := setUp(ctx, w, seed, j)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		digests = append(digests, warm.tally.digest())
		failures = append(failures, warm.failures...)
		nodes = inst.nodes()

		// Untraced: at least the window, then, untraced runs only, until
		// the share is used.
		r := newRecorder(false)
		start := time.Now()
		for r.arrival < w.window || (!traced && time.Since(start) < part) {
			runArrival(ctx, inst, r)
			if r.arrival == w.window {
				window.add(&r.tally)
			}
		}
		a.merge(r, w.block)
		// Traced runs: a traced and an untraced part of equal length, in
		// alternating order across instances, so that a trend within an
		// instance (caches still warming) does not read as tracing overhead.
		for k := 0; traced && k < 2; k++ {
			if (j+k)%2 == 1 {
				u := newRecorder(false)
				for start := time.Now(); time.Since(start) < part; {
					runArrival(ctx, inst, u)
				}
				c.merge(u, w.block)
				continue
			}
			t, err := tracedPart(ctx, inst, part, filepath.Join(dir, fmt.Sprintf("seed%d-%d", seed, j)), prof)
			if err != nil {
				inst.close()
				return nil, err
			}
			b.merge(t, w.block)
		}
		heaps = append(heaps, liveHeapMB())
		failures = append(failures, inst.verify(ctx)...)
		inst.close()
	}
	// Instance 0 once more: set-up must reach the same state every time.
	inst, secs, warm, err := setUp(ctx, w, seed, 0)
	if err != nil {
		return nil, err
	}
	inst.close()
	setups = append(setups, secs)
	if d := warm.tally.digest(); d != digests[0] {
		failures = append(failures, fmt.Sprintf("instance 0 set up twice reached warm-up digests %s and %s", digests[0], d))
	}
	failures = append(failures, a.failures...)
	failures = append(failures, b.failures...)
	failures = append(failures, c.failures...)
	failures = append(failures, w.assert(nodes, &window)...)

	attempted := a.arrival + b.arrival + c.arrival
	fmt.Printf("digest %s over the first %d arrivals of each instance: %v\n", window.digest(), w.window, &window)
	fmt.Printf("warm-up digests %v; set-up seconds %.3f\n", digests, setups)
	fmt.Printf("embed samples %d in %d blocks; error_pct %.4f\n", len(a.embeds), len(a.blockRates), pct(float64(len(failures)), float64(attempted)))
	for i, f := range failures {
		if i == 20 {
			fmt.Printf("... %d more failures\n", len(failures)-i)
			break
		}
		fmt.Println("FAIL", f)
	}

	res := &result{
		Correct:   len(failures) == 0,
		Attempted: attempted,
		Failed:    len(failures),
		Metrics:   map[string]metric{},
	}
	if traced {
		m := layerMetrics(b, prof)
		m["trace_overhead_pct"] = 100 * (1 - median(b.blockRates)/median(c.blockRates))
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{m[d.name], d.unit}
		}
	} else {
		// The mean over failures of the share of the failure's severed
		// destinations that repair reattached; 100 when nothing was severed.
		restored := 100.0
		if window.damaging > 0 {
			restored = pct(window.restoredSum, float64(window.damaging))
		}
		m := map[string]float64{
			"arrivals_per_s":       median(a.blockRates),
			"embed_p50_ms":         median(a.blockP50),
			"embed_p90_ms":         median(a.blockP90),
			"accept_pct":           pct(float64(window.accepted), float64(window.attempted)),
			"cost_per_accept":      window.costSum / float64(window.accepted),
			"restored_pct":         restored,
			"alloc_kb_per_arrival": float64(a.allocBytes) / 1024 / float64(a.arrival),
			"heap_mb":              median(heaps),
			"setup_s":              median(setups),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{m[d.name], d.unit}
		}
	}
	for _, d := range append(endToEnd, perLayer...) {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Printf("%-32s %14.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
	return res, nil
}

// setUp builds instance j of the run — topology, session, first Reprice —
// and runs its warm-up prefix, returning the seconds that took.
func setUp(ctx context.Context, w *workload, seed int64, j int) (instance, float64, *recorder, error) {
	runtime.GC()
	start := time.Now()
	inst, err := w.build(seed*1000 + int64(j))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("set-up of instance %d: %w", j, err)
	}
	warm := newRecorder(false)
	for n := 0; n < w.warmup; n++ {
		runArrival(ctx, inst, warm)
	}
	return inst, time.Since(start).Seconds(), warm, nil
}

// runArrival times one arrival and then runs its checks.
func runArrival(ctx context.Context, inst instance, r *recorder) {
	r.begin()
	check := inst.arrive(ctx, r)
	r.end()
	if check != nil {
		if err := check(); err != nil {
			r.fail("arrival %d: check: %v", r.arrival, err)
		}
	}
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"arrivals_per_s", "1/s"},
	{"embed_p50_ms", "ms"},
	{"embed_p90_ms", "ms"},
	{"accept_pct", "%"},
	{"cost_per_accept", "cost"},
	{"restored_pct", "%"},
	{"alloc_kb_per_arrival", "KiB"},
	{"heap_mb", "MiB"},
	{"setup_s", "s"},
}

// profileSums accumulates what the traced parts' profiles and runtime
// metrics attribute to each layer.
type profileSums struct {
	cpuNS, allocB map[string]float64
	gc            []float64 // deltas of gcSamples
	conns         float64   // connections the domain servers accepted
	parts         int       // traced parts summed
}

var gcSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func newProfileSums() *profileSums {
	return &profileSums{cpuNS: map[string]float64{}, allocB: map[string]float64{}, gc: make([]float64, len(gcSamples))}
}

// tracedPart runs arrivals on inst for dur with spans, a CPU profile and
// allocation snapshots on, and adds what the profiles attribute to each
// layer to p.
func tracedPart(ctx context.Context, inst instance, dur time.Duration, base string, p *profileSums) (*recorder, error) {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return nil, err
	}
	if err := writeAllocProfile(base + ".alloc0.pb.gz"); err != nil {
		return nil, err
	}
	cpu, err := os.Create(base + ".cpu.pb.gz")
	if err != nil {
		return nil, err
	}
	gc0 := readSamples(gcSamples)
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	r := newRecorder(true)
	start := time.Now()
	for time.Since(start) < dur {
		runArrival(ctx, inst, r)
	}
	pprof.StopCPUProfile()
	gc1 := readSamples(gcSamples)
	if err := cpu.Close(); err != nil {
		return nil, err
	}
	if err := writeAllocProfile(base + ".alloc1.pb.gz"); err != nil {
		return nil, err
	}
	if err := r.writeSpans(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	cpuNS, err := profileByLayer(base + ".cpu.pb.gz")
	if err != nil {
		return nil, err
	}
	allocB, err := profileByLayer("-sample_index=alloc_space", "-base", base+".alloc0.pb.gz", base+".alloc1.pb.gz")
	if err != nil {
		return nil, err
	}
	for l, v := range cpuNS {
		p.cpuNS[l] += v
	}
	for l, v := range allocB {
		p.allocB[l] += v
	}
	for i := range p.gc {
		p.gc[i] += gc1[i] - gc0[i]
	}
	if l, ok := inst.(*leaderInst); ok {
		p.conns += float64(l.traffic.conns.Load())
	}
	p.parts++
	return r, nil
}

func readSamples(names []string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
