package chain

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sof/internal/graph"
	"sof/internal/topology"
)

// freshTree reports whether got equals a fresh Dijkstra run bit for bit.
func freshTree(g *graph.Graph, got *graph.ShortestPaths) bool {
	want := graph.Dijkstra(g, got.Source)
	for v := range want.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) ||
			got.Parent[v] != want.Parent[v] || got.ParentEdge[v] != want.ParentEdge[v] {
			return false
		}
	}
	return true
}

// treeSum hashes a tree's arrays bit for bit.
func treeSum(sp *graph.ShortestPaths) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for v := range sp.Dist {
		put(math.Float64bits(sp.Dist[v]))
		put(uint64(sp.Parent[v]))
		put(uint64(sp.ParentEdge[v]))
	}
	return h.Sum64()
}

// TestOracleRepairsStaleTrees: after a few cost and mask changes, every
// stale lookup counts one miss, most are answered by repair, and every
// tree served equals a fresh run. An explicit invalidation still forces
// full runs.
func TestOracleRepairsStaleTrees(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 10, Seed: 3})
	g := net.G
	o := NewOracle(g, Options{})
	origins := net.VMs
	for _, n := range origins {
		o.Tree(n)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		if round%2 == 0 {
			if err := g.SetEdgeCost(e, g.EdgeCost(e)*1.5+1); err != nil {
				t.Fatal(err)
			}
		} else if !g.MaskEdge(e) {
			g.UnmaskEdge(e)
		}
		before := o.Stats()
		for _, n := range origins {
			if sp := o.Tree(n); !freshTree(g, sp) {
				t.Fatalf("round %d: tree of %d differs from a fresh run", round, n)
			}
		}
		st := o.Stats()
		if st.Misses-before.Misses != uint64(len(origins)) {
			t.Fatalf("round %d: %d misses for %d stale origins", round, st.Misses-before.Misses, len(origins))
		}
	}
	if st := o.Stats(); st.Repaired == 0 || st.Repaired > st.Misses {
		t.Fatalf("repaired %d of %d misses", st.Repaired, st.Misses)
	}

	before := o.Stats()
	o.InvalidateCache()
	for _, n := range origins {
		o.Tree(n)
	}
	if st := o.Stats(); st.Repaired != before.Repaired || st.Misses-before.Misses != uint64(len(origins)) {
		t.Fatalf("after InvalidateCache: %+v, before %+v; want full runs only", st, before)
	}
}

// TestWarmTreesRepairs: warming stale origins repairs them, with the same
// miss count a demand-faulted session pays.
func TestWarmTreesRepairs(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 8, Seed: 4})
	g := net.G
	o := NewOracle(g, Options{})
	if got := o.WarmTrees(context.Background(), net.VMs); got != len(net.VMs) {
		t.Fatalf("cold warm built %d, want %d", got, len(net.VMs))
	}
	g.MaskEdge(3)
	if got := o.WarmTrees(context.Background(), net.VMs); got != len(net.VMs) {
		t.Fatalf("stale warm built %d, want %d", got, len(net.VMs))
	}
	st := o.Stats()
	if st.Misses != uint64(2*len(net.VMs)) || st.Repaired == 0 {
		t.Fatalf("stats %+v: want %d misses with repairs", st, 2*len(net.VMs))
	}
	for _, n := range net.VMs {
		if !freshTree(g, o.Tree(n)) {
			t.Fatalf("warmed tree of %d differs from a fresh run", n)
		}
	}
}

// TestOracleSweepKeepsMisses: sweeping stale entries only turns repairs
// into full runs; the miss count and the trees served are those of an
// oracle that never sweeps.
func TestOracleSweepKeepsMisses(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 10, Seed: 6})
	g := net.G
	swept, kept := NewOracle(g, Options{}), NewOracle(g, Options{})
	swept.sweepAt = 4
	rng := rand.New(rand.NewSource(6))
	for step := 0; step < 200; step++ {
		n := graph.NodeID(rng.Intn(g.NumNodes()))
		a, b := swept.Tree(n), kept.Tree(n)
		if treeSum(a) != treeSum(b) {
			t.Fatalf("step %d: swept and unswept oracles serve different trees for %d", step, n)
		}
		if step%7 == 0 {
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			if !g.MaskEdge(e) {
				g.UnmaskEdge(e)
			}
		}
	}
	if a, b := swept.Stats(), kept.Stats(); a.Misses != b.Misses || a.Hits != b.Hits {
		t.Fatalf("sweeping changed the counts: swept %+v, kept %+v", a, b)
	}
	swept.mu.RLock()
	n := len(swept.trees)
	swept.mu.RUnlock()
	if n >= g.NumNodes() {
		t.Fatalf("swept cache holds %d entries; nothing was dropped", n)
	}
}

// TestOracleRepairLeavesHeldTreeIntact is the reader-safety check: while
// readers walk a tree they got from the oracle, another goroutine's
// lookup repairs the same origin. The held tree's arrays must come out
// unchanged — a repair works on a copy. No cost write runs concurrently
// with the readers.
func TestOracleRepairLeavesHeldTreeIntact(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 6, Seed: 8})
	g := net.G
	o := NewOracle(g, Options{})
	src := net.VMs[0]
	rng := rand.New(rand.NewSource(8))
	repaired := o.Stats().Repaired
	for round := 0; round < 20; round++ {
		held := o.Tree(src)
		sum := treeSum(held)
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		if !g.MaskEdge(e) {
			g.UnmaskEdge(e)
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if treeSum(held) != sum {
						t.Error("held tree changed under a reader")
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sp := o.Tree(src); !freshTree(g, sp) {
				t.Error("repaired tree differs from a fresh run")
			}
		}()
		wg.Wait()
		if treeSum(held) != sum {
			t.Fatalf("round %d: held tree changed by the repair", round)
		}
	}
	if o.Stats().Repaired == repaired {
		t.Fatal("no lookup was answered by repair")
	}
}
