package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// deltaDijkstra runs delta-stepping from src regardless of graph size
// (still falling back to the heap when g has no usable bucket width),
// reusing a's scratch like a batch caller would.
func deltaDijkstra(g *Graph, src NodeID, a *Arena) *ShortestPaths {
	return dijkstraBatchWith(g, []NodeID{src}, a, usableLayout(g))[0]
}

// TestDeltaSteppingBitIdentical is the core equivalence claim: on random
// multigraphs (parallel edges, zero-cost links), the delta-stepping tree
// — distances, parents, AND parent edges — must be bit-for-bit the
// indexed-heap tree from every source. Distances alone would allow a
// different (equally short) tree; downstream cost-equality guarantees
// need the same tree.
func TestDeltaSteppingBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := randomMultigraph(seed)
		arena := NewArena()
		for v := 0; v < g.NumNodes(); v++ {
			want := Dijkstra(g, NodeID(v)) // heap path: graph far below the gate
			got := deltaDijkstra(g, NodeID(v), arena)
			for u := 0; u < g.NumNodes(); u++ {
				if got.Dist[u] != want.Dist[u] || got.Parent[u] != want.Parent[u] || got.ParentEdge[u] != want.ParentEdge[u] {
					t.Fatalf("seed %d src %d node %d: delta (%v,%d,%d) != heap (%v,%d,%d)",
						seed, v, u, got.Dist[u], got.Parent[u], got.ParentEdge[u],
						want.Dist[u], want.Parent[u], want.ParentEdge[u])
				}
			}
			verifyTree(t, g, got)
		}
	}
}

// TestDeltaSteppingBatch drives the variant through DijkstraBatch (the
// path the chain oracle's tree warming takes) with duplicate sources.
func TestDeltaSteppingBatch(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomMultigraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x3c3c))
		sources := make([]NodeID, 0, 6)
		for i := 0; i < 5; i++ {
			sources = append(sources, NodeID(rng.Intn(g.NumNodes())))
		}
		sources = append(sources, sources[0]) // duplicate on purpose
		batch := dijkstraBatchWith(g, sources, nil, usableLayout(g))
		if batch[len(batch)-1] != batch[0] {
			t.Fatalf("seed %d: duplicate source not aliased", seed)
		}
		for i, s := range sources {
			want := Dijkstra(g, s)
			got := batch[i]
			for u := 0; u < g.NumNodes(); u++ {
				if got.Dist[u] != want.Dist[u] || got.Parent[u] != want.Parent[u] || got.ParentEdge[u] != want.ParentEdge[u] {
					t.Fatalf("seed %d source %d node %d: batch delta differs from heap", seed, s, u)
				}
			}
		}
	}
}

// TestDeltaSteppingBlockedElements covers the Blocked() consistency
// claim: failed and capacity-masked edges and nodes (both mark layers at
// once) must be invisible to the delta-stepping relaxation exactly as
// they are to the heap's, including a blocked source yielding an
// all-unreachable tree. The arc partition drops blocked arcs at build
// time, so this also pins the epoch-keyed invalidation: every
// fail/mask/restore transition must yield a fresh partition.
func TestDeltaSteppingBlockedElements(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	arena := NewArena()
	for trial := 0; trial < 25; trial++ {
		g := RandomConnected(RandomConfig{Nodes: 40, ExtraEdges: 60, MaxEdge: 5}, int64(trial))
		for i := 0; i < 5; i++ {
			g.FailEdge(EdgeID(rng.Intn(g.NumEdges())))
		}
		for i := 0; i < 3; i++ {
			g.MaskEdge(EdgeID(rng.Intn(g.NumEdges())))
		}
		g.FailNode(NodeID(rng.Intn(g.NumNodes())))
		g.MaskNode(NodeID(rng.Intn(g.NumNodes())))
		for trial2 := 0; trial2 < 3; trial2++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			want := Dijkstra(g, src)
			got := deltaDijkstra(g, src, arena)
			for u := 0; u < g.NumNodes(); u++ {
				if got.Dist[u] != want.Dist[u] || got.Parent[u] != want.Parent[u] || got.ParentEdge[u] != want.ParentEdge[u] {
					t.Fatalf("trial %d src %d node %d: delta (%v,%d,%d) != heap (%v,%d,%d) under blocks",
						trial, src, u, got.Dist[u], got.Parent[u], got.ParentEdge[u],
						want.Dist[u], want.Parent[u], want.ParentEdge[u])
				}
			}
		}
		// Flip some state back and re-check: the partition must not serve
		// the pre-transition epoch.
		g.RestoreAll()
		g.UnmaskAll()
		src := NodeID(rng.Intn(g.NumNodes()))
		want := Dijkstra(g, src)
		got := deltaDijkstra(g, src, arena)
		for u := 0; u < g.NumNodes(); u++ {
			if got.Dist[u] != want.Dist[u] {
				t.Fatalf("trial %d: stale partition after restore: Dist[%d] = %v, want %v",
					trial, u, got.Dist[u], want.Dist[u])
			}
		}
	}
}

// TestDeltaSteppingBlockedSource: a failed or masked source reaches
// nothing, not even itself — same contract as the heap variant.
func TestDeltaSteppingBlockedSource(t *testing.T) {
	g := RandomConnected(RandomConfig{Nodes: 20, ExtraEdges: 20, MaxEdge: 5}, 3)
	arena := NewArena()
	g.FailNode(4)
	sp := deltaDijkstra(g, 4, arena)
	for v := range sp.Dist {
		if !math.IsInf(sp.Dist[v], 1) || sp.Parent[v] != None {
			t.Fatalf("failed source: node %d reachable", v)
		}
	}
	g.RestoreNode(4)
	g.MaskNode(4)
	sp = deltaDijkstra(g, 4, arena)
	for v := range sp.Dist {
		if !math.IsInf(sp.Dist[v], 1) {
			t.Fatalf("masked source: node %d reachable", v)
		}
	}
}

// TestDeltaSteppingZeroCostFallback: an all-zero-cost graph has no
// usable bucket width; a delta run must fall back to the heap instead of
// dividing by zero, and results must stay correct.
func TestDeltaSteppingZeroCostFallback(t *testing.T) {
	g := New(5, 6)
	for i := 0; i < 5; i++ {
		g.AddSwitch("")
	}
	for i := 1; i < 5; i++ {
		g.MustAddEdge(NodeID(i-1), NodeID(i), 0)
	}
	sp := deltaDijkstra(g, 2, NewArena())
	for v := 0; v < 5; v++ {
		if sp.Dist[v] != 0 {
			t.Fatalf("Dist[%d] = %v, want 0", v, sp.Dist[v])
		}
	}
}

// TestDeltaSteppingArenaReuseAcrossGraphs drives one arena through
// graphs of different sizes and widths (so the calendar, dedup stamps,
// and partition all change between runs), catching stale scratch leaking
// across runs — the reuse pattern of pooled arenas and batch callers.
func TestDeltaSteppingArenaReuseAcrossGraphs(t *testing.T) {
	arena := NewArena()
	for round := 0; round < 3; round++ {
		for _, seed := range []int64{3, 11, 5, 23, 2, 31, 4} {
			g := randomMultigraph(seed)
			got := deltaDijkstra(g, 0, arena)
			want := BellmanFord(g, 0)
			for v := 0; v < g.NumNodes(); v++ {
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("round %d seed %d: Dist[%d] = %v, want %v",
						round, seed, v, got.Dist[v], want.Dist[v])
				}
			}
			verifyTree(t, g, got)
		}
	}
}

// TestDeltaLayoutEpochInvalidation pins the partition memo key: a cost
// change must yield a fresh partition (arc moves between light and
// heavy), and an unchanged-epoch re-fetch must serve the same one.
func TestDeltaLayoutEpochInvalidation(t *testing.T) {
	g := New(3, 2)
	g.AddSwitch("")
	g.AddSwitch("")
	g.AddSwitch("")
	e0 := g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 100)
	lay := g.deltaLayoutFor()
	if again := g.deltaLayoutFor(); again != lay {
		t.Fatal("same-epoch re-fetch rebuilt the partition")
	}
	if lay.lrow[1]-lay.lrow[0] != 1 || lay.hrow[1]-lay.hrow[0] != 0 {
		t.Fatalf("cheap arc not light: lrow=%v hrow=%v", lay.lrow[:2], lay.hrow[:2])
	}
	// Raising the cheap edge past the width must move it to heavy in the
	// rebuilt partition.
	g.SetEdgeCost(e0, 1000)
	lay2 := g.deltaLayoutFor()
	if lay2 == lay {
		t.Fatal("cost change did not invalidate the partition")
	}
	if lay2.hrow[1]-lay2.hrow[0] != 1 {
		t.Fatalf("re-priced arc not heavy: hrow=%v", lay2.hrow[:2])
	}
}

// TestPickSizeGate pins the one variant decision: delta-stepping from
// deltaMinNodes nodes up, the heap below, and the heap on any graph
// without a usable bucket width — all-zero costs, or a +Inf cost, which
// would otherwise make the width infinite.
func TestPickSizeGate(t *testing.T) {
	sized := func(n int) *Graph { return RandomConnected(RandomConfig{Nodes: n, MaxEdge: 5}, 1) }
	zero := sized(deltaMinNodes)
	for e := 0; e < zero.NumEdges(); e++ {
		zero.SetEdgeCost(EdgeID(e), 0)
	}
	inf := sized(deltaMinNodes)
	inf.SetEdgeCost(7, math.Inf(1))
	cases := []struct {
		name  string
		g     *Graph
		delta bool
	}{
		{"below-gate", sized(deltaMinNodes - 1), false},
		{"at-gate", sized(deltaMinNodes), true},
		{"all-zero-costs", zero, false},
		{"inf-cost", inf, false},
	}
	for _, tc := range cases {
		if got := pick(tc.g) != nil; got != tc.delta {
			t.Errorf("%s: pick chose delta = %v, want %v", tc.name, got, tc.delta)
		}
	}
}

// BenchmarkDeltaStepping races the two SSSP variants on the same random
// connected graphs (a spanning tree plus as many chords, uniform costs):
// the indexed heap, and delta-stepping forced regardless of graph size.
// Each op runs one batch of 16 distinct sources, so a -benchtime 1x CI
// pass still measures a stable multi-run sample; ms/run is the
// per-source wall clock. The CI gate requires delta at no more than
// 1/1.7 of the heap's ms/run on the 10k-node graph — a ratio within one
// run, so runner speed cancels out.
func BenchmarkDeltaStepping(b *testing.B) {
	for _, nodes := range []int{1000, 10000} {
		g := RandomConnected(RandomConfig{Nodes: nodes, ExtraEdges: nodes, MaxEdge: 10}, 1)
		rng := rand.New(rand.NewSource(7))
		srcs := make([]NodeID, 16)
		for i, p := range rng.Perm(nodes)[:len(srcs)] {
			srcs[i] = NodeID(p)
		}
		for _, v := range []struct {
			name string
			lay  *deltaLayout
		}{
			{"heap", nil},
			{"delta", usableLayout(g)},
		} {
			b.Run(fmt.Sprintf("V%d/%s", nodes, v.name), func(b *testing.B) {
				b.ReportAllocs()
				a := NewArena()
				dijkstraBatchWith(g, srcs[:1], a, v.lay) // warm the CSR and the arena
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dijkstraBatchWith(g, srcs, a, v.lay)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(srcs))/1e6, "ms/run")
			})
		}
	}
}
