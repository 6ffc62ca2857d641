package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
)

// closureBuilder draws a seeded Ĝ through the builder. The shape bits pick
// the hard cases of the closure derivation:
//
//	bit 0: integer costs in {0,1,2} (ties everywhere, zero-cost edges)
//	bit 1: zero VM setup costs (zero-cost chains become possible)
//	bit 2: failed and masked edges and VMs
//	bit 3: a failed destination (with bit 2)
//	bit 4: a duplicated source
//	bit 5: some candidates fed twice (parallel virtual edges)
//	bits 6–7: chainLen 0, 1 or 2
func closureBuilder(t testing.TB, seed int64, shape uint8) *AuxGraphBuilder {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(28)
	g := graph.RandomConnected(graph.RandomConfig{
		Nodes: n, ExtraEdges: rng.Intn(n), VMFraction: 0.35, MaxEdge: 9, MaxSetup: 4,
	}, seed)
	// A few parallel real edges make G a multigraph.
	for i := rng.Intn(3); i > 0; i-- {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			g.MustAddEdge(u, v, 1+rng.Float64()*8)
		}
	}
	if shape&1 != 0 {
		for e := 0; e < g.NumEdges(); e++ {
			g.SetEdgeCost(graph.EdgeID(e), float64(rng.Intn(3)))
		}
	}
	vms := g.VMs()
	for _, v := range vms {
		switch {
		case shape&2 != 0:
			g.SetNodeCost(v, 0)
		case shape&1 != 0:
			g.SetNodeCost(v, math.Floor(g.NodeCost(v)))
		}
	}
	if shape&4 != 0 {
		g.FailEdge(graph.EdgeID(rng.Intn(g.NumEdges())))
		g.MaskEdge(graph.EdgeID(rng.Intn(g.NumEdges())))
		if len(vms) > 2 {
			g.FailNode(vms[rng.Intn(len(vms))])
			g.MaskNode(vms[rng.Intn(len(vms))])
		}
	}
	pick := func(k int) []graph.NodeID {
		out := make([]graph.NodeID, k)
		for i := range out {
			out[i] = graph.NodeID(rng.Intn(n))
		}
		return out
	}
	req := Request{Sources: pick(1 + rng.Intn(4)), Dests: pick(1 + rng.Intn(4)), ChainLen: int(shape>>6) % 3}
	if shape&8 != 0 && shape&4 != 0 {
		g.FailNode(req.Dests[0])
	}
	if shape&16 != 0 {
		req.Sources = append(req.Sources, req.Sources[0])
	}
	b, err := NewAuxGraphBuilder(context.Background(), g, req, nil)
	if err != nil {
		t.Fatalf("seed %d shape %#x: builder: %v", seed, shape, err)
	}
	if req.ChainLen == 0 {
		return b
	}
	results, err := b.oracle.Chains(context.Background(), b.vms, chain.Pairs(req.Sources, b.vms), req.ChainLen, 1)
	if err != nil {
		t.Fatalf("seed %d shape %#x: chains: %v", seed, shape, err)
	}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		feeds := 1
		if shape&32 != 0 && rng.Intn(3) == 0 {
			feeds = 2
		}
		for ; feeds > 0; feeds-- {
			if _, err := b.AddCandidate(r.Chain); err != nil {
				t.Fatalf("seed %d shape %#x: AddCandidate: %v", seed, shape, err)
			}
		}
	}
	return b
}

// checkAuxClosure compares every tree the closure provider serves with a
// Dijkstra run on Ĝ, bit for bit over all of Ĝ's nodes, and returns how
// many destination trees were derived and how many were rerun on Ĝ.
func checkAuxClosure(t testing.TB, b *AuxGraphBuilder, ctx string) (derived, reruns int) {
	t.Helper()
	b.pinDestTrees()
	c := newAuxClosure(b.aux, b.req.Dests, b.destTrees)
	terms := append([]graph.NodeID{b.aux.sHat}, b.req.Dests...)
	want := graph.DijkstraBatch(b.aux.g, terms, nil)
	for i, n := range terms {
		got, w := c.Tree(n), want[i]
		if got == nil || got.Source != n || len(got.Dist) != len(w.Dist) ||
			len(got.Parent) != len(w.Parent) || len(got.ParentEdge) != len(w.ParentEdge) {
			t.Fatalf("%s: terminal %d: malformed tree", ctx, n)
		}
		for v := range w.Dist {
			if math.Float64bits(got.Dist[v]) != math.Float64bits(w.Dist[v]) ||
				got.Parent[v] != w.Parent[v] || got.ParentEdge[v] != w.ParentEdge[v] {
				t.Fatalf("%s: terminal %d node %d: got (%v, %d, %d), Dijkstra on Ĝ (%v, %d, %d)",
					ctx, n, v, got.Dist[v], got.Parent[v], got.ParentEdge[v], w.Dist[v], w.Parent[v], w.ParentEdge[v])
			}
		}
	}
	return len(c.trees) - 1 - c.reruns, c.reruns
}

// TestAuxClosureMatchesDijkstra runs the closure derivation over seeded
// instances of every shape and pins each served tree to Dijkstra on Ĝ. It
// also requires both outcomes of the check to occur, with reruns outside
// chainLen 0 (where ŝ reaches every source at zero cost and no reachable
// destination can pass), so neither branch goes untested.
func TestAuxClosureMatchesDijkstra(t *testing.T) {
	var derived, reruns, chainReruns int
	for seed := int64(0); seed < 512; seed++ {
		shape := uint8(seed)
		b := closureBuilder(t, seed, shape)
		d, r := checkAuxClosure(t, b, fmt.Sprintf("seed %d", seed))
		derived += d
		reruns += r
		if b.req.ChainLen > 0 {
			chainReruns += r
		}
	}
	t.Logf("derived %d destination trees, reran %d (%d with chainLen > 0)", derived, reruns, chainReruns)
	if derived == 0 || chainReruns == 0 {
		t.Fatalf("derived %d, reran %d with chainLen > 0: both outcomes must occur", derived, chainReruns)
	}
}

// TestAuxClosureCrossSourceDetour pins the case the check exists for: two
// sources at the ends of a dear line, each with a cheap chain to its own
// VM. The destination next to one source reaches the far end more
// cheaply through ŝ than over the line, so its G tree is not its Ĝ tree
// and must be rerun; the destination in the middle keeps its G tree.
func TestAuxClosureCrossSourceDetour(t *testing.T) {
	// 0 —1— 1 —50— 2 —50— 3 —1— 4, VMs 5 (at 0) and 6 (at 4).
	g := graph.New(7, 6)
	for i := 0; i < 5; i++ {
		g.AddSwitch("")
	}
	vmA, vmB := g.AddVM("a", 1), g.AddVM("b", 1)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 50)
	g.MustAddEdge(2, 3, 50)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(0, vmA, 1)
	g.MustAddEdge(4, vmB, 1)
	req := Request{Sources: []graph.NodeID{0, 4}, Dests: []graph.NodeID{1, 2}, ChainLen: 1}
	b, err := NewAuxGraphBuilder(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []chain.Pair{{Source: 0, LastVM: vmA}, {Source: 4, LastVM: vmB}} {
		sc, err := b.oracle.Chain(b.vms, p.Source, p.LastVM, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddCandidate(sc); err != nil {
			t.Fatal(err)
		}
	}
	derived, reruns := checkAuxClosure(t, b, "detour")
	if derived != 1 || reruns != 1 {
		t.Fatalf("derived %d, reran %d: want the middle destination derived and the one beside a source rerun", derived, reruns)
	}
}

// FuzzAuxClosureTrees drives the closure derivation with arbitrary seeds
// and shapes: every tree it serves must equal Dijkstra on Ĝ bit for bit.
func FuzzAuxClosureTrees(f *testing.F) {
	for _, shape := range []uint8{0x00, 0x43, 0x47, 0x5f, 0x8f, 0x3d, 0x7f, 0xbf} {
		f.Add(int64(shape), shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		checkAuxClosure(t, closureBuilder(t, seed, shape), "fuzz")
	})
}
