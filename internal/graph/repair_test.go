package graph

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// repairGraph is a small random multigraph with strictly positive integer
// costs: parallel edges and plenty of equal-length paths, so the parent
// tie rule is exercised on every change.
func repairGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(30)
	g := New(n, 4*n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			g.AddVM("", float64(1+rng.Intn(5)))
		} else {
			g.AddSwitch("")
		}
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID(rng.Intn(i)), float64(1+rng.Intn(6)))
	}
	for k := 0; k < 2*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(NodeID(u), NodeID(v), float64(1+rng.Intn(6)))
		}
	}
	return g
}

// applyRepairOp performs one random mutation on g, chosen by op and
// parameterized by x (the element) and y (the value). Every cost it
// writes is valid, so the setters' errors are dropped.
func applyRepairOp(g *Graph, op, x, y byte) {
	m, n := g.NumEdges(), g.NumNodes()
	e, v := EdgeID(int(x)%m), NodeID(int(x)%n)
	switch op % 16 {
	case 0, 1, 2, 3:
		cost := float64(1 + int(y)%6)
		if y%23 == 22 {
			cost = math.Inf(1)
		}
		_ = g.SetEdgeCost(e, cost)
	case 4:
		if y%4 == 0 {
			_ = g.SetEdgeCost(e, 0) // zero-cost arcs force the fallback
		} else {
			_ = g.SetEdgeCost(e, float64(y%7)+0.5)
		}
	case 5:
		_ = g.SetNodeCost(v, float64(y%9))
	case 6:
		g.MaskEdge(e)
	case 7:
		g.UnmaskEdge(e)
	case 8:
		g.FailEdge(e)
	case 9:
		g.RestoreEdge(e)
	case 10:
		g.MaskNode(v)
	case 11:
		g.UnmaskNode(v)
	case 12:
		g.FailNode(v)
	case 13:
		g.RestoreNode(v)
	case 14:
		switch y % 8 {
		case 0:
			g.BumpCostEpoch()
		case 1:
			g.RestoreAll()
		case 2:
			g.UnmaskAll()
		}
	case 15:
		// Several changes in one gap.
		for i := 0; i < 1+int(y%5); i++ {
			applyRepairOp(g, x+byte(i), x*7+byte(i), y+byte(3*i))
		}
	}
}

// treeSum hashes a tree's arrays bit for bit.
func treeSum(sp *ShortestPaths) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := range sp.Dist {
		put(math.Float64bits(sp.Dist[i]))
		put(uint64(sp.Parent[i]))
		put(uint64(sp.ParentEdge[i]))
	}
	return h.Sum64()
}

// sameTree reports the first node where got and want differ bit for bit.
func sameTree(got, want *ShortestPaths) (int, bool) {
	if got.Source != want.Source || len(got.Dist) != len(want.Dist) {
		return -1, false
	}
	for u := range want.Dist {
		if math.Float64bits(got.Dist[u]) != math.Float64bits(want.Dist[u]) ||
			got.Parent[u] != want.Parent[u] || got.ParentEdge[u] != want.ParentEdge[u] {
			return u, false
		}
	}
	return 0, true
}

// repairTracker holds one stale tree per source and checks every repair
// against fresh runs of both engines.
type repairTracker struct {
	g                  *Graph
	arena, ref         *Arena
	trees              []*ShortestPaths
	epochs             []uint64
	repaired, fallback int
}

func newRepairTracker(g *Graph, sources []NodeID) *repairTracker {
	rt := &repairTracker{g: g, arena: NewArena(), ref: NewArena()}
	for _, s := range sources {
		rt.trees = append(rt.trees, Dijkstra(g, s))
		rt.epochs = append(rt.epochs, g.CostEpoch())
	}
	return rt
}

// check repairs every tracked tree to the current epoch and compares the
// result with Dijkstra on the heap and on delta-stepping. It reports a
// description of the first mismatch, "" when all agree.
func (rt *repairTracker) check() string {
	g := rt.g
	for i, old := range rt.trees {
		before := treeSum(old)
		got := Repair(g, old, rt.epochs[i], rt.arena)
		if treeSum(old) != before {
			return "repair wrote the old tree"
		}
		if got == nil {
			rt.fallback++
			got = Dijkstra(g, old.Source)
		} else {
			rt.repaired++
		}
		want := Dijkstra(g, old.Source)
		if u, ok := sameTree(got, want); !ok {
			return describeDiff("heap", got, want, u)
		}
		if lay := usableLayout(g); lay != nil {
			delta := dijkstraBatchWith(g, []NodeID{old.Source}, rt.ref, lay)[0]
			if u, ok := sameTree(got, delta); !ok {
				return describeDiff("delta", got, delta, u)
			}
		}
		rt.trees[i], rt.epochs[i] = got, g.CostEpoch()
	}
	return ""
}

func describeDiff(engine string, got, want *ShortestPaths, u int) string {
	if u < 0 {
		return engine + ": tree shape differs"
	}
	return fmt.Sprintf("%s: source %d node %d: repaired (%v,%d,%d) fresh (%v,%d,%d)", engine, want.Source, u,
		got.Dist[u], got.Parent[u], got.ParentEdge[u], want.Dist[u], want.Parent[u], want.ParentEdge[u])
}

// TestTreeRepairProperty drives random sequences of cost, node-cost,
// mask/unmask, fail/restore, BumpCostEpoch, RestoreAll and UnmaskAll
// operations, with 0–4 operations between repairs, and requires every
// repaired tree to equal a fresh run bit for bit.
func TestTreeRepairProperty(t *testing.T) {
	repaired, fallback := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		g := repairGraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		sources := []NodeID{0, NodeID(rng.Intn(g.NumNodes())), NodeID(g.NumNodes() - 1)}
		rt := newRepairTracker(g, sources)
		for step := 0; step < 150; step++ {
			for k := rng.Intn(5); k > 0; k-- {
				applyRepairOp(g, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			if msg := rt.check(); msg != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, msg)
			}
		}
		repaired += rt.repaired
		fallback += rt.fallback
	}
	if repaired == 0 || fallback == 0 {
		t.Fatalf("property run exercised repaired=%d fallback=%d; want both", repaired, fallback)
	}
	t.Logf("repaired %d trees, %d fell back", repaired, fallback)
}

// TestTreeRepairDeltaGraph repeats the property on graphs large enough
// for Dijkstra to pick delta-stepping, with real-valued costs.
func TestTreeRepairDeltaGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph")
	}
	g := RandomConnected(RandomConfig{Nodes: deltaMinNodes + 200, ExtraEdges: deltaMinNodes, MaxEdge: 10}, 3)
	rng := rand.New(rand.NewSource(3))
	rt := newRepairTracker(g, []NodeID{0, 4321})
	for step := 0; step < 30; step++ {
		e := EdgeID(rng.Intn(g.NumEdges()))
		switch rng.Intn(3) {
		case 0:
			_ = g.SetEdgeCost(e, 0.01+rng.Float64()*10)
		case 1:
			g.MaskEdge(e)
		default:
			g.UnmaskEdge(EdgeID(rng.Intn(g.NumEdges())))
		}
		if msg := rt.check(); msg != "" {
			t.Fatalf("step %d: %s", step, msg)
		}
	}
	if rt.repaired == 0 {
		t.Fatal("no tree was repaired")
	}
}

// TestTreeRepairFallbacks pins each documented fallback and shortcut.
func TestTreeRepairFallbacks(t *testing.T) {
	g := repairGraph(1)
	src := NodeID(0)
	sp := Dijkstra(g, src)
	e0 := g.CostEpoch()

	if got := Repair(g, sp, e0, nil); got != sp {
		t.Fatal("no change since: repair did not return the old tree")
	}
	_ = g.SetNodeCost(1, 42)
	if got := Repair(g, sp, e0, nil); got != sp {
		t.Fatal("node-cost-only gap: repair did not return the old tree")
	}
	g.BumpCostEpoch()
	if Repair(g, sp, e0, nil) != nil {
		t.Fatal("BumpCostEpoch in the gap: repair did not fall back")
	}

	// Journal overflow: a tree older than the window falls back.
	sp, e0 = Dijkstra(g, src), g.CostEpoch()
	for i := 0; i <= journalCap; i++ {
		_ = g.SetEdgeCost(0, float64(1+i%2))
	}
	if _, _, ok := g.changesSince(e0); ok || Repair(g, sp, e0, nil) != nil {
		t.Fatal("journal overflow: repair did not fall back")
	}
	sp, e0 = Dijkstra(g, src), g.CostEpoch()
	_ = g.SetEdgeCost(1, 3)
	if got := Repair(g, sp, e0, nil); got == nil {
		t.Fatal("one change after compaction: repair fell back")
	}
	if Repair(g, sp, g.CostEpoch()+1, nil) != nil {
		t.Fatal("tree from a future epoch: repair did not fall back")
	}

	// Zero-cost edges fall back.
	sp, e0 = Dijkstra(g, src), g.CostEpoch()
	_ = g.SetEdgeCost(2, 0)
	if Repair(g, sp, e0, nil) != nil {
		t.Fatal("zero-cost edge: repair did not fall back")
	}
	_ = g.SetEdgeCost(2, 1)

	// Topology growth without an epoch advance falls back.
	sp, e0 = Dijkstra(g, src), g.CostEpoch()
	g.MustAddEdge(0, 1, 0.5)
	_ = g.SetEdgeCost(3, 2.5)
	if Repair(g, sp, e0, nil) != nil {
		t.Fatal("topology growth: repair did not fall back")
	}
	if Repair(g, &ShortestPaths{Source: src, Dist: []float64{0}}, g.CostEpoch(), nil) != nil {
		t.Fatal("tree of another size: repair did not fall back")
	}

	// On a path every node hangs below the source's only arc: raising its
	// cost puts the whole graph in the region, past the work bound, while
	// raising the last arc's cost repairs one node.
	line := New(12, 11)
	for i := 0; i < 12; i++ {
		line.AddSwitch("")
	}
	for i := 1; i < 12; i++ {
		line.MustAddEdge(NodeID(i-1), NodeID(i), 1)
	}
	sp, e0 = Dijkstra(line, 0), line.CostEpoch()
	_ = line.SetEdgeCost(0, 2)
	if Repair(line, sp, e0, nil) != nil {
		t.Fatal("region of every node: repair did not fall back")
	}
	sp, e0 = Dijkstra(line, 0), line.CostEpoch()
	_ = line.SetEdgeCost(10, 2)
	a := NewArena()
	if got := Repair(line, sp, e0, a); got == nil || RepairWork(a) != 1 {
		t.Fatalf("last arc re-priced: repaired %v with region %d, want one node", got != nil, RepairWork(a))
	}
	sp, e0 = Dijkstra(line, 0), line.CostEpoch()
	for i := 0; i <= line.NumNodes()/repairRegionDiv; i++ {
		_ = line.SetEdgeCost(10, float64(3+i))
	}
	if Repair(line, sp, e0, nil) != nil {
		t.Fatal("more changes than the work bound: repair did not fall back")
	}
}

// TestTreeRepairBlockedSource: a tree computed while its source is
// blocked is all-unreachable and stays valid exactly while the source
// stays blocked.
func TestTreeRepairBlockedSource(t *testing.T) {
	g := repairGraph(2)
	src := NodeID(3)
	g.MaskNode(src)
	dead, e0 := Dijkstra(g, src), g.CostEpoch()
	_ = g.SetEdgeCost(0, 9)
	g.FailEdge(1)
	if got := Repair(g, dead, e0, nil); got != dead {
		t.Fatal("source still blocked: repair did not return the all-unreachable tree")
	}
	g.UnmaskNode(src)
	if Repair(g, dead, e0, nil) != nil {
		t.Fatal("source unblocked: repair did not fall back")
	}
	live, e1 := Dijkstra(g, src), g.CostEpoch()
	g.FailNode(src)
	got := Repair(g, live, e1, nil)
	if got == nil || got == live {
		t.Fatal("source newly blocked: want a fresh all-unreachable tree")
	}
	if _, ok := sameTree(got, Dijkstra(g, src)); !ok {
		t.Fatal("source newly blocked: repaired tree differs from a fresh run")
	}
}

// TestTreeRepairClone: a clone's journal starts empty at its own epoch,
// so a tree from before the clone's epoch falls back instead of indexing
// past the journal, and a tree from the clone's epoch repairs.
func TestTreeRepairClone(t *testing.T) {
	g := repairGraph(4)
	src := NodeID(0)
	early, eEarly := Dijkstra(g, src), g.CostEpoch()
	for i := 0; i < 50; i++ {
		_ = g.SetEdgeCost(EdgeID(i%g.NumEdges()), float64(2+i%3))
	}
	atClone, eClone := Dijkstra(g, src), g.CostEpoch()
	c := g.Clone()
	_ = c.SetEdgeCost(0, 5)
	c.MaskEdge(1)
	if Repair(c, early, eEarly, nil) != nil {
		t.Fatal("tree older than the clone: repair did not fall back")
	}
	got := Repair(c, atClone, eClone, nil)
	if got == nil {
		t.Fatal("tree at the clone's epoch: repair fell back")
	}
	if u, ok := sameTree(got, Dijkstra(c, src)); !ok {
		t.Fatalf("clone repair differs at node %d", u)
	}
}

// TestSetCostRejectsInvalid: the setters refuse NaN, negative costs and
// out-of-range ids, leaving the cost and the epoch unchanged.
func TestSetCostRejectsInvalid(t *testing.T) {
	g := repairGraph(5)
	e0 := g.CostEpoch()
	c0, n0 := g.EdgeCost(1), g.NodeCost(1)
	for _, bad := range []float64{math.NaN(), -7, math.Inf(-1)} {
		if err := g.SetEdgeCost(1, bad); err == nil {
			t.Errorf("SetEdgeCost(1, %v) accepted", bad)
		}
		if err := g.SetNodeCost(1, bad); err == nil {
			t.Errorf("SetNodeCost(1, %v) accepted", bad)
		}
	}
	if err := g.SetEdgeCost(EdgeID(g.NumEdges()), 1); err == nil {
		t.Error("SetEdgeCost past NumEdges accepted")
	}
	if err := g.SetEdgeCost(-1, 1); err == nil {
		t.Error("SetEdgeCost(-1) accepted")
	}
	if err := g.SetNodeCost(NodeID(g.NumNodes()), 1); err == nil {
		t.Error("SetNodeCost past NumNodes accepted")
	}
	if g.CostEpoch() != e0 || g.EdgeCost(1) != c0 || g.NodeCost(1) != n0 {
		t.Fatalf("rejected writes changed state: epoch %d→%d, edge %v→%v, node %v→%v",
			e0, g.CostEpoch(), c0, g.EdgeCost(1), n0, g.NodeCost(1))
	}
	if err := g.SetEdgeCost(1, math.Inf(1)); err != nil {
		t.Errorf("SetEdgeCost(+Inf) rejected: %v", err)
	}
	// Dijkstra still agrees with Bellman–Ford after the rejected writes.
	want := BellmanFord(g, 0)
	got := Dijkstra(g, 0)
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] {
			t.Fatalf("node %d: Dijkstra %v, Bellman–Ford %v", v, got.Dist[v], want.Dist[v])
		}
	}
}

// FuzzTreeRepair feeds arbitrary operation sequences through the tracker:
// every three bytes are one operation, and a zero op byte also repairs.
func FuzzTreeRepair(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 4, 6, 1, 2, 15, 9, 9})
	f.Add(int64(2), []byte{10, 0, 0, 0, 1, 1, 11, 0, 0, 14, 1, 1, 4, 2, 0})
	f.Add(int64(3), []byte{12, 5, 5, 8, 2, 2, 0, 0, 0, 13, 5, 5, 9, 2, 2, 14, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		g := repairGraph(seed)
		rt := newRepairTracker(g, []NodeID{0, NodeID(g.NumNodes() / 2)})
		for i := 0; i+2 < len(ops) && i < 600; i += 3 {
			applyRepairOp(g, ops[i], ops[i+1], ops[i+2])
			if ops[i]%3 == 0 {
				if msg := rt.check(); msg != "" {
					t.Fatalf("op %d: %s", i/3, msg)
				}
			}
		}
		if msg := rt.check(); msg != "" {
			t.Fatal(msg)
		}
	})
}
