package steiner

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"sof/internal/graph"
)

// memoProvider is a minimal PathProvider: a concurrency-safe memo over
// graph.Dijkstra, standing in for the chain oracle without importing it.
type memoProvider struct {
	g  *graph.Graph
	mu sync.Mutex
	m  map[graph.NodeID]*graph.ShortestPaths
}

func (p *memoProvider) Tree(n graph.NodeID) *graph.ShortestPaths {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = make(map[graph.NodeID]*graph.ShortestPaths)
	}
	sp, ok := p.m[n]
	if !ok {
		sp = graph.Dijkstra(p.g, n)
		p.m[n] = sp
	}
	return sp
}

// TestKMBWithMatchesKMB pins the provider-backed KMB against the
// self-contained KMB: identical trees (nodes, edges, and cost
// bit-for-bit) on random graphs and terminal-set sizes including the
// Fig. 10 regime's larger sets.
func TestKMBWithMatchesKMB(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 80, ExtraEdges: 140, VMFraction: 0.3, MaxEdge: 9, MaxSetup: 5,
		}, seed)
		pool := make([]graph.NodeID, g.NumNodes())
		for i := range pool {
			pool[i] = graph.NodeID(i)
		}
		for _, nTerms := range []int{2, 5, 17} {
			terms := pool[:nTerms]
			want, err := KMB(g, terms)
			if err != nil {
				t.Fatalf("seed %d t=%d: KMB: %v", seed, nTerms, err)
			}
			got, err := KMBWith(g, terms, &KMBOptions{Provider: &memoProvider{g: g}})
			if err != nil {
				t.Fatalf("seed %d t=%d: %v", seed, nTerms, err)
			}
			if got.Cost != want.Cost {
				t.Fatalf("seed %d t=%d: cost %v != %v", seed, nTerms, got.Cost, want.Cost)
			}
			if !reflect.DeepEqual(got.Edges, want.Edges) || !reflect.DeepEqual(got.Nodes, want.Nodes) {
				t.Fatalf("seed %d t=%d: tree differs from self-contained KMB", seed, nTerms)
			}
			if err := Verify(g, got, terms); err != nil {
				t.Fatalf("seed %d t=%d: %v", seed, nTerms, err)
			}
		}
	}
}

// TestKMBWithDisconnected checks the provider path reports unreachable
// terminals the same way the self-contained KMB does.
func TestKMBWithDisconnected(t *testing.T) {
	g := graph.New(4, 1)
	for i := 0; i < 4; i++ {
		g.AddSwitch("")
	}
	g.MustAddEdge(0, 1, 1)
	// 2 and 3 are isolated.
	for _, opts := range []*KMBOptions{nil, {Provider: &memoProvider{g: g}}} {
		if _, err := KMBWith(g, []graph.NodeID{0, 1, 3}, opts); err == nil {
			t.Fatalf("opts %+v: expected disconnection error", opts)
		}
	}
}

// referenceKMB is the map-based KMB assembly the dense scratch replaced,
// kept as the differential reference: per-terminal Dijkstra closure,
// Prim over the closure, path expansion into map-backed sets, then
// referenceAssemble.
func referenceKMB(g *graph.Graph, terminals []graph.NodeID) (*Tree, error) {
	seen := make(map[graph.NodeID]bool)
	var terms []graph.NodeID
	for _, t := range terminals {
		if !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	switch len(terms) {
	case 0:
		return &Tree{}, nil
	case 1:
		return &Tree{Nodes: []graph.NodeID{terms[0]}}, nil
	}
	trees := make([]*graph.ShortestPaths, len(terms))
	for i, t := range terms {
		trees[i] = graph.Dijkstra(g, t)
	}
	for _, t := range terms[1:] {
		if !trees[0].Reachable(t) {
			return nil, graph.ErrDisconnected
		}
	}

	t := len(terms)
	settled := make([]bool, t)
	minFrom := make([]int32, t)
	for i := range minFrom {
		minFrom[i] = -1
	}
	h := graph.NewIndexedHeap(t)
	h.Update(0, 0)
	edgeSet := make(map[graph.EdgeID]bool)
	nodeSet := make(map[graph.NodeID]bool)
	for _, tm := range terms {
		nodeSet[tm] = true
	}
	for h.Len() > 0 {
		best, _ := h.Pop()
		settled[best] = true
		if a := minFrom[best]; a >= 0 {
			for _, e := range trees[a].EdgesTo(terms[best]) {
				edgeSet[e] = true
			}
			for _, n := range trees[a].PathTo(terms[best]) {
				nodeSet[n] = true
			}
		}
		for i := int32(0); i < int32(t); i++ {
			if settled[i] {
				continue
			}
			if d := trees[best].Dist[terms[i]]; !h.Contains(i) || d < h.Key(i) {
				h.Update(i, d)
				minFrom[i] = best
			}
		}
	}

	return referenceAssemble(g, terms, nodeSet, edgeSet), nil
}

// referenceAssemble is the map-based expand → MST → prune → sort tail of
// referenceKMB over a collected node and edge set.
func referenceAssemble(g *graph.Graph, terms []graph.NodeID, nodeSet map[graph.NodeID]bool, edgeSet map[graph.EdgeID]bool) *Tree {
	var cand []graph.EdgeID
	for e := range edgeSet {
		cand = append(cand, e)
	}
	sort.Slice(cand, func(i, j int) bool {
		ci, cj := g.EdgeCost(cand[i]), g.EdgeCost(cand[j])
		if ci != cj {
			return ci < cj
		}
		return cand[i] < cand[j]
	})
	parent := make(map[graph.NodeID]graph.NodeID)
	find := func(x graph.NodeID) graph.NodeID {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	var edges []graph.EdgeID
	deg := make(map[graph.NodeID]int)
	incident := make(map[graph.NodeID][]graph.EdgeID)
	for _, id := range cand {
		e := g.Edge(id)
		if ru, rv := find(e.U), find(e.V); ru != rv {
			parent[rv] = ru
			edges = append(edges, id)
			deg[e.U]++
			deg[e.V]++
			incident[e.U] = append(incident[e.U], id)
			incident[e.V] = append(incident[e.V], id)
		}
	}

	isTerm := make(map[graph.NodeID]bool)
	for _, tm := range terms {
		isTerm[tm] = true
	}
	removedEdge := make(map[graph.EdgeID]bool)
	removedNode := make(map[graph.NodeID]bool)
	var queue []graph.NodeID
	for n := range nodeSet {
		if !isTerm[n] && deg[n] <= 1 {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if removedNode[n] || deg[n] > 1 {
			continue
		}
		removedNode[n] = true
		for _, id := range incident[n] {
			if removedEdge[id] {
				continue
			}
			removedEdge[id] = true
			other := g.Edge(id).Other(n)
			deg[other]--
			deg[n]--
			if !isTerm[other] && deg[other] <= 1 {
				queue = append(queue, other)
			}
		}
	}
	tree := &Tree{}
	for n := range nodeSet {
		if !removedNode[n] {
			tree.Nodes = append(tree.Nodes, n)
		}
	}
	for _, id := range edges {
		if !removedEdge[id] {
			tree.Edges = append(tree.Edges, id)
		}
	}
	sort.Slice(tree.Nodes, func(i, j int) bool { return tree.Nodes[i] < tree.Nodes[j] })
	sort.Slice(tree.Edges, func(i, j int) bool { return tree.Edges[i] < tree.Edges[j] })
	for _, e := range tree.Edges {
		tree.Cost += g.EdgeCost(e)
	}
	return tree
}

// tieGraph is a random connected graph whose edge costs are floored to
// integers in [0, maxEdge], so equal-cost ties are frequent and about one
// edge in maxEdge+1 costs zero.
func tieGraph(nodes int, maxEdge float64, seed int64) *graph.Graph {
	g := graph.RandomConnected(graph.RandomConfig{
		Nodes: nodes, ExtraEdges: 2 * nodes, VMFraction: 0.3, MaxEdge: maxEdge + 1, MaxSetup: 5,
	}, seed)
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		g.SetEdgeCost(id, math.Min(math.Floor(g.EdgeCost(id)), maxEdge))
	}
	return g
}

// sameTree fails the test unless got is bit-identical to want.
func sameTree(t *testing.T, ctx string, got, want *Tree) {
	t.Helper()
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("%s: cost %v != reference %v", ctx, got.Cost, want.Cost)
	}
	if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("%s: tree differs from reference\n got nodes %v edges %v\nwant nodes %v edges %v",
			ctx, got.Nodes, got.Edges, want.Nodes, want.Edges)
	}
}

// spread picks k terminals spread over g's nodes, repeating the first one
// so deduplication is exercised too.
func spread(g *graph.Graph, k int, seed int64) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]graph.NodeID, g.NumNodes())
	for i := range pool {
		pool[i] = graph.NodeID(i)
	}
	terms := graph.SampleDistinct(rng, pool, k)
	return append(terms, terms[0])
}

// TestKMBMatchesReferenceAssembly pins the dense-scratch assembly against
// the map-based reference on tie-heavy graphs with zero-cost edges: same
// nodes, edges and cost bit for bit, with and without a provider.
func TestKMBMatchesReferenceAssembly(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := tieGraph(90, 2, seed)
		for _, k := range []int{2, 5, 17} {
			terms := spread(g, k, seed)
			want, err := referenceKMB(g, terms)
			if err != nil {
				t.Fatalf("seed %d k=%d: reference: %v", seed, k, err)
			}
			for name, opts := range map[string]*KMBOptions{
				"self":     nil,
				"provider": {Provider: &memoProvider{g: g}},
			} {
				got, err := KMBWith(g, terms, opts)
				if err != nil {
					t.Fatalf("seed %d k=%d %s: %v", seed, k, name, err)
				}
				sameTree(t, fmt.Sprintf("seed %d k=%d %s", seed, k, name), got, want)
				if err := Verify(g, got, terms); err != nil {
					t.Fatalf("seed %d k=%d %s: %v", seed, k, name, err)
				}
			}
		}
	}
}

// TestSpanMatchesReferenceOnCyclicSubgraphs drives the MST and prune
// stage directly. KMB's path expansions are nearly always trees already,
// so Kruskal's tie-break rarely decides anything there; here the
// collected subgraph is a whole tie-heavy graph, full of equal-cost
// cycles and non-terminal leaves, collected in a shuffled order.
func TestSpanMatchesReferenceOnCyclicSubgraphs(t *testing.T) {
	sc := new(scratch)
	for seed := int64(0); seed < 30; seed++ {
		g := tieGraph(70, 2, seed)
		rng := rand.New(rand.NewSource(seed))
		for _, k := range []int{2, 5, 17} {
			terms := spread(g, k, seed+int64(k))
			sc.reset(g)
			terms = sc.addTerminals(terms)
			nodeSet := make(map[graph.NodeID]bool)
			edgeSet := make(map[graph.EdgeID]bool)
			for _, v := range rng.Perm(g.NumNodes()) {
				sc.addNode(graph.NodeID(v))
				nodeSet[graph.NodeID(v)] = true
			}
			for _, e := range rng.Perm(g.NumEdges()) {
				sc.addEdge(graph.EdgeID(e))
				edgeSet[graph.EdgeID(e)] = true
			}
			got := sc.span(g, len(terms))
			want := referenceAssemble(g, terms, nodeSet, edgeSet)
			sameTree(t, fmt.Sprintf("seed %d k=%d", seed, k), got, want)
			if err := Verify(g, got, terms); err != nil {
				t.Fatalf("seed %d k=%d: %v", seed, k, err)
			}
		}
	}
}

// TestScratchReuseAcrossGraphSizes runs one scratch over graphs that grow
// and then shrink: stale stamps and local indices from a larger graph must
// never leak into a later, smaller one.
func TestScratchReuseAcrossGraphSizes(t *testing.T) {
	sc := new(scratch)
	for i, n := range []int{12, 40, 150, 400, 150, 40, 12, 400} {
		g := tieGraph(n, 3, int64(100+i))
		for _, k := range []int{2, 5, 11} {
			terms := spread(g, k, int64(i*10+k))
			want, err := referenceKMB(g, terms)
			if err != nil {
				t.Fatal(err)
			}
			got, err := kmb(g, terms, nil, sc)
			if err != nil {
				t.Fatal(err)
			}
			sameTree(t, fmt.Sprintf("graph %d (n=%d) k=%d", i, n, k), got, want)
		}
	}
}

// TestScratchGenerationWrap forces the generation counter through its
// wrap: the stamps left at generation 1 by an earlier call must be cleared,
// or they would read as members of the first post-wrap collection.
func TestScratchGenerationWrap(t *testing.T) {
	sc := new(scratch)
	g := tieGraph(120, 2, 9)
	for i := 0; i < 4; i++ {
		terms := spread(g, 7, int64(i))
		if i == 2 {
			sc.gen = math.MaxUint32 // the next reset wraps to 0
		}
		want, err := referenceKMB(g, terms)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kmb(g, terms, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		sameTree(t, fmt.Sprintf("call %d (gen %d)", i, sc.gen), got, want)
	}
	if sc.gen != 2 {
		t.Fatalf("generation after wrap = %d, want 2", sc.gen)
	}
}

// TestKMBWithConcurrent runs KMBWith from 8 goroutines over shared graphs
// and a shared provider; every tree must match the reference. Under -race
// it also checks that pooled scratch is never shared between calls.
func TestKMBWithConcurrent(t *testing.T) {
	type instance struct {
		g     *graph.Graph
		p     *memoProvider
		terms []graph.NodeID
		want  *Tree
	}
	var insts []instance
	for seed := int64(0); seed < 6; seed++ {
		g := tieGraph(60+40*int(seed), 3, seed)
		for _, k := range []int{2, 5, 17} {
			terms := spread(g, k, seed+int64(k))
			want, err := referenceKMB(g, terms)
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, instance{g: g, p: &memoProvider{g: g}, terms: terms, want: want})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				in := insts[(w*7+r)%len(insts)]
				var opts *KMBOptions
				if r%2 == 1 {
					opts = &KMBOptions{Provider: in.p}
				}
				got, err := KMBWith(in.g, in.terms, opts)
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(got.Cost) != math.Float64bits(in.want.Cost) ||
					!slices.Equal(got.Nodes, in.want.Nodes) || !slices.Equal(got.Edges, in.want.Edges) {
					errs <- fmt.Errorf("worker %d round %d: tree differs from reference", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
