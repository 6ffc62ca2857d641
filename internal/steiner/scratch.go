package steiner

import (
	"cmp"
	"slices"
	"sync"

	"sof/internal/graph"
)

// scratch is the reusable dense state of a Steiner assembly: the subgraph
// being collected (nodes and edges of the expanded closure, a TM tree, or a
// Dreyfus–Wagner reconstruction) and the Kruskal and prune passes that turn
// it into a Tree. Membership is generation-stamped over node and edge IDs,
// so one scratch is ready for the next graph without an O(n) reset; the
// MST and prune run over local indices 0..k-1 of the k collected nodes.
//
// A scratch is not safe for concurrent use; every call takes its own from
// scratchPool.
type scratch struct {
	gen       uint32
	nodeStamp []uint32 // nodeStamp[v] == gen: v is collected
	local     []int32  // local[v]: v's index in nodes, valid under the stamp
	edgeStamp []uint32 // edgeStamp[e] == gen: e is collected

	// nodes maps local index → node, in first-seen order; the deduplicated
	// terminals always take the first local indices.
	nodes []graph.NodeID
	// edges are the collected edges in first-seen order.
	edges []graph.EdgeID

	// Prim over the metric closure, indexed by terminal position.
	heap    graph.IndexedHeap
	settled []bool
	minFrom []int32

	// Kruskal and prune, indexed by local node or MST edge position.
	byCost []costEdge
	uf     []int32
	mst    []mstEdge
	deg    []int32
	first  []int32 // the MST edges at local u are inc[first[u]:first[u+1]]
	inc    []int32
	gone   []bool // gone[u]: local node u was pruned
	cut    []bool // cut[j]: MST edge j was pruned
	stack  []int32
}

type costEdge struct {
	cost float64
	id   graph.EdgeID
}

type mstEdge struct {
	u, v int32
	id   graph.EdgeID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset starts a new collection over g: the stamps grow to g's size and the
// generation advances, clearing both stamp arrays when it wraps.
func (sc *scratch) reset(g *graph.Graph) {
	if n := g.NumNodes(); len(sc.nodeStamp) < n {
		sc.nodeStamp = make([]uint32, n)
		sc.local = make([]int32, n)
	}
	if m := g.NumEdges(); len(sc.edgeStamp) < m {
		sc.edgeStamp = make([]uint32, m)
	}
	sc.gen++
	if sc.gen == 0 {
		clear(sc.nodeStamp)
		clear(sc.edgeStamp)
		sc.gen = 1
	}
	sc.nodes = sc.nodes[:0]
	sc.edges = sc.edges[:0]
}

// addNode collects v and returns its local index.
func (sc *scratch) addNode(v graph.NodeID) int32 {
	if sc.nodeStamp[v] == sc.gen {
		return sc.local[v]
	}
	l := int32(len(sc.nodes))
	sc.nodeStamp[v] = sc.gen
	sc.local[v] = l
	sc.nodes = append(sc.nodes, v)
	return l
}

// lookup returns v's local index, or -1 when v is not collected.
func (sc *scratch) lookup(v graph.NodeID) int32 {
	if sc.nodeStamp[v] != sc.gen {
		return -1
	}
	return sc.local[v]
}

// addEdge collects e once.
func (sc *scratch) addEdge(e graph.EdgeID) {
	if sc.edgeStamp[e] != sc.gen {
		sc.edgeStamp[e] = sc.gen
		sc.edges = append(sc.edges, e)
	}
}

// addTerminals collects the terminals of a fresh reset and returns them
// deduplicated in first-seen order; terminal i gets local index i. The
// result is capacity-capped, so later collection never writes into it.
func (sc *scratch) addTerminals(terminals []graph.NodeID) []graph.NodeID {
	for _, t := range terminals {
		sc.addNode(t)
	}
	return sc.nodes[:len(sc.nodes):len(sc.nodes)]
}

// addPath collects the tree path from sp's source to v: every node on it
// and every edge, walking the parent pointers up from v.
func (sc *scratch) addPath(sp *graph.ShortestPaths, v graph.NodeID) {
	for ; v != graph.None; v = sp.Parent[v] {
		sc.addNode(v)
		if sp.Parent[v] != graph.None {
			sc.addEdge(sp.ParentEdge[v])
		}
	}
}

// span reduces the collected (connected) subgraph to a tree: Kruskal's MST
// over the (cost, edge ID) total order, so equal-cost ties never depend on
// collection order, then repeated removal of non-terminal leaves, where the
// terminals are local indices below t. The result is emitted as a Tree.
func (sc *scratch) span(g *graph.Graph, t int) *Tree {
	k := len(sc.nodes)
	byCost := sc.byCost[:0]
	for _, id := range sc.edges {
		byCost = append(byCost, costEdge{cost: g.EdgeCost(id), id: id})
	}
	slices.SortFunc(byCost, func(a, b costEdge) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	sc.byCost = byCost

	uf := resize(sc.uf, k)
	for i := range uf {
		uf[i] = int32(i)
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	mst := sc.mst[:0]
	for _, ce := range byCost {
		e := g.Edge(ce.id)
		u, v := sc.local[e.U], sc.local[e.V]
		if ru, rv := find(u), find(v); ru != rv {
			uf[rv] = ru
			mst = append(mst, mstEdge{u: u, v: v, id: ce.id})
		}
	}
	sc.uf, sc.mst = uf, mst

	// Incidence lists of the MST in CSR form.
	deg := resize(sc.deg, k)
	clear(deg)
	for _, e := range mst {
		deg[e.u]++
		deg[e.v]++
	}
	first := resize(sc.first, k+1)
	first[0] = 0
	for u := 0; u < k; u++ {
		first[u+1] = first[u] + deg[u]
	}
	inc := resize(sc.inc, 2*len(mst))
	fill := resize(sc.stack, k)
	copy(fill, first[:k])
	for j, e := range mst {
		inc[fill[e.u]] = int32(j)
		fill[e.u]++
		inc[fill[e.v]] = int32(j)
		fill[e.v]++
	}
	sc.deg, sc.first, sc.inc = deg, first, inc

	// Prune: the fixpoint of removing non-terminal leaves is unique, so
	// the stack order does not matter.
	gone := resize(sc.gone, k)
	clear(gone)
	cut := resize(sc.cut, len(mst))
	clear(cut)
	stack := fill[:0]
	for u := t; u < k; u++ {
		if deg[u] <= 1 {
			stack = append(stack, int32(u))
		}
	}
	keptNodes, keptEdges := k, len(mst)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if gone[u] || deg[u] > 1 {
			continue
		}
		gone[u] = true
		keptNodes--
		for _, j := range inc[first[u]:first[u+1]] {
			if cut[j] {
				continue
			}
			cut[j] = true
			keptEdges--
			other := mst[j].u
			if other == u {
				other = mst[j].v
			}
			deg[u]--
			deg[other]--
			if int(other) >= t && deg[other] <= 1 {
				stack = append(stack, other)
			}
		}
	}
	sc.gone, sc.cut, sc.stack = gone, cut, stack

	tree := &Tree{
		Nodes: make([]graph.NodeID, 0, keptNodes),
		Edges: make([]graph.EdgeID, 0, keptEdges),
	}
	for u, v := range sc.nodes {
		if !gone[u] {
			tree.Nodes = append(tree.Nodes, v)
		}
	}
	for j, e := range mst {
		if !cut[j] {
			tree.Edges = append(tree.Edges, e.id)
		}
	}
	finish(g, tree)
	return tree
}

// collect emits every collected node and edge as a Tree, unchanged.
func (sc *scratch) collect(g *graph.Graph) *Tree {
	tree := &Tree{Nodes: slices.Clone(sc.nodes), Edges: slices.Clone(sc.edges)}
	finish(g, tree)
	return tree
}

// finish puts a tree's nodes and edges in ascending order and sums its
// cost over the edges in that order.
func finish(g *graph.Graph, t *Tree) {
	slices.Sort(t.Nodes)
	slices.Sort(t.Edges)
	for _, e := range t.Edges {
		t.Cost += g.EdgeCost(e)
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
