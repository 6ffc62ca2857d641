package graph

import (
	"math"
	"sync"
)

// ShortestPaths holds the single-source shortest-path tree computed by
// Dijkstra. Distances are in total edge connection cost; node costs are not
// included (the chain package layers setup costs on top).
type ShortestPaths struct {
	Source NodeID
	// Dist[v] is the cost of the shortest path Source→v, +Inf if
	// unreachable.
	Dist []float64
	// Parent[v] is the predecessor of v on the shortest path, None for the
	// source and unreachable nodes.
	Parent []NodeID
	// ParentEdge[v] is the edge used to reach v from Parent[v].
	ParentEdge []EdgeID
	// edges is the graph's edge count when the tree was computed. Adding
	// edges does not advance the cost epoch, so Repair checks it to refuse
	// a tree of an earlier topology.
	edges int
}

// Reachable reports whether t is reachable from the source.
func (sp *ShortestPaths) Reachable(t NodeID) bool {
	return !math.IsInf(sp.Dist[t], 1)
}

// PathTo returns the node sequence Source…t inclusive, or nil if t is
// unreachable.
func (sp *ShortestPaths) PathTo(t NodeID) []NodeID {
	if !sp.Reachable(t) {
		return nil
	}
	var rev []NodeID
	for v := t; v != None; v = sp.Parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// EdgesTo returns the edge sequence of the shortest path Source…t, or nil if
// t is unreachable. The result has len(PathTo(t))-1 entries.
func (sp *ShortestPaths) EdgesTo(t NodeID) []EdgeID {
	if !sp.Reachable(t) {
		return nil
	}
	var rev []EdgeID
	for v := t; sp.Parent[v] != None; v = sp.Parent[v] {
		rev = append(rev, sp.ParentEdge[v])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Arena is the reusable scratch state of the SSSP core: the indexed heap
// (whose position index self-restores on drain), the delta-stepping
// scratch for large graphs, the tree-repair marks, and a
// generation-stamped settled marker, so one arena is ready for the next
// run without any O(n) reset. Batch callers that fan many runs out (the
// chain oracle's tree warming, KMB's closure phase) hold one Arena across
// the whole batch instead of a pool round-trip per source. The result
// arrays are NOT part of the arena — callers (the chain oracle in
// particular) retain ShortestPaths indefinitely.
//
// An Arena is not safe for concurrent use; concurrent runs take separate
// arenas (or pass nil and share the pool).
type Arena struct {
	h    IndexedHeap
	done []uint64
	gen  uint64
	ds   deltaScratch
	rep  repairScratch
}

// NewArena returns an empty arena. Passing nil to DijkstraBatch borrows
// one from an internal pool instead, so an explicit arena is only worth
// holding across several batches.
func NewArena() *Arena { return new(Arena) }

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

func (a *Arena) ensure(n int) {
	a.h.Grow(n)
	if len(a.done) < n {
		done := make([]uint64, n)
		copy(done, a.done)
		a.done = done
	}
}

// deltaMinNodes is the graph size from which runs use delta-stepping:
// below it the indexed heap's constants win, at and above it the
// delta-stepping calendar drains whole buckets where the heap pays
// O(log n) sift work per settle. Both settle bit-identical trees, so the
// gate tunes speed only.
const deltaMinNodes = 8192

// pick selects the SSSP variant for runs over g: the arc partition to run
// delta-stepping on, or nil for the indexed heap. Delta-stepping needs
// deltaMinNodes nodes and a usable bucket width; a graph whose edge costs
// are all zero, or include +Inf, has none and keeps the heap.
func pick(g *Graph) *deltaLayout {
	if g.NumNodes() < deltaMinNodes {
		return nil
	}
	return usableLayout(g)
}

// usableLayout returns g's current arc partition when it has a usable
// bucket width, nil otherwise.
func usableLayout(g *Graph) *deltaLayout {
	if lay := g.deltaLayoutFor(); lay.delta > 0 {
		return lay
	}
	return nil
}

// Dijkstra computes shortest paths from src over edge connection costs.
// The traversal runs on the graph's flat CSR adjacency with a pooled
// arena, so a run allocates only its result arrays. Ties are settled
// toward the smaller node id, making the returned tree (not just the
// distances) deterministic — with either variant pick selects.
func Dijkstra(g *Graph, src NodeID) *ShortestPaths {
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	n := g.NumNodes()
	sp := &ShortestPaths{
		Source:     src,
		Dist:       make([]float64, n),
		Parent:     make([]NodeID, n),
		ParentEdge: make([]EdgeID, n),
		edges:      g.NumEdges(),
	}
	a.ensure(n)
	if lay := pick(g); lay != nil {
		dijkstraDelta(g, lay, a, sp)
	} else {
		dijkstraHeap(g, g.csr(), a, sp)
	}
	return sp
}

// DijkstraBatch runs Dijkstra from every source through one shared arena
// and one CSR fetch, with the per-source result arrays carved from three
// batch-wide backing allocations — a batch of k sources costs 4 slice
// allocations instead of 4k. Results are returned in source order;
// duplicate sources share one tree (the same *ShortestPaths pointer). A
// nil arena borrows one from the internal pool for the whole batch.
func DijkstraBatch(g *Graph, sources []NodeID, a *Arena) []*ShortestPaths {
	return dijkstraBatchWith(g, sources, a, pick(g))
}

// dijkstraBatchWith is DijkstraBatch with the variant fixed by the
// caller: delta-stepping over lay, or the indexed heap when lay is nil.
// Tests pass their own lay to drive either variant on any graph size.
func dijkstraBatchWith(g *Graph, sources []NodeID, a *Arena, lay *deltaLayout) []*ShortestPaths {
	if len(sources) == 0 {
		return nil
	}
	if a == nil {
		a = arenaPool.Get().(*Arena)
		defer arenaPool.Put(a)
	}
	n := g.NumNodes()
	c := g.csr()
	a.ensure(n)

	out := make([]*ShortestPaths, len(sources))
	firstIdx := make(map[NodeID]int, len(sources))
	uniq := make([]NodeID, 0, len(sources))
	for _, s := range sources {
		if _, ok := firstIdx[s]; !ok {
			firstIdx[s] = len(uniq)
			uniq = append(uniq, s)
		}
	}
	k := len(uniq)
	sps := make([]ShortestPaths, k)
	dist := make([]float64, k*n)
	parent := make([]NodeID, k*n)
	pedge := make([]EdgeID, k*n)
	for i, s := range uniq {
		sp := &sps[i]
		sp.Source, sp.edges = s, g.NumEdges()
		sp.Dist = dist[i*n : (i+1)*n : (i+1)*n]
		sp.Parent = parent[i*n : (i+1)*n : (i+1)*n]
		sp.ParentEdge = pedge[i*n : (i+1)*n : (i+1)*n]
		if lay != nil {
			dijkstraDelta(g, lay, a, sp)
		} else {
			dijkstraHeap(g, c, a, sp)
		}
	}
	for i, s := range sources {
		out[i] = &sps[firstIdx[s]]
	}
	return out
}

// dijkstraHeap is the indexed-heap SSSP core: it fills sp (whose Source
// and result arrays the caller prepared) in place. Blocked elements
// (failed or capacity-masked) are skipped: no relaxation crosses a
// blocked edge or enters a blocked node, and a blocked source yields an
// all-unreachable tree (its own distance included — a dead node reaches
// nothing, not even itself).
func dijkstraHeap(g *Graph, c *csrLayout, a *Arena, sp *ShortestPaths) {
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.Parent[i] = None
		sp.ParentEdge[i] = NoEdge
	}
	fs := g.block.blocked.Load()
	if fs.NodeFailed(sp.Source) {
		return
	}
	sp.Dist[sp.Source] = 0
	a.gen++
	gen, done := a.gen, a.done
	h := &a.h
	h.Update(int32(sp.Source), 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		done[u] = gen
		for i := c.row[u]; i < c.row[u+1]; i++ {
			v := c.to[i]
			if done[v] == gen {
				continue
			}
			if fs != nil && (fs.EdgeFailed(EdgeID(c.eid[i])) || fs.NodeFailed(NodeID(v))) {
				continue
			}
			nd := du + g.edges[c.eid[i]].Cost
			if nd < sp.Dist[v] {
				sp.Dist[v] = nd
				sp.Parent[v] = NodeID(u)
				sp.ParentEdge[v] = EdgeID(c.eid[i])
				h.Update(v, nd)
			}
		}
	}
}

// DijkstraAll runs Dijkstra from every node in sources and returns the
// trees in source order, computed through one batched arena pass;
// duplicate sources share one tree. The embedding hot paths pull their
// trees from the chain oracle's epoch-keyed cache instead; this uncached
// form remains for one-shot callers and as the plain reference in tests.
func DijkstraAll(g *Graph, sources []NodeID) []*ShortestPaths {
	return DijkstraBatch(g, sources, nil)
}

// BellmanFord computes single-source shortest paths by relaxation. It exists
// as an independent oracle for property-testing Dijkstra; it is O(V·E).
func BellmanFord(g *Graph, src NodeID) *ShortestPaths {
	n := g.NumNodes()
	sp := &ShortestPaths{
		Source:     src,
		Dist:       make([]float64, n),
		Parent:     make([]NodeID, n),
		ParentEdge: make([]EdgeID, n),
	}
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.Parent[i] = None
		sp.ParentEdge[i] = NoEdge
	}
	fs := g.block.blocked.Load()
	if fs.NodeFailed(src) {
		return sp
	}
	sp.Dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for id := 0; id < g.NumEdges(); id++ {
			e := g.Edge(EdgeID(id))
			if fs != nil && (fs.EdgeFailed(EdgeID(id)) || fs.NodeFailed(e.U) || fs.NodeFailed(e.V)) {
				continue
			}
			if sp.Dist[e.U]+e.Cost < sp.Dist[e.V] {
				sp.Dist[e.V] = sp.Dist[e.U] + e.Cost
				sp.Parent[e.V] = e.U
				sp.ParentEdge[e.V] = EdgeID(id)
				changed = true
			}
			if sp.Dist[e.V]+e.Cost < sp.Dist[e.U] {
				sp.Dist[e.U] = sp.Dist[e.V] + e.Cost
				sp.Parent[e.U] = e.V
				sp.ParentEdge[e.U] = EdgeID(id)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sp
}
