package graph

import (
	"math"
	"slices"
)

// Incremental tree repair (in the spirit of Ramalingam & Reps' dynamic
// SSSP): a tree that went stale because a few edges or nodes changed is
// re-derived only where it can differ from a fresh run, and the result is
// bit-identical to Dijkstra on the current graph — distances, parents and
// parent edges.
//
// The canonical tree. On a graph without zero-cost arcs, Dijkstra's parent
// for v is the neighbour u minimizing (Dist[u], u) among the achievers
// (Dist[u] + cost = Dist[v]), through u's first achieving arc in CSR order
// — the rule dijkstraDelta's tieBreak documents. Parallel arcs between two
// nodes sit in both adjacency lists in increasing edge-id order, so "first
// in CSR order" is "smallest edge id", and the rule becomes a total order
// on (Dist[u], u, edge) that any relaxation order reaches as a fixpoint.
//
// The region. A node whose old tree path crosses no changed element keeps
// a valid path of the old length, so it can only improve. The nodes that
// can get worse are exactly the subtrees under changed tree arcs and under
// changed nodes; those are reset to unreachable. They are found from the
// old tree alone, without any stored settle order: a node's children are
// the neighbours whose Parent names it.
//
// The re-derivation. A heap is seeded with every region node's best offer
// from the settled boundary, and with every changed arc that now improves
// (or ties into) its far end. Popping a node finalizes it and relaxes its
// arcs with the canonical commit rule, so improvements spread beyond the
// region exactly as far as they reach.

// repairRegionDiv bounds the work a repair may do: past 1/repairRegionDiv
// of the nodes — counting changed elements, or the region plus the nodes
// that improve — the heap re-derivation costs more than a full run, and
// Repair falls back. On Inet-10k (2 vCPUs) a 2000–2500-node region took
// 1.70 ms to repair against 1.74 ms for a full delta-stepping run, and a
// 100–300-node region 0.22 ms.
const repairRegionDiv = 4

// repairScratch is the repair half of an Arena. mark is stamped per run:
// mark[v] == stamp means v lies in the region, so no O(n) reset is
// needed between runs.
type repairScratch struct {
	mark   []uint64
	stamp  uint64
	region []int32
	// work is the last successful repair's region plus improved nodes.
	work int
}

func (rs *repairScratch) ensure(n int) {
	if len(rs.mark) < n {
		m := make([]uint64, n)
		copy(m, rs.mark)
		rs.mark = m
	}
}

// Repair returns the tree Dijkstra(g, old.Source) returns at g's current
// cost epoch, derived from old — a tree Dijkstra or Repair returned for g
// at epoch since — and the journal of what changed after since. old is
// never written: readers share cached trees, so a repair works on a copy,
// and when nothing shortest paths depend on changed (node setup costs
// only) it returns old itself.
//
// Repair returns nil, and the caller runs Dijkstra instead, when the
// journal no longer reaches back to since, when an unspecified change
// (BumpCostEpoch, RestoreAll, UnmaskAll) lies in the gap, when g has a
// zero-cost edge, when edges were added since old was computed, when the
// source was blocked at since and no longer is, or when the work would
// exceed the repairRegionDiv bound. A nil arena borrows one from the
// pool.
func Repair(g *Graph, old *ShortestPaths, since uint64, a *Arena) *ShortestPaths {
	n := g.NumNodes()
	if len(old.Dist) != n || old.edges != g.NumEdges() {
		return nil
	}
	recs, zero, ok := g.changesSince(since)
	if !ok {
		return nil
	}
	// Every changed element costs seeding work, so a gap longer than the
	// work bound falls back before doing any.
	limit := n / repairRegionDiv
	relevant := 0
	for _, c := range recs {
		switch c.kind {
		case changeAll:
			return nil
		case changeEdge, changeNode:
			if relevant++; relevant > limit {
				return nil
			}
		}
	}
	if relevant == 0 {
		return old
	}
	src := old.Source
	fs := g.block.blocked.Load()
	oldBlocked := math.IsInf(old.Dist[src], 1) // a blocked source reaches nothing, itself included
	if fs.NodeFailed(src) {
		if oldBlocked {
			return old
		}
		return unreachableTree(src, n, old.edges)
	}
	if oldBlocked || zero {
		return nil
	}
	if a == nil {
		a = arenaPool.Get().(*Arena)
		defer arenaPool.Put(a)
	}
	a.ensure(n)
	rs := &a.rep
	rs.ensure(n)
	rs.stamp++
	in := rs.stamp
	mark := rs.mark

	// Roots: children of changed tree arcs, and changed nodes. The region
	// is their subtrees: a node's tree children are the neighbours whose
	// Parent points back at it, so a search down the adjacency finds the
	// region touching nothing outside it.
	region := rs.region[:0]
	root := func(v NodeID) {
		if mark[v] != in {
			mark[v] = in
			region = append(region, int32(v))
		}
	}
	for _, c := range recs {
		switch c.kind {
		case changeEdge:
			e := g.edges[c.id]
			if old.ParentEdge[e.U] == EdgeID(c.id) {
				root(e.U)
			}
			if old.ParentEdge[e.V] == EdgeID(c.id) {
				root(e.V)
			}
		case changeNode:
			if v := NodeID(c.id); v != src {
				root(v)
			}
		}
	}
	c := g.csr()
	for i := 0; i < len(region) && len(region) <= limit; i++ {
		x := region[i]
		for j := c.row[x]; j < c.row[x+1]; j++ {
			if w := c.to[j]; old.Parent[w] == NodeID(x) && mark[w] != in {
				mark[w] = in
				region = append(region, w)
			}
		}
	}
	rs.region = region
	if len(region) > limit {
		return nil
	}

	sp := &ShortestPaths{
		Source:     src,
		Dist:       slices.Clone(old.Dist),
		Parent:     slices.Clone(old.Parent),
		ParentEdge: slices.Clone(old.ParentEdge),
		edges:      old.edges,
	}
	inf := math.Inf(1)
	for _, v := range region {
		sp.Dist[v], sp.Parent[v], sp.ParentEdge[v] = inf, None, NoEdge
	}
	usable := func(e, w int32) bool {
		return fs == nil || !(fs.EdgeFailed(EdgeID(e)) || fs.NodeFailed(NodeID(w)))
	}
	h := &a.h
	// Seed the region from its settled boundary.
	for _, v := range region {
		if fs.NodeFailed(NodeID(v)) {
			continue
		}
		for i := c.row[v]; i < c.row[v+1]; i++ {
			u, e := c.to[i], c.eid[i]
			if mark[u] == in || !usable(e, u) {
				continue
			}
			if du := sp.Dist[u]; du < inf {
				commit(sp, v, du+g.edges[e].Cost, u, e)
			}
		}
		if d := sp.Dist[v]; d < inf {
			h.Update(v, d)
		}
	}
	// Seed the changed arcs that may now improve, or tie into, their far
	// end. Region endpoints relax them when they pop.
	for _, rec := range recs {
		if rec.kind != changeEdge || (fs != nil && fs.EdgeFailed(EdgeID(rec.id))) {
			continue
		}
		e := g.edges[rec.id]
		for _, arc := range [2][2]NodeID{{e.U, e.V}, {e.V, e.U}} {
			x, y := int32(arc[0]), int32(arc[1])
			if mark[x] == in || fs.NodeFailed(arc[0]) || fs.NodeFailed(arc[1]) {
				continue
			}
			if dx := sp.Dist[x]; dx < inf && commit(sp, y, dx+e.Cost, x, rec.id) {
				h.Update(y, sp.Dist[y])
			}
		}
	}
	// Re-derive: pop in distance order, relax with the canonical rule.
	work := len(region)
	for h.Len() > 0 {
		v, dv := h.Pop()
		if mark[v] != in {
			if work++; work > limit {
				h.Reset()
				return nil
			}
		}
		for i := c.row[v]; i < c.row[v+1]; i++ {
			w, e := c.to[i], c.eid[i]
			if usable(e, w) && commit(sp, w, dv+g.edges[e].Cost, v, e) {
				h.Update(w, sp.Dist[w])
			}
		}
	}
	rs.work = work
	return sp
}

// commit offers w the distance nd through arc e from u. A strict
// improvement takes it and reports true; an exact tie replaces the
// recorded parent only when (Dist[u], u, e) is smaller than the recorded
// (Dist[p], p, ParentEdge[w]) — the canonical parent rule. The source
// (recorded parent None at a finite distance) keeps its parent.
func commit(sp *ShortestPaths, w int32, nd float64, u, e int32) bool {
	dw := sp.Dist[w]
	if nd < dw {
		sp.Dist[w], sp.Parent[w], sp.ParentEdge[w] = nd, NodeID(u), EdgeID(e)
		return true
	}
	if nd != dw || math.IsInf(dw, 1) {
		return false
	}
	p := sp.Parent[w]
	if p == None {
		return false
	}
	du, dp := sp.Dist[u], sp.Dist[p]
	if du < dp || (du == dp && (NodeID(u) < p || (NodeID(u) == p && EdgeID(e) < sp.ParentEdge[w]))) {
		sp.Parent[w], sp.ParentEdge[w] = NodeID(u), EdgeID(e)
	}
	return false
}

// unreachableTree is the tree of a blocked source: nothing is reachable,
// the source included.
func unreachableTree(src NodeID, n, edges int) *ShortestPaths {
	sp := &ShortestPaths{
		Source:     src,
		Dist:       make([]float64, n),
		Parent:     make([]NodeID, n),
		ParentEdge: make([]EdgeID, n),
		edges:      edges,
	}
	for i := range sp.Dist {
		sp.Dist[i], sp.Parent[i], sp.ParentEdge[i] = math.Inf(1), None, NoEdge
	}
	return sp
}
