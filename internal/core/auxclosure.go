package core

import (
	"math"

	"sof/internal/graph"
)

// closureSlack is the relative margin by which a destination's G distance
// must undercut every route through ŝ before its G tree stands in for its
// Ĝ tree. It lies far above the rounding two differently ordered sums of
// the same costs can differ by (about n·2⁻⁵³ of the total) and far below
// any real cost gap, so it only ever turns a float near-tie into a rerun.
const closureSlack = 1e-9

// auxClosure is the steiner.PathProvider of the Steiner phase over Ĝ: the
// shortest-path tree on Ĝ of ŝ and of every destination. ŝ's tree H is one
// Dijkstra on Ĝ. A destination d's tree is derived from T_d, d's tree on G
// that the session oracle already holds, whenever that is provably the
// tree Dijkstra on Ĝ would settle; otherwise it is one Dijkstra on Ĝ.
//
// The derivation: Ĝ's real nodes ([0, ŝ)) keep T_d's labels, and its
// virtual nodes (ŝ and the duplicates, ids ŝ and up) are labelled by a
// Dijkstra over the virtual nodes only. Each virtual node with a real
// neighbour r (a VM duplicate û–u, or for chainLen 0 a source duplicate
// v̂–s) is seeded by r's settle at T_d's label. The pass yields M_d, d's Ĝ
// distance to ŝ. Every route that leaves G and comes back passes a source
// duplicate, which sits at zero cost from ŝ, so the cheapest such route
// from d to a real node x costs exactly M_d + H.Dist[x]. When every real
// x has T_d.Dist[x] < M_d + H.Dist[x] (or both are +Inf), no relaxation
// through a virtual node ever reaches a real node first, and Ĝ's labels
// and parents on the real nodes are exactly T_d's. The check is not
// implied by positive VM setup costs: ŝ joins the chains of different
// sources at zero cost, so a route d⇝u→û→v̂ₛ→ŝ→v̂ₛ′→û′→u′⇝x can undercut
// G between parts of the network that the cheap chains bridge. With
// chainLen 0 ŝ reaches every source at zero cost, so every destination
// that reaches a source fails the check.
//
// The virtual pass settles exactly the Ĝ run's labels. Under the check,
// a seeded node's seed is strictly its best label: any route to it
// through another virtual node costs at least M_d + H.Dist[r] > T_d.Dist[r].
// So whether a real node settles before or after a virtual one never
// decides a tie, and the seeds can enter the pass up front. Among the
// virtual nodes the pass keeps Ĝ's rules: the heap's (key, id) order (the
// pass indexes virtual nodes by id) and relaxation in Ĝ's arc order with
// strict improvement.
type auxClosure struct {
	trees map[graph.NodeID]*graph.ShortestPaths
	// reruns counts the destinations that failed the check and took a
	// Dijkstra on Ĝ.
	reruns int
}

// Tree returns the Ĝ tree of a terminal (ŝ or a destination).
func (c *auxClosure) Tree(n graph.NodeID) *graph.ShortestPaths { return c.trees[n] }

// newAuxClosure builds every terminal tree of the Steiner phase over aux:
// one Dijkstra on Ĝ for ŝ, one derived tree per distinct destination that
// passes the check, and one batched Dijkstra on Ĝ for the rest. destTrees
// holds each destination's tree on the real network, whose nodes are
// exactly Ĝ's nodes below ŝ; a destination without one is rerun. The
// derived trees are carved from one backing array per field.
func newAuxClosure(aux *auxGraph, dests []graph.NodeID, destTrees map[graph.NodeID]*graph.ShortestPaths) *auxClosure {
	g, base := aux.g, aux.sHat
	h := graph.Dijkstra(g, base)
	c := &auxClosure{trees: make(map[graph.NodeID]*graph.ShortestPaths, len(dests)+1)}
	c.trees[base] = h

	p := newVirtualPass(g, base)
	nv := len(p.seedFrom)
	uniq := make([]graph.NodeID, 0, len(dests))
	for _, d := range dests {
		if _, ok := c.trees[d]; !ok {
			c.trees[d] = nil
			uniq = append(uniq, d)
		}
	}
	// Phase 1: label the virtual nodes for each destination and check it.
	// The labels of passing destinations are kept, one row each.
	vDist := make([]float64, len(uniq)*nv)
	vParent := make([]graph.NodeID, len(uniq)*nv)
	vEdge := make([]graph.EdgeID, len(uniq)*nv)
	var pass, rerun []graph.NodeID
	for _, d := range uniq {
		t := destTrees[d]
		if t != nil {
			row := len(pass) * nv
			p.run(t, vDist[row:row+nv], vParent[row:row+nv], vEdge[row:row+nv])
			if undercutsHub(t, h, vDist[row]) {
				pass = append(pass, d)
				continue
			}
		}
		rerun = append(rerun, d)
	}
	// Phase 2: carve the derived trees.
	total := g.NumNodes()
	sps := make([]graph.ShortestPaths, len(pass))
	dist := make([]float64, len(pass)*total)
	parent := make([]graph.NodeID, len(pass)*total)
	pedge := make([]graph.EdgeID, len(pass)*total)
	for i, d := range pass {
		lo, hi := i*total, (i+1)*total
		sp := &sps[i]
		sp.Source = d
		sp.Dist, sp.Parent, sp.ParentEdge = dist[lo:hi:hi], parent[lo:hi:hi], pedge[lo:hi:hi]
		t := destTrees[d]
		copy(sp.Dist, t.Dist)
		copy(sp.Parent, t.Parent)
		copy(sp.ParentEdge, t.ParentEdge)
		row := i * nv
		copy(sp.Dist[base:], vDist[row:row+nv])
		copy(sp.Parent[base:], vParent[row:row+nv])
		copy(sp.ParentEdge[base:], vEdge[row:row+nv])
		c.trees[d] = sp
	}
	// Phase 3: the rest run on Ĝ itself.
	if len(rerun) > 0 {
		for i, sp := range graph.DijkstraBatch(g, rerun, nil) {
			c.trees[rerun[i]] = sp
		}
		c.reruns = len(rerun)
	}
	return c
}

// undercutsHub is the check of auxClosure: every real node's G distance
// from the destination is strictly below its cheapest route through ŝ,
// m + h.Dist[x] (by closureSlack), or both are +Inf.
func undercutsHub(t, h *graph.ShortestPaths, m float64) bool {
	if math.IsInf(m, 1) {
		return true
	}
	for x, td := range t.Dist {
		via := m + h.Dist[x]
		if !math.IsInf(via, 1) && !(td < via*(1-closureSlack)) {
			return false
		}
	}
	return true
}

// virtualPass is the reusable state of the virtual-node Dijkstra. Ĝ's
// virtual nodes are indexed 0..nv-1 by id, ŝ first.
type virtualPass struct {
	g    *graph.Graph
	base graph.NodeID
	// seedFrom[z] is virtual node z's real neighbour (None without one)
	// and seedEdge[z] the structural edge to it.
	seedFrom []graph.NodeID
	seedEdge []graph.EdgeID
	heap     graph.IndexedHeap
	done     []bool
}

func newVirtualPass(g *graph.Graph, base graph.NodeID) *virtualPass {
	nv := g.NumNodes() - int(base)
	p := &virtualPass{
		g:        g,
		base:     base,
		seedFrom: make([]graph.NodeID, nv),
		seedEdge: make([]graph.EdgeID, nv),
		done:     make([]bool, nv),
	}
	for z := range p.seedFrom {
		p.seedFrom[z], p.seedEdge[z] = graph.None, graph.NoEdge
		for _, a := range g.Adj(base + graph.NodeID(z)) {
			if a.To < base {
				p.seedFrom[z], p.seedEdge[z] = a.To, a.Edge
			}
		}
	}
	p.heap.Grow(nv)
	return p
}

// run labels the virtual nodes from destination tree t into dist, parent
// and pedge (each of length nv, indexed like the pass).
func (p *virtualPass) run(t *graph.ShortestPaths, dist []float64, parent []graph.NodeID, pedge []graph.EdgeID) {
	clear(p.done)
	h := &p.heap
	for z, r := range p.seedFrom {
		dist[z], parent[z], pedge[z] = math.Inf(1), graph.None, graph.NoEdge
		if r != graph.None && !math.IsInf(t.Dist[r], 1) {
			dist[z], parent[z], pedge[z] = t.Dist[r]+p.g.EdgeCost(p.seedEdge[z]), r, p.seedEdge[z]
			h.Update(int32(z), dist[z])
		}
	}
	for h.Len() > 0 {
		z, k := h.Pop()
		p.done[z] = true
		from := p.base + graph.NodeID(z)
		for _, a := range p.g.Adj(from) {
			if a.To < p.base {
				continue
			}
			v := int32(a.To - p.base)
			if nd := k + p.g.EdgeCost(a.Edge); !p.done[v] && nd < dist[v] {
				dist[v], parent[v], pedge[v] = nd, from, a.Edge
				h.Update(v, nd)
			}
		}
	}
}
