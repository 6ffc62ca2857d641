// Package steiner provides Steiner tree solvers over the graph substrate:
// the classic Kou–Markowsky–Berman (KMB) 2-approximation used as the ρST
// building block of SOFDA, and the Dreyfus–Wagner exact dynamic program used
// for small instances and as a test oracle.
//
// The paper invokes the LP-based 1.39-approximation of Byrka et al. [20] as
// a black box; KMB is the standard practical stand-in (see README
// "Algorithms").
// All algorithms in this repository share the same solver, so comparative
// results are unaffected by the substitution.
package steiner

import (
	"fmt"
	"math"
	"slices"

	"sof/internal/graph"
)

// Rho is the approximation ratio of the Steiner solver used throughout the
// repository (ρST in the paper). KMB guarantees 2·(1−1/t) < 2.
const Rho = 2.0

// Tree is a Steiner tree in the original graph.
type Tree struct {
	// Nodes are the tree's vertices (terminals plus Steiner points),
	// in ascending order.
	Nodes []graph.NodeID
	// Edges are the tree's edge IDs in the original graph.
	Edges []graph.EdgeID
	// Cost is the total edge connection cost of the tree.
	Cost float64
}

// Contains reports whether n is a vertex of the tree.
func (t *Tree) Contains(n graph.NodeID) bool {
	_, ok := slices.BinarySearch(t.Nodes, n)
	return ok
}

// PathProvider supplies single-source shortest-path trees over the graph
// a Steiner instance runs on. chain.Oracle satisfies it, which lets every
// KMB call over the real network reuse the session's epoch-keyed Dijkstra
// cache instead of recomputing a private metric closure.
type PathProvider interface {
	// Tree returns the shortest-path tree rooted at n. The result must be
	// valid for the graph passed alongside the provider.
	Tree(n graph.NodeID) *graph.ShortestPaths
}

// KMBOptions tune KMBWith. The zero value (or a nil pointer) reproduces
// the self-contained KMB.
type KMBOptions struct {
	// Provider answers the per-terminal shortest-path queries of the
	// metric-closure phase, one terminal at a time in terminal order.
	// When nil, KMB runs its own batched Dijkstra over every terminal.
	Provider PathProvider
}

// KMB computes a Steiner tree spanning terminals with the
// Kou–Markowsky–Berman algorithm: metric closure over terminals → MST of the
// closure → expansion into shortest paths → MST of the expansion → prune
// non-terminal leaves. Returns an error if the terminals are not mutually
// reachable.
func KMB(g *graph.Graph, terminals []graph.NodeID) (*Tree, error) {
	return KMBWith(g, terminals, nil)
}

// KMBWith is KMB with an injectable shortest-path provider. The computed
// tree is identical to KMB's for any provider that answers with the trees
// Dijkstra settles: the closure MST breaks ties deterministically and the
// expansion depends only on the trees.
func KMBWith(g *graph.Graph, terminals []graph.NodeID, opts *KMBOptions) (*Tree, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return kmb(g, terminals, opts, sc)
}

// kmb is KMBWith over a caller-held scratch.
func kmb(g *graph.Graph, terminals []graph.NodeID, opts *KMBOptions, sc *scratch) (*Tree, error) {
	sc.reset(g)
	terminals = sc.addTerminals(terminals)
	switch len(terminals) {
	case 0:
		return &Tree{}, nil
	case 1:
		return &Tree{Nodes: []graph.NodeID{terminals[0]}}, nil
	}
	trees := closureTrees(g, terminals, opts)
	for i := 1; i < len(terminals); i++ {
		if math.IsInf(trees[0].Dist[terminals[i]], 1) {
			return nil, fmt.Errorf("steiner: terminal %d unreachable from %d: %w",
				terminals[i], terminals[0], graph.ErrDisconnected)
		}
	}

	// Prim's MST on the dense closure, selecting through the indexed heap
	// (ties go to the smallest terminal index). Each closure edge is
	// expanded into its shortest path as it is chosen; the expansion is a
	// set, so its order does not reach the tree.
	t := len(terminals)
	settled := resize(sc.settled, t)
	clear(settled)
	minFrom := resize(sc.minFrom, t)
	for i := range minFrom {
		minFrom[i] = -1
	}
	sc.settled, sc.minFrom = settled, minFrom
	h := &sc.heap
	h.Grow(t)
	h.Update(0, 0)
	for h.Len() > 0 {
		best, _ := h.Pop()
		settled[best] = true
		if a := minFrom[best]; a >= 0 {
			sc.addPath(trees[a], terminals[best])
		}
		dist := trees[best].Dist
		for i := int32(0); i < int32(t); i++ {
			if settled[i] {
				continue
			}
			if d := dist[terminals[i]]; !h.Contains(i) || d < h.Key(i) {
				h.Update(i, d)
				minFrom[i] = best
			}
		}
	}

	// MST of the expansion subgraph, then prune.
	return sc.span(g, t), nil
}

// closureTrees resolves the shortest-path tree of every terminal, through
// the provider when one is injected (hitting its cache) and by one batched
// Dijkstra pass (a shared arena and CSR fetch) otherwise. Results are
// positionally aligned with terminals.
func closureTrees(g *graph.Graph, terminals []graph.NodeID, opts *KMBOptions) []*graph.ShortestPaths {
	if opts == nil || opts.Provider == nil {
		return graph.DijkstraBatch(g, terminals, nil)
	}
	trees := make([]*graph.ShortestPaths, len(terminals))
	for i, t := range terminals {
		trees[i] = opts.Provider.Tree(t)
	}
	return trees
}

// Verify checks that tree is a valid Steiner tree for terminals in g: it is
// connected, acyclic, spans all terminals, and its recorded cost matches its
// edges.
func Verify(g *graph.Graph, tree *Tree, terminals []graph.NodeID) error {
	if len(terminals) == 0 {
		return nil
	}
	inTree := make([]bool, g.NumNodes())
	for _, n := range tree.Nodes {
		if !g.Valid(n) {
			return fmt.Errorf("steiner: node %d not in the graph", n)
		}
		inTree[n] = true
	}
	for _, t := range terminals {
		if !g.Valid(t) || !inTree[t] {
			return fmt.Errorf("steiner: terminal %d not spanned", t)
		}
	}
	if len(tree.Edges) != len(tree.Nodes)-1 {
		return fmt.Errorf("steiner: %d edges for %d nodes (not a tree)", len(tree.Edges), len(tree.Nodes))
	}
	uf := graph.NewUnionFind(g.NumNodes())
	var cost float64
	for _, id := range tree.Edges {
		e := g.Edge(id)
		if !inTree[e.U] || !inTree[e.V] {
			return fmt.Errorf("steiner: edge %d leaves the node set", id)
		}
		if !uf.Union(int(e.U), int(e.V)) {
			return fmt.Errorf("steiner: edge %d closes a cycle", id)
		}
		cost += e.Cost
	}
	for _, t := range terminals[1:] {
		if !uf.Same(int(terminals[0]), int(t)) {
			return fmt.Errorf("steiner: terminals %d and %d disconnected in tree", terminals[0], t)
		}
	}
	if math.Abs(cost-tree.Cost) > 1e-6 {
		return fmt.Errorf("steiner: recorded cost %v != edge sum %v", tree.Cost, cost)
	}
	return nil
}
