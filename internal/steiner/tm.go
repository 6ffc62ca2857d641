package steiner

import (
	"container/heap"
	"math"

	"sof/internal/graph"
)

// TakahashiMatsuyama computes a Steiner tree with the shortest-path
// heuristic: grow the tree from the first terminal, repeatedly attaching
// the terminal closest to the current tree along its shortest path. Also a
// 2-approximation; kept alongside KMB for the ablation benchmarks:
// it trades a little quality on dense instances for far fewer Dijkstra
// runs on large sparse graphs.
func TakahashiMatsuyama(g *graph.Graph, terminals []graph.NodeID) (*Tree, error) {
	terminals = dedupeTerminals(terminals)
	switch len(terminals) {
	case 0:
		return &Tree{}, nil
	case 1:
		return &Tree{Nodes: []graph.NodeID{terminals[0]}}, nil
	}
	inTree := make(map[graph.NodeID]bool)
	edgeSet := make(map[graph.EdgeID]bool)
	inTree[terminals[0]] = true
	remaining := make(map[graph.NodeID]bool, len(terminals)-1)
	for _, t := range terminals[1:] {
		if !inTree[t] {
			remaining[t] = true
		}
	}
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]graph.NodeID, n)
	parentEdge := make([]graph.EdgeID, n)
	for len(remaining) > 0 {
		// Multi-source Dijkstra from the whole current tree.
		for i := range dist {
			dist[i] = math.Inf(1)
			parent[i] = graph.None
			parentEdge[i] = graph.NoEdge
		}
		q := &tmPQ{pos: make([]int32, n)}
		for i := range q.pos {
			q.pos[i] = -1
		}
		for v := range inTree {
			dist[v] = 0
			heap.Push(q, tmItem{node: v})
		}
		done := make([]bool, n)
		var hit graph.NodeID = graph.None
		for q.Len() > 0 {
			it := heap.Pop(q).(tmItem)
			u := it.node
			if done[u] {
				continue
			}
			done[u] = true
			if remaining[u] {
				hit = u
				break
			}
			for _, a := range g.Adj(u) {
				if done[a.To] {
					continue
				}
				nd := dist[u] + g.EdgeCost(a.Edge)
				if nd < dist[a.To] {
					dist[a.To] = nd
					parent[a.To] = u
					parentEdge[a.To] = a.Edge
					if q.pos[a.To] >= 0 {
						q.items[q.pos[a.To]].dist = nd
						heap.Fix(q, int(q.pos[a.To]))
					} else {
						heap.Push(q, tmItem{node: a.To, dist: nd})
					}
				}
			}
		}
		if hit == graph.None {
			return nil, graph.ErrDisconnected
		}
		for v := hit; parent[v] != graph.None; v = parent[v] {
			edgeSet[parentEdge[v]] = true
			inTree[v] = true
		}
		inTree[hit] = true
		delete(remaining, hit)
	}
	tree := treeFromEdges(g, edgeSet, terminals)
	prune(g, tree, terminals)
	normalize(tree)
	recost(g, tree)
	return tree, nil
}

type tmItem struct {
	node graph.NodeID
	dist float64
}

type tmPQ struct {
	items []tmItem
	pos   []int32
}

func (q *tmPQ) Len() int           { return len(q.items) }
func (q *tmPQ) Less(i, j int) bool { return q.items[i].dist < q.items[j].dist }
func (q *tmPQ) Push(x interface{}) {
	it := x.(tmItem)
	q.pos[it.node] = int32(len(q.items))
	q.items = append(q.items, it)
}
func (q *tmPQ) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.pos[q.items[i].node] = int32(i)
	q.pos[q.items[j].node] = int32(j)
}
func (q *tmPQ) Pop() interface{} {
	it := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	q.pos[it.node] = -1
	return it
}
