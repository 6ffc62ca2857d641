package steiner

import (
	"container/heap"
	"math"
	"slices"

	"sof/internal/graph"
)

// TakahashiMatsuyama computes a Steiner tree with the shortest-path
// heuristic: grow the tree from the first terminal, repeatedly attaching
// the terminal closest to the current tree along its shortest path. Also a
// 2-approximation; kept alongside KMB for the ablation benchmarks:
// it trades a little quality on dense instances for far fewer Dijkstra
// runs on large sparse graphs.
func TakahashiMatsuyama(g *graph.Graph, terminals []graph.NodeID) (*Tree, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.reset(g)
	terminals = sc.addTerminals(terminals)
	t := len(terminals)
	switch t {
	case 0:
		return &Tree{}, nil
	case 1:
		return &Tree{Nodes: []graph.NodeID{terminals[0]}}, nil
	}
	// The tree's nodes are collected in sc (terminals at local indices
	// below t, whether attached yet or not) and listed in treeNodes, which
	// seeds each round's heap in ascending node order so equal-distance
	// ties resolve the same way on every call.
	joined := make([]bool, t)
	joined[0] = true
	left := t - 1
	treeNodes := []graph.NodeID{terminals[0]}
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]graph.NodeID, n)
	parentEdge := make([]graph.EdgeID, n)
	for left > 0 {
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
		slices.Sort(treeNodes)
		for _, v := range treeNodes {
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
			if l := sc.lookup(u); l >= 0 && int(l) < t && !joined[l] {
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
		// The path's nodes below its tree root are all new to the tree
		// (tree nodes are zero-distance sources); terminals on it join.
		for v := hit; parent[v] != graph.None; v = parent[v] {
			sc.addEdge(parentEdge[v])
			if l := sc.addNode(v); int(l) < t && !joined[l] {
				joined[l] = true
				left--
			}
			treeNodes = append(treeNodes, v)
		}
	}
	return sc.span(g, t), nil
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
