// Package detorder is the fixture for the detorder pass: map-range loops
// feeding ordered output are flagged; value aggregation and the
// collect-then-sort repair are not.
package detorder

import (
	"container/heap"
	"sort"
)

func badAppend(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // want "append to .out. inside map iteration"
	}
	return out
}

func collectThenSort(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func badWinner(m map[int][]int) int {
	best := -1
	for k, list := range m {
		if len(list) > 1 {
			best = k // want "map key .k. assigned to outer variable .best."
		}
	}
	return best
}

func badSend(m map[int]string, ch chan string) {
	for _, v := range m {
		ch <- v // want "send on .ch. inside map iteration"
	}
}

func badClosure(m map[int]string) []string {
	var out []string
	add := func(s string) {
		out = append(out, s)
	}
	for _, v := range m {
		add(v) // want "call to .add. inside map iteration appends"
	}
	return out
}

// valueAggregation is order-independent: sums and maxima of the values do
// not depend on iteration order.
func valueAggregation(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

// innerSlice appends to a slice declared inside the loop — each iteration
// gets a fresh one, so order cannot leak out.
func innerSlice(m map[int][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		for _, v := range vs {
			local = append(local, v)
		}
		n += len(local)
	}
	return n
}

// sliceRange is not a map range at all.
func sliceRange(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

type item struct {
	node int
	dist float64
}

type pq []item

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(item)) }
func (q *pq) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// badHeapSeed is the multi-source Dijkstra seeding shape: every tree node
// enters the heap at distance 0, so the pop order among them — and the
// tie-breaks of the whole search — follows map order.
func badHeapSeed(inTree map[int]bool) int {
	q := &pq{}
	for v := range inTree {
		heap.Push(q, item{node: v}) // want "heap.Push onto .q. inside map iteration"
	}
	return heap.Pop(q).(item).node
}

// sortedHeapSeed is the repair: push from the sorted keys.
func sortedHeapSeed(inTree map[int]bool) int {
	var nodes []int
	for v := range inTree {
		nodes = append(nodes, v)
	}
	sort.Ints(nodes)
	q := &pq{}
	for _, v := range nodes {
		heap.Push(q, item{node: v})
	}
	return heap.Pop(q).(item).node
}

// innerHeap pushes onto a heap that lives and dies within one iteration.
func innerHeap(m map[int][]float64) float64 {
	total := 0.0
	for _, ds := range m {
		q := &pq{}
		for _, d := range ds {
			heap.Push(q, item{dist: d})
		}
		if q.Len() > 0 {
			total += heap.Pop(q).(item).dist
		}
	}
	return total
}
