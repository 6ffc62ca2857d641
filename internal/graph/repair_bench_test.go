package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sof/internal/graph"
	"sof/internal/topology"
)

// BenchmarkTreeRepair races Repair against a full run (delta-stepping on
// this size) on the Inet-10k topology the scaled and churn workloads use:
// each round computes fresh trees from 16 sources, masks k random links,
// and rebuilds the 16 trees. It reports ms per tree, the repaired region
// (reset subtrees plus improved nodes) per tree, and the share of
// repairs that fell back to a full run. Informational, not gated.
func BenchmarkTreeRepair(b *testing.B) {
	net, err := topology.Inet(10000, 20000, 1000, topology.Config{NumVMs: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := net.G
	rng := rand.New(rand.NewSource(7))
	srcs := make([]graph.NodeID, 16)
	for i, p := range rng.Perm(len(net.Access))[:len(srcs)] {
		srcs[i] = net.Access[p]
	}
	for _, k := range []int{1, 8, 64} {
		for _, mode := range []string{"repair", "full"} {
			b.Run(fmt.Sprintf("%s/k%d", mode, k), func(b *testing.B) {
				a := graph.NewArena()
				masked := make([]graph.EdgeID, 0, k)
				region, fallbacks := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for _, e := range masked {
						g.UnmaskEdge(e)
					}
					masked = masked[:0]
					base := graph.DijkstraBatch(g, srcs, a)
					since := g.CostEpoch()
					for len(masked) < k {
						e := graph.EdgeID(rng.Intn(g.NumEdges()))
						if g.MaskEdge(e) {
							masked = append(masked, e)
						}
					}
					b.StartTimer()
					for _, old := range base {
						if mode == "full" {
							graph.Dijkstra(g, old.Source)
							continue
						}
						if graph.Repair(g, old, since, a) == nil {
							fallbacks++
							graph.Dijkstra(g, old.Source)
						} else {
							region += graph.RepairWork(a)
						}
					}
				}
				runs := float64(b.N * len(srcs))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/runs/1e6, "ms/run")
				if mode == "repair" {
					b.ReportMetric(float64(region)/(runs-float64(fallbacks)), "region-nodes/run")
					b.ReportMetric(100*float64(fallbacks)/runs, "fallback-%")
				}
			})
		}
	}
}
