package main

import (
	"fmt"
	"time"

	"sof"
)

// The workloads. README.md gives each one's rationale, the layers it
// stresses and bypasses, and the measured share of arrivals that hit each
// mechanism.
var workloads = map[string]*workload{
	// The paper's per-arrival re-pricing on a graph below the bucket and
	// delta-stepping thresholds: every Reprice makes the cached trees cold.
	"classic": {
		instances: 16, warmup: 100, window: 200, block: 200,
		build: func(seed int64) (instance, error) {
			return newSession(&sessionSpec{
				nodes: 300, dcs: 30, vms: 30, algo: sof.AlgorithmSOFDA,
				src: [2]int{2, 4}, dst: [2]int{4, 8}, chainLen: 2,
				linkCap: 30, vmCap: 3, demand: 5, ttl: [2]int{30, 90},
				repriceEvery: 1,
			}, seed)
		},
		assert: func(nodes int, w *tally) []string {
			var bad []string
			if n := nodes; n >= 8192 {
				bad = append(bad, fmt.Sprintf("classic: %d nodes, want fewer than 8192", n))
			}
			if w.reprices != w.accepted {
				bad = append(bad, fmt.Sprintf("classic: %d reprices for %d accepts", w.reprices, w.accepted))
			}
			if w.accepted == w.attempted {
				bad = append(bad, "classic: every arrival was accepted; capacity never bound")
			}
			return bad
		},
	},
	// The million-user direction: warm caches, Steiner-bound, no capacity
	// pressure.
	"scaled": {
		instances: 12, warmup: 300, window: 256, block: 256,
		build: func(seed int64) (instance, error) {
			return newSession(scaledSpec(), seed)
		},
		assert: func(nodes int, w *tally) []string {
			var bad []string
			if n := nodes; n < 8192 {
				bad = append(bad, fmt.Sprintf("scaled: %d nodes, want at least 8192", n))
			}
			if w.accepted != w.attempted {
				bad = append(bad, fmt.Sprintf("scaled: %d of %d arrivals accepted, want all", w.accepted, w.attempted))
			}
			if p := pct(float64(w.missEmbeds), float64(w.attempted)); p > 10 {
				bad = append(bad, fmt.Sprintf("scaled: %.1f%% of embeds missed the tree cache, want at most 10%%", p))
			}
			return bad
		},
	},
	// Writes beside reads at scale: binding capacity, adaptive admission,
	// link failures with repair, and restores.
	"churn": {
		instances: 6, warmup: 200, window: 400, block: 200,
		build: func(seed int64) (instance, error) {
			spec := scaledSpec()
			spec.linkCap, spec.vmCap = 300, 60
			spec.admitMu, spec.admitBudget = 16, 4
			spec.failEvery, spec.restoreAfter = 50, 25
			return newSession(spec, seed)
		},
		assert: func(nodes int, w *tally) []string {
			var bad []string
			if w.rejAdmission == 0 || w.rejInfeasible == 0 || w.repairs == 0 {
				bad = append(bad, fmt.Sprintf("churn: %d admission rejects, %d mask rejects, %d repairs; want all nonzero",
					w.rejAdmission, w.rejInfeasible, w.repairs))
			}
			return bad
		},
	},
	// The multi-domain leader over real loopback connections.
	"leader": {
		instances: 16, warmup: 50, window: 100, block: 100,
		build: func(seed int64) (instance, error) {
			return newLeader(&leaderSpec{vms: 30, domains: 2, src: [2]int{2, 4}, dst: [2]int{4, 8}, chainLen: 3}, seed)
		},
		assert: func(nodes int, w *tally) []string {
			if w.pruned == 0 || w.overlapNS <= 0 {
				return []string{fmt.Sprintf("leader: %d pruned candidates, %d ns overlap; want both nonzero", w.pruned, w.overlapNS)}
			}
			return nil
		},
	},
}

func scaledSpec() *sessionSpec {
	return &sessionSpec{
		nodes: 10000, dcs: 1000, vms: 30, algo: sof.AlgorithmSOFDASS,
		src: [2]int{1, 1}, dst: [2]int{3, 6}, chainLen: 2, accessPool: 64,
		linkCap: 2000, vmCap: 200, demand: 5, ttl: [2]int{30, 90},
		repriceEvery: 512,
	}
}

// perLayer lists the traced run's metrics.
var perLayer = []metricDef{
	{"sof.advance_us_per_arrival", "us"},
	{"sof.live_leases_mean", "count"},
	{"sof.reprice_ms_per_call", "ms"},
	{"sof.reprice_share_pct", "%"},
	{"sof.reject_infeasible_pct", "%"},
	{"sof.reject_capacity_pct", "%"},
	{"sof.reject_admission_pct", "%"},
	{"sof.repairs", "count"},
	{"sof.repair_ms_p50", "ms"},
	{"sof.repair_ms_tail", "ms"},
	{"sof.repair_fastpath_pct", "%"},
	{"sof.reembeds_per_repair", "count"},
	{"chain.dijkstras_per_arrival", "count"},
	{"chain.tree_hit_pct", "%"},
	{"chain.kstrolls_per_arrival", "count"},
	{"chain.chain_hit_pct", "%"},
	{"chain.miss_embed_pct", "%"},
	{"chain.miss_embed_p50_ms", "ms"},
	{"chain.hit_embed_p50_ms", "ms"},
	{"graph.ms_per_dijkstra", "ms"},
	{"steiner.ms_per_arrival", "ms"},
	{"gc.cpu_pct", "%"},
	{"gc.cycles_per_1k_arrivals", "count"},
	{"dist.frags_per_embed", "count"},
	{"dist.pruned_per_embed", "count"},
	{"dist.overlap_ms_per_embed", "ms"},
	{"rpc.bytes_per_embed", "B"},
	{"rpc.conns", "count"},
	{"trace_overhead_pct", "%"},
}

func init() {
	for _, l := range cpuLayers {
		perLayer = append(perLayer, metricDef{"cpu." + l + "_pct", "%"})
	}
	for _, l := range cpuLayers {
		perLayer = append(perLayer, metricDef{"alloc." + l + "_pct", "%"})
	}
}

// layerMetrics derives the per-layer metrics of the traced arrivals b,
// whose profiles p summed.
func layerMetrics(b *recorder, p *profileSums) map[string]float64 {
	t := &b.tally
	n := float64(t.attempted)
	var missed, hit []time.Duration
	for i, d := range b.embeds {
		if b.embedMiss[i] {
			missed = append(missed, d)
		} else {
			hit = append(hit, d)
		}
	}
	m := map[string]float64{
		"sof.advance_us_per_arrival":  meanMS(b.advances) * 1e3,
		"sof.live_leases_mean":        float64(t.liveSum) / n,
		"sof.reprice_ms_per_call":     meanMS(b.reprices),
		"sof.reprice_share_pct":       pct(float64(sumDur(b.reprices)), float64(sumDur(b.steps))),
		"sof.reject_infeasible_pct":   pct(float64(t.rejInfeasible), n),
		"sof.reject_capacity_pct":     pct(float64(t.rejCapacity), n),
		"sof.reject_admission_pct":    pct(float64(t.rejAdmission), n),
		"sof.repairs":                 float64(t.repairs),
		"sof.repair_ms_p50":           quantileMS(b.repairs, 0.5),
		"sof.repair_ms_tail":          quantileMS(b.repairs, 0.9),
		"sof.repair_fastpath_pct":     pct(float64(t.fastPath), float64(t.reattached)),
		"chain.dijkstras_per_arrival": float64(t.misses) / n,
		"chain.tree_hit_pct":          pct(float64(t.hits), float64(t.hits+t.misses)),
		"chain.kstrolls_per_arrival":  float64(t.chainMisses) / n,
		"chain.chain_hit_pct":         pct(float64(t.chainHits), float64(t.chainHits+t.chainMisses)),
		"chain.miss_embed_pct":        pct(float64(len(missed)), float64(len(b.embeds))),
		"chain.miss_embed_p50_ms":     quantileMS(missed, 0.5),
		"chain.hit_embed_p50_ms":      quantileMS(hit, 0.5),
		"steiner.ms_per_arrival":      p.cpuNS["steiner"] / 1e6 / n,
		"gc.cpu_pct":                  pct(p.gc[1], p.gc[2]-p.gc[3]),
		"gc.cycles_per_1k_arrivals":   1000 * p.gc[0] / n,
		"dist.frags_per_embed":        float64(t.frags) / n,
		"dist.pruned_per_embed":       float64(t.pruned) / n,
		"dist.overlap_ms_per_embed":   float64(t.overlapNS) / 1e6 / n,
		"rpc.bytes_per_embed":         float64(t.rpcBytes) / n,
		"rpc.conns":                   p.conns / float64(p.parts),
	}
	if t.repairs > 0 {
		m["sof.reembeds_per_repair"] = float64(t.reembeds) / float64(t.repairs)
	}
	if t.misses > 0 {
		m["graph.ms_per_dijkstra"] = p.cpuNS["graph"] / 1e6 / float64(t.misses)
	}
	var cpuTotal, allocTotal float64
	for _, l := range cpuLayers {
		cpuTotal += p.cpuNS[l]
		allocTotal += p.allocB[l]
	}
	for _, l := range cpuLayers {
		m["cpu."+l+"_pct"] = pct(p.cpuNS[l], cpuTotal)
		m["alloc."+l+"_pct"] = pct(p.allocB[l], allocTotal)
	}
	return m
}
