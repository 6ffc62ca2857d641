package dist

import (
	"context"
	"testing"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/graph"
	"sof/internal/kstroll"
)

// TestLeaderOracleStaysWarm repeats one embedding on a cluster: the first
// run builds the leader's trees on the cluster's oracle, and the second
// finds every one of them there and builds none.
func TestLeaderOracleStaysWarm(t *testing.T) {
	for _, eager := range []bool{false, true} {
		net, req, opts := softLayerInstance(5)
		cluster := NewClusterWith(net.G, 3, Config{EagerClosure: eager})
		first, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
		if err != nil {
			t.Fatal(err)
		}
		warm := cluster.oracle.Stats()
		if warm.Misses == 0 {
			t.Fatalf("eager=%v: the first embedding built no tree on the cluster's oracle", eager)
		}
		second, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
		cluster.Close()
		if err != nil {
			t.Fatal(err)
		}
		again := cluster.oracle.Stats()
		if again.Misses != warm.Misses {
			t.Errorf("eager=%v: the repeated embedding built %d trees, want 0", eager, again.Misses-warm.Misses)
		}
		if again.Hits <= warm.Hits {
			t.Errorf("eager=%v: the repeated embedding never read the cluster's oracle", eager)
		}
		if second.TotalCost() != first.TotalCost() {
			t.Errorf("eager=%v: repeated cost %v != first %v", eager, second.TotalCost(), first.TotalCost())
		}
	}
}

// TestLeaderOracleFollowsGraphChanges changes a link cost and then fails
// a link of the shared graph between embeddings on one warm cluster: each
// time the next leader forest costs exactly what centralized SOFDA costs
// on a fresh oracle.
func TestLeaderOracleFollowsGraphChanges(t *testing.T) {
	moved := false
	for _, seed := range []int64{2, 9, 31} {
		net, req, opts := softLayerInstance(seed)
		cluster := NewCluster(net.G, 3, chain.Options{})
		f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
		if err != nil {
			t.Fatal(err)
		}
		before := f.TotalCost()
		// The cheapest link of a destination where both ends have another
		// link: raising it moves that destination's tree, failing it (on
		// the next such destination) reroutes it without cutting anything
		// off.
		changes := []func(e graph.EdgeID){
			func(e graph.EdgeID) { net.G.SetEdgeCost(e, 20*net.G.EdgeCost(e)+7) },
			func(e graph.EdgeID) { net.G.FailEdge(e) },
		}
		var links []graph.EdgeID
		for _, d := range req.Dests {
			if net.G.Degree(d) < 2 {
				continue
			}
			e := graph.NoEdge
			for _, a := range net.G.Adj(d) {
				if net.G.Degree(a.To) >= 2 && (e == graph.NoEdge || net.G.EdgeCost(a.Edge) < net.G.EdgeCost(e)) {
					e = a.Edge
				}
			}
			if e != graph.NoEdge {
				links = append(links, e)
			}
		}
		for i, change := range changes {
			if len(links) == 0 {
				break
			}
			change(links[i%len(links)])
			central, cerr := core.SOFDACtx(context.Background(), net.G, req, opts)
			f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
			if cerr != nil || err != nil {
				t.Fatalf("seed %d change %d: centralized error %v, leader error %v", seed, i, cerr, err)
			}
			if f.TotalCost() != central.TotalCost() {
				t.Errorf("seed %d change %d: leader cost %v != centralized %v", seed, i, f.TotalCost(), central.TotalCost())
			}
			moved = moved || f.TotalCost() != before
		}
		cluster.Close()
	}
	if !moved {
		t.Fatal("no graph change moved a forest's cost; the test exercises nothing")
	}
}

// TestLeaderPrivateOracleForOtherChain embeds with chain options other
// than the cluster's (an equivalent but distinct solver): the leader must
// not touch the cluster's oracle, and the forest still costs what
// centralized SOFDA costs under those options.
func TestLeaderPrivateOracleForOtherChain(t *testing.T) {
	net, req, opts := softLayerInstance(11)
	other := *opts
	other.Chain = chain.Options{Solver: kstroll.Auto()}
	central, err := core.SOFDACtx(context.Background(), net.G, req, &other)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(net.G, 3, chain.Options{})
	defer cluster.Close()
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: &other})
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("leader cost %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
	if s := cluster.oracle.Stats(); s != (chain.CacheStats{}) {
		t.Errorf("the cluster's oracle served an embedding with other chain options: %+v", s)
	}
}
