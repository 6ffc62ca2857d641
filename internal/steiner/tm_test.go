package steiner

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sof/internal/graph"
)

func TestTMTrivial(t *testing.T) {
	g := gridGraph(3, 3)
	tr, err := TakahashiMatsuyama(g, nil)
	if err != nil || len(tr.Nodes) != 0 {
		t.Fatalf("empty: %v %+v", err, tr)
	}
	tr, err = TakahashiMatsuyama(g, []graph.NodeID{4})
	if err != nil || len(tr.Nodes) != 1 || tr.Cost != 0 {
		t.Fatalf("single: %v %+v", err, tr)
	}
}

func TestTMPath(t *testing.T) {
	g := gridGraph(1, 6)
	terms := []graph.NodeID{0, 5}
	tr, err := TakahashiMatsuyama(g, terms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Cost-5) > 1e-9 {
		t.Fatalf("cost = %v, want 5", tr.Cost)
	}
	if err := Verify(g, tr, terms); err != nil {
		t.Fatal(err)
	}
}

func TestTMWithinRhoOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for seed := int64(0); seed < 20; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 22, ExtraEdges: 30, VMFraction: 0.3, MaxEdge: 9, MaxSetup: 4,
		}, seed)
		pool := make([]graph.NodeID, g.NumNodes())
		for i := range pool {
			pool[i] = graph.NodeID(i)
		}
		terms := graph.SampleDistinct(rng, pool, 2+rng.Intn(4))
		tm, err := TakahashiMatsuyama(g, terms)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Verify(g, tm, terms); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ex, err := Exact(g, terms)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if tm.Cost < ex.Cost-1e-9 || tm.Cost > 2*ex.Cost+1e-9 {
			t.Fatalf("seed %d: TM %v vs exact %v outside [1,2]x", seed, tm.Cost, ex.Cost)
		}
	}
}

func TestTMDisconnected(t *testing.T) {
	g := gridGraph(1, 3)
	extra := g.AddSwitch("island")
	if _, err := TakahashiMatsuyama(g, []graph.NodeID{0, extra}); err == nil {
		t.Fatal("disconnected accepted")
	}
}

// TestTMDeterministic pins TM's tie-breaking: on a unit grid, where
// equal-distance ties are everywhere, repeated calls must return the same
// tree. Seeding the multi-source heap in map order made nearly every call
// differ.
func TestTMDeterministic(t *testing.T) {
	g := gridGraph(8, 8)
	terms := []graph.NodeID{0, 7, 56, 63, 27, 36, 14, 49}
	first, err := TakahashiMatsuyama(g, terms)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, first, terms); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		tr, err := TakahashiMatsuyama(g, terms)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Cost != first.Cost || !slices.Equal(tr.Nodes, first.Nodes) || !slices.Equal(tr.Edges, first.Edges) {
			t.Fatalf("call %d: tree differs from call 0 (cost %v vs %v)", i, tr.Cost, first.Cost)
		}
	}
}
