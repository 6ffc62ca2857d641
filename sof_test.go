package sof

import (
	"context"
	"math"
	"runtime"
	"testing"
)

func buildLine(t *testing.T) (*Network, NodeID, NodeID) {
	t.Helper()
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	v1 := b.AddVM("v1", 2)
	v2 := b.AddVM("v2", 3)
	d := b.AddSwitch("d")
	b.Link(s, v1, 1)
	b.Link(v1, v2, 1)
	b.Link(v2, d, 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, s, d
}

func TestPublicAPIQuickstart(t *testing.T) {
	net, s, d := buildLine(t)
	for _, algo := range []Algorithm{AlgorithmSOFDA, AlgorithmSOFDASS, AlgorithmENEMP, AlgorithmEST, AlgorithmST, AlgorithmExact} {
		f, err := net.Embed(Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		switch algo {
		case AlgorithmSOFDA, AlgorithmSOFDASS, AlgorithmExact:
			if math.Abs(f.TotalCost()-8) > 1e-9 {
				t.Errorf("%s cost = %v, want 8", algo, f.TotalCost())
			}
		default:
			// Baselines keep their source-rooted tree branch and may pay
			// more, but never less than the optimum.
			if f.TotalCost() < 8-1e-9 {
				t.Errorf("%s cost = %v, below the optimum 8", algo, f.TotalCost())
			}
		}
		if f.Trees() != 1 || len(f.UsedVMs()) != 2 {
			t.Errorf("%s: trees=%d vms=%d", algo, f.Trees(), len(f.UsedVMs()))
		}
	}
}

func TestPublicAPIEmbedContext(t *testing.T) {
	net, s, d := buildLine(t)
	req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}

	seq, err := net.Embed(req, AlgorithmSOFDA)
	if err != nil {
		t.Fatal(err)
	}
	par, err := net.EmbedContext(context.Background(), req, AlgorithmSOFDA,
		&EmbedOptions{Parallelism: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	if par.TotalCost() != seq.TotalCost() {
		t.Errorf("parallel embed cost %v != sequential %v", par.TotalCost(), seq.TotalCost())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{AlgorithmSOFDA, AlgorithmSOFDASS, AlgorithmENEMP, AlgorithmEST, AlgorithmST, AlgorithmExact} {
		if _, err := net.EmbedContext(ctx, req, algo, nil); err == nil {
			t.Errorf("%s: cancelled context accepted", algo)
		}
	}
}

func TestPublicAPIErrors(t *testing.T) {
	net, s, d := buildLine(t)
	if _, err := net.Embed(Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}, "nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := net.Embed(Request{Sources: []NodeID{s, d}, Destinations: []NodeID{d}, ChainLength: 1}, AlgorithmSOFDASS); err == nil {
		t.Error("SOFDA-SS with two sources accepted")
	}
	b := NewNetworkBuilder()
	a := b.AddSwitch("a")
	b.Link(a, a, 1)
	if _, err := b.Build(); err == nil {
		t.Error("self-loop accepted by builder")
	}
}

// TestSetCostRejectsInvalid: the public cost setters refuse NaN, negative
// costs and unknown ids, leaving the cost and the session caches' epoch
// untouched.
func TestSetCostRejectsInvalid(t *testing.T) {
	net, _, _ := buildLine(t)
	g := net.Graph()
	epoch := g.CostEpoch()
	link, vm := EdgeID(0), g.VMs()[0]
	linkCost, vmCost := g.EdgeCost(link), g.NodeCost(vm)
	for _, bad := range []float64{math.NaN(), -7} {
		if err := net.SetLinkCost(link, bad); err == nil {
			t.Errorf("SetLinkCost(%v) accepted", bad)
		}
		if err := net.SetVMCost(vm, bad); err == nil {
			t.Errorf("SetVMCost(%v) accepted", bad)
		}
	}
	if err := net.SetLinkCost(EdgeID(g.NumEdges()), 1); err == nil {
		t.Error("SetLinkCost on an unknown link accepted")
	}
	if err := net.SetVMCost(NodeID(g.NumNodes()), 1); err == nil {
		t.Error("SetVMCost on an unknown node accepted")
	}
	if g.CostEpoch() != epoch || g.EdgeCost(link) != linkCost || g.NodeCost(vm) != vmCost {
		t.Fatal("rejected writes changed the network")
	}
	if err := net.SetLinkCost(link, 4); err != nil || g.CostEpoch() != epoch+1 {
		t.Fatalf("valid write: err %v, epoch %d→%d", err, epoch, g.CostEpoch())
	}
}

func TestPublicAPIDynamics(t *testing.T) {
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	v1 := b.AddVM("v1", 1)
	v2 := b.AddVM("v2", 1)
	v3 := b.AddVM("v3", 1)
	mid := b.AddSwitch("mid")
	d1 := b.AddSwitch("d1")
	d2 := b.AddSwitch("d2")
	b.Link(s, v1, 1)
	b.Link(v1, v2, 1)
	b.Link(v2, mid, 1)
	b.Link(mid, d1, 1)
	b.Link(mid, d2, 1)
	b.Link(v1, v3, 1)
	b.Link(v3, mid, 2)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := net.Embed(Request{Sources: []NodeID{s}, Destinations: []NodeID{d1}, ChainLength: 2}, AlgorithmSOFDA)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := f.Join(d2)
	if err != nil {
		t.Fatal(err)
	}
	if delta <= 0 {
		t.Errorf("join delta = %v", delta)
	}
	if _, err := f.Leave(d1); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(f.Destinations()); got != 1 {
		t.Fatalf("destinations = %d, want 1", got)
	}
}
