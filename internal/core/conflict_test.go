package core

import (
	"context"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
)

// hubNet is a star: every node hangs off one hub switch by a unit-cost
// link, so any walk can be spelled by hand hop by hop through the hub and
// the resolver's own shortest-path bridges always exist.
type hubNet struct {
	g     *graph.Graph
	hub   graph.NodeID
	spoke map[graph.NodeID]graph.EdgeID // node → its link to the hub
}

func newHubNet() *hubNet {
	h := &hubNet{g: graph.New(16, 16), spoke: make(map[graph.NodeID]graph.EdgeID)}
	h.hub = h.g.AddSwitch("hub")
	return h
}

func (h *hubNet) add(n graph.NodeID) graph.NodeID {
	h.spoke[n] = h.g.MustAddEdge(n, h.hub, 1)
	return n
}

func (h *hubNet) sw(name string) graph.NodeID { return h.add(h.g.AddSwitch(name)) }

func (h *hubNet) vm(name string, setup float64) graph.NodeID { return h.add(h.g.AddVM(name, setup)) }

// walk spells the candidate chain src → hub → vms[0] → hub → vms[1] …,
// running f_{i+1} at vms[i].
func (h *hubNet) walk(src graph.NodeID, vms ...graph.NodeID) *chain.ServiceChain {
	sc := &chain.ServiceChain{Source: src, LastVM: vms[len(vms)-1], VMs: vms, Nodes: []graph.NodeID{src}}
	prev := src
	for _, v := range vms {
		sc.Nodes = append(sc.Nodes, h.hub, v)
		sc.Edges = append(sc.Edges, h.spoke[prev], h.spoke[v])
		sc.VMPos = append(sc.VMPos, len(sc.Nodes)-1)
		prev = v
	}
	return sc
}

// resolve adds the walks in order through one resolver, serves dests[i]
// from walk i's final clone (through the hub), prunes, and validates the
// forest. It returns the forest, the resolver, and each walk's final clone.
func (h *hubNet) resolve(t *testing.T, chainLen int, walks []*chain.ServiceChain, dests []graph.NodeID) (*Forest, *resolver, []CloneID) {
	t.Helper()
	f := NewForest(h.g, chainLen)
	r := newResolver(f, chain.NewOracle(h.g, chain.Options{}), h.g.VMs())
	lasts := make([]CloneID, len(walks))
	sources := make([]graph.NodeID, len(walks))
	for i, sc := range walks {
		last, err := r.AddWalk(sc)
		if err != nil {
			t.Fatalf("walk %d (%d→%v): %v", i, sc.Source, sc.VMs, err)
		}
		lasts[i] = last
		sources[i] = sc.Source
	}
	for i, d := range dests {
		via := f.appendClone(lasts[i], h.hub, h.spoke[f.clones[lasts[i]].Node])
		f.MarkDestination(d, f.appendClone(via, d, h.spoke[d]))
	}
	f.Prune()
	if err := f.Validate(sources, dests); err != nil {
		t.Fatalf("resolved forest infeasible: %v", err)
	}
	return f, r, lasts
}

// walkVMs returns the VMs hosting a resolved walk's VNFs, in chain order.
func walkVMs(f *Forest, w *walkInfo) []graph.NodeID {
	out := make([]graph.NodeID, len(w.vnfClones))
	for i, c := range w.vnfClones {
		out[i] = f.Clone(c).Node
	}
	return out
}

// TestResolverCase3Reroot forces Procedure 4's third case: W1 = s1→[m,y]
// owns m with f1, then W2 = s2→[x,m] plans f2 at m with no other W1 VM
// to adopt. W1 is re-rooted onto W2's prefix: m switches to f2, y turns
// pass-through, and both destinations receive f1 at x then f2 at m.
func TestResolverCase3Reroot(t *testing.T) {
	h := newHubNet()
	s1, s2 := h.sw("s1"), h.sw("s2")
	m, y, x := h.vm("m", 1), h.vm("y", 1), h.vm("x", 1)
	d1, d2 := h.sw("d1"), h.sw("d2")

	f, r, _ := h.resolve(t, 2, []*chain.ServiceChain{h.walk(s1, m, y), h.walk(s2, x, m)}, []graph.NodeID{d1, d2})

	if got := [3]int{f.VNFOf(x), f.VNFOf(m), f.VNFOf(y)}; got != [3]int{1, 2, 0} {
		t.Errorf("VNFs at (x, m, y) = %v, want [1 2 0]", got)
	}
	if r.walks[0].source != s2 {
		t.Errorf("W1 rooted at %d after surgery, want W2's source %d", r.walks[0].source, s2)
	}
	for i, w := range r.walks {
		if got := walkVMs(f, w); len(got) != 2 || got[0] != x || got[1] != m {
			t.Errorf("walk %d VNFs at %v, want [x m] = [%d %d]", i, got, x, m)
		}
	}
}

// TestResolverRerouteFreeLastVM forces the fallback when case-3 surgery is
// unsafe: W1 = s1→[m,y,z] and W2 = s2→[m,q,r] share m's f1 clone, so
// re-rooting W1 under W3 = s3→[x,m,w] would tear W2's prefix. W3 is
// re-routed to its own (free) last VM w over free VMs only. The free VMs
// cost more to set up, so a reroute that ignored ownership would pick an
// owned VM and fail.
func TestResolverRerouteFreeLastVM(t *testing.T) {
	h := newHubNet()
	s1, s2, s3 := h.sw("s1"), h.sw("s2"), h.sw("s3")
	m, y, z, q, rr := h.vm("m", 1), h.vm("y", 1), h.vm("z", 1), h.vm("q", 1), h.vm("r", 1)
	x, w, v := h.vm("x", 5), h.vm("w", 5), h.vm("v", 5)
	d1, d2, d3 := h.sw("d1"), h.sw("d2"), h.sw("d3")

	walks := []*chain.ServiceChain{h.walk(s1, m, y, z), h.walk(s2, m, q, rr), h.walk(s3, x, m, w)}
	f, r, lasts := h.resolve(t, 3, walks, []graph.NodeID{d1, d2, d3})

	if f.VNFOf(m) != 1 {
		t.Errorf("shared VM m runs f%d, want f1 untouched", f.VNFOf(m))
	}
	free := map[graph.NodeID]bool{x: true, w: true, v: true}
	for _, n := range walkVMs(f, r.walks[2]) {
		if !free[n] {
			t.Errorf("re-routed walk uses VM %d, owned before it arrived", n)
		}
	}
	if got := f.Clone(lasts[2]).Node; got != w {
		t.Errorf("re-routed walk ends at %d, want its own last VM w = %d", got, w)
	}
}

// TestResolverRerouteOwnedLastVM is the path-extension branch of the
// fallback: W3 = s3→[x,m] must keep m as its anchor, but m already runs
// f1 for the shared prefix of W1 and W2. W3 is routed over the free VMs
// and extended by shortest path to m, which it crosses as pass-through.
func TestResolverRerouteOwnedLastVM(t *testing.T) {
	h := newHubNet()
	s1, s2, s3 := h.sw("s1"), h.sw("s2"), h.sw("s3")
	m, y, z := h.vm("m", 1), h.vm("y", 1), h.vm("z", 1)
	x, w := h.vm("x", 5), h.vm("w", 5)
	d1, d2, d3 := h.sw("d1"), h.sw("d2"), h.sw("d3")

	walks := []*chain.ServiceChain{h.walk(s1, m, y), h.walk(s2, m, z), h.walk(s3, x, m)}
	f, r, lasts := h.resolve(t, 2, walks, []graph.NodeID{d1, d2, d3})

	anchor := f.Clone(lasts[2])
	if anchor.Node != m || anchor.VNF != 0 {
		t.Errorf("re-routed walk ends at node %d running f%d, want pass-through at m = %d", anchor.Node, anchor.VNF, m)
	}
	if f.VNFOf(m) != 1 {
		t.Errorf("m runs f%d, want f1 for the shared prefix", f.VNFOf(m))
	}
	for _, n := range walkVMs(f, r.walks[2]) {
		if n != x && n != w {
			t.Errorf("re-routed walk uses VM %d, want only the free VMs x, w", n)
		}
	}
}

// TestResolverLastResort exhausts the VMs: every VM is owned when W3 =
// s3→[z,m] arrives with an entangled prefix (z runs W2's f2), so no
// fresh chain exists. W3 adopts the whole chain of the existing walk
// closest to its anchor and bridges to m.
func TestResolverLastResort(t *testing.T) {
	h := newHubNet()
	s1, s2, s3 := h.sw("s1"), h.sw("s2"), h.sw("s3")
	m, y, z := h.vm("m", 1), h.vm("y", 1), h.vm("z", 1)
	d1, d2, d3 := h.sw("d1"), h.sw("d2"), h.sw("d3")

	walks := []*chain.ServiceChain{h.walk(s1, m, y), h.walk(s2, m, z), h.walk(s3, z, m)}
	f, r, lasts := h.resolve(t, 2, walks, []graph.NodeID{d1, d2, d3})

	anchor := f.Clone(lasts[2])
	if anchor.Node != m || anchor.VNF != 0 {
		t.Errorf("merged walk ends at node %d running f%d, want pass-through at m = %d", anchor.Node, anchor.VNF, m)
	}
	if got := walkVMs(f, r.walks[2]); len(got) != 2 || got[0] != m || got[1] != y {
		t.Errorf("merged walk VNFs at %v, want W1's chain [m y] = [%d %d]", got, m, y)
	}
	if r.walks[2].source != s1 {
		t.Errorf("merged walk rooted at %d, want W1's source %d", r.walks[2].source, s1)
	}
}

// TestSOFDASSChainLenZero pins the degenerate single-source case: with no
// VNFs the forest is the Steiner tree from the source, with no VM enabled.
func TestSOFDASSChainLenZero(t *testing.T) {
	g, req := paperStyleNet()
	f, err := SOFDASSCtx(context.Background(), g, req.Sources[0], req.Dests, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(req.Sources[:1], req.Dests); err != nil {
		t.Fatal(err)
	}
	if vms := f.UsedVMs(); len(vms) != 0 {
		t.Errorf("chainLen 0 forest enables VMs %v", vms)
	}
	// s0–a–b–d0 plus the bridge b–c–e–d1: the only tree spanning both.
	if got := f.TotalCost(); got != 25 {
		t.Errorf("cost %v, want 25", got)
	}
}
