package rpc

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/dist"
	"sof/internal/graph"
	"sof/internal/kstroll"
	"sof/internal/topology"
)

// buildSoftLayer reconstructs the test network deterministically — the
// leader and every domain server call it independently, sharing nothing
// but the seed, exactly like separate OS processes would.
func buildSoftLayer(seed int64) *topology.Network {
	return topology.SoftLayer(topology.Config{NumVMs: 20, Seed: seed})
}

func softLayerInstance(seed int64) (*topology.Network, core.Request, *core.Options) {
	net := buildSoftLayer(seed)
	rng := rand.New(rand.NewSource(seed))
	req := core.Request{
		Sources:  net.RandomNodes(rng, 5),
		Dests:    net.RandomNodes(rng, 4),
		ChainLen: 2,
	}
	return net, req, &core.Options{VMs: net.VMs}
}

// startDomains spins n real domain servers on 127.0.0.1:0
// listeners, each over its own graph built by build, and returns their
// addresses. Servers are torn down with the test.
func startDomains(t testing.TB, n int, build func(i int) *topology.Network) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen domain %d: %v", i, err)
		}
		srv, err := Serve(lis, NewDomainServer(build(i).G, chain.Options{}))
		if err != nil {
			t.Fatalf("serve domain %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// TestRPCEquivalenceMatrix is the distributed correctness claim of
// Section VI carried over a real wire: on the 4-seed × 3-domain-count
// matrix, SOFDA through TCP domain servers — each rebuilding the network
// from the seed in its own right — costs exactly what the centralized
// solver costs. Two leaders run over the same servers: the streamed join
// with dominated-candidate pruning armed, and the same join with eager
// per-source closure — both of which must agree bit for bit.
func TestRPCEquivalenceMatrix(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		network, req, opts := softLayerInstance(seed)
		central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: centralized: %v", seed, err)
		}
		for _, domains := range []int{1, 3, 5} {
			addrs := startDomains(t, domains, func(int) *topology.Network { return buildSoftLayer(seed) })
			tr := NewTransport(addrs)
			for _, mode := range []struct {
				name string
				cfg  dist.Config
			}{
				{"stream", dist.Config{}},
				{"stream-eager", dist.Config{EagerClosure: true}},
			} {
				cfg := mode.cfg
				cfg.Transport = tr
				cfg.RetryBudget = 1
				cluster := dist.NewClusterWith(network.G, domains, cfg)
				f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
				if err != nil {
					cluster.Close()
					tr.Close()
					t.Fatalf("seed %d domains %d %s: rpc distributed: %v", seed, domains, mode.name, err)
				}
				if err := f.Validate(req.Sources, req.Dests); err != nil {
					t.Errorf("seed %d domains %d %s: infeasible forest: %v", seed, domains, mode.name, err)
				}
				if f.TotalCost() != central.TotalCost() {
					t.Errorf("seed %d domains %d %s: rpc cost %v != centralized %v",
						seed, domains, mode.name, f.TotalCost(), central.TotalCost())
				}
				st := cluster.StreamStats()
				if st.StreamedResults == 0 {
					t.Errorf("seed %d domains %d %s: streamed run moved no fragments (%+v)", seed, domains, mode.name, st)
				}
				if mode.name == "stream-eager" && st.EarlyClosures == 0 {
					t.Errorf("seed %d domains %d: eager run closed nothing early (%+v)", seed, domains, st)
				}
				cluster.Close()
			}
			tr.Close()
		}
	}
}

// TestRPCStreamConnectionReuse runs several streamed embeddings over one
// transport: the per-domain stream connections are dialed once, pooled
// between exchanges, and costs stay pinned to the centralized result.
func TestRPCStreamConnectionReuse(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(7) })
	tr := NewTransport(addrs)
	defer tr.Close()
	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr})
	defer cluster.Close()
	for i := 0; i < 4; i++ {
		f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
		if err != nil {
			t.Fatalf("streamed embedding %d: %v", i, err)
		}
		if f.TotalCost() != central.TotalCost() {
			t.Fatalf("streamed embedding %d: cost %v != centralized %v", i, f.TotalCost(), central.TotalCost())
		}
	}
}

// slowSolver delays every k-stroll solve, making a domain's batch slow
// enough that "abort at the next fragment write" is deterministically
// observable: the leader's RST reaches the domain long before the batch
// could finish on its own.
type slowSolver struct {
	inner kstroll.Solver
	delay time.Duration
}

func (s slowSolver) Solve(in *kstroll.Instance) (*kstroll.Walk, error) {
	time.Sleep(s.delay)
	return s.inner.Solve(in)
}

func (s slowSolver) Name() string { return "slow-" + s.inner.Name() }

// TestRPCStreamCancellationAbortsRemoteBatch pins the abandoned-batch fix
// on the wire: a leader that cancels a deadline-free context mid-stream
// severs the connection, and the remote domain must observe the dead peer
// at its next fragment write and abort the oracle fan-out — not finish
// the batch into the void.
func TestRPCStreamCancellationAbortsRemoteBatch(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDomainServer(buildSoftLayer(7).G, chain.Options{
		Solver: slowSolver{inner: kstroll.Auto(), delay: 2 * time.Millisecond},
	})
	srv, err := Serve(lis, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTransport([]string{srv.Addr()})
	defer tr.Close()

	pairs := chain.Pairs(req.Sources, opts.VMs)
	creq := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch(),
		GraphDigest: dist.GraphDigest(network.G),
		ChainLen:    req.ChainLen,
		Parallelism: 1, // sequential domain, so the abort point is crisp
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = tr.SendStream(ctx, 0, creq, func(f *dist.CandidateFragment) error {
		cancel() // walk away after the first fragment, no deadline involved
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SendStream after mid-stream cancel = %v, want context.Canceled", err)
	}
	// The domain aborts at its next fragment write; give the wind-down a
	// moment, then require the solve counter to have stopped far short of
	// the batch (and to stay stopped).
	var solved uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := ds.dom.CacheStats().ChainMisses
		if s == solved && s > 0 {
			break // stable across a polling interval
		}
		solved = s
		if time.Now().After(deadline) {
			t.Fatal("domain solve counter never stabilized")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if solved >= uint64(len(pairs))/2 {
		t.Fatalf("domain solved %d of %d pairs after the leader cancelled — abandoned batch not aborted", solved, len(pairs))
	}
}

// TestFragmentCodecRoundTrip pins decode(encode(x)) == x on real captured
// fragments, trailer included.
func TestFragmentCodecRoundTrip(t *testing.T) {
	for i, frag := range captureFragments(t) {
		data, err := EncodeFragment(frag)
		if err != nil {
			t.Fatalf("fragment %d: encode: %v", i, err)
		}
		got, err := DecodeFragment(data)
		if err != nil {
			t.Fatalf("fragment %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, frag) {
			t.Errorf("fragment %d round trip mismatch:\n got %+v\nwant %+v", i, got, frag)
		}
	}
}

// TestRPCRepricedLeaderFallsBack reprices the leader's links so its graph
// content diverges from the domain servers' (which rebuilt the original
// network and never saw the mutation). The domains' digests no longer
// match; they refuse the stale-priced requests, the leader's local
// fallback answers instead, and the forest still matches a fresh
// centralized run on the mutated graph.
func TestRPCRepricedLeaderFallsBack(t *testing.T) {
	network, req, opts := softLayerInstance(23)
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(23) })
	tr := NewTransport(addrs)
	defer tr.Close()

	rng := rand.New(rand.NewSource(5))
	for e := 0; e < network.G.NumEdges(); e++ {
		network.G.SetEdgeCost(graph.EdgeID(e), 1+rng.Float64()*20)
	}
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}

	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr})
	defer cluster.Close()
	f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA with stale domains: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("fallback cost %v != centralized %v on the repriced graph", f.TotalCost(), central.TotalCost())
	}

	// Without the fallback the mismatch must surface as the sentinel even
	// across the wire: it travels inside a Done fragment (not as a
	// flattened error string), so errors.Is still finds it leader-side.
	strict := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr, DisableFallback: true})
	defer strict.Close()
	if _, err := strict.SOFDA(context.Background(), req, dist.Options{Core: opts}); !errors.Is(err, dist.ErrGraphMismatch) {
		t.Fatalf("SOFDA with stale domains and no fallback = %v, want wrapped ErrGraphMismatch", err)
	}
}

// TestRPCTopologyDivergenceFallsBack starts domain servers on a network
// built from a different seed than the leader's. Both graphs can land on
// the same cost epoch (the epoch only counts mutations), so this is
// exactly the divergence only the topology digest catches: the domains
// must refuse, the fallback must answer, and the cost must match the
// leader-local centralized solve — never a silently wrong forest priced
// on the wrong graph.
func TestRPCTopologyDivergenceFallsBack(t *testing.T) {
	network, req, opts := softLayerInstance(42)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(1) })
	tr := NewTransport(addrs)
	defer tr.Close()

	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr})
	defer cluster.Close()
	f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA against wrong-seed domains: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("fallback cost %v != centralized %v", f.TotalCost(), central.TotalCost())
	}

	strict := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr, DisableFallback: true})
	defer strict.Close()
	if _, err := strict.SOFDA(context.Background(), req, dist.Options{Core: opts}); !errors.Is(err, dist.ErrGraphMismatch) {
		t.Fatalf("strict SOFDA against wrong-seed domains = %v, want wrapped ErrGraphMismatch", err)
	}
}

// TestDomainServerExpiredTimeout pins deadline propagation: a request
// whose wire time budget is already spent must fail with the context
// error, not burn oracle time. The budget is a relative duration, so the
// test needs no clock agreement with the "leader".
func TestDomainServerExpiredTimeout(t *testing.T) {
	network, req, opts := softLayerInstance(1)
	ds := NewDomainServer(network.G, chain.Options{})
	creq := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch(),
		GraphDigest: dist.GraphDigest(network.G),
		ChainLen:    req.ChainLen,
		VMs:         opts.VMs,
		Pairs:       chain.Pairs(req.Sources, opts.VMs),
		Timeout:     -int64(time.Second),
	}
	emitted := 0
	err := ds.dom.AnswerStream(context.Background(), creq, func(*dist.CandidateFragment) error {
		emitted++
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AnswerStream with spent time budget = %v, want context.DeadlineExceeded", err)
	}
	if emitted != 0 {
		t.Errorf("AnswerStream with spent time budget emitted %d fragments", emitted)
	}
}

// TestRPCSourceSetupMismatchRefused starts domains whose oracles price
// source setup (Appendix D) while the leader does not: graph epoch and
// digest agree, so only the handshake's pricing field can catch it. The
// strict leader must refuse; the default leader must answer from the
// fallback and match the centralized solve under its own pricing.
func TestRPCSourceSetupMismatchRefused(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(lis, NewDomainServer(buildSoftLayer(7).G, chain.Options{SourceSetupCost: true}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	tr := NewTransport(addrs)
	defer tr.Close()

	strict := dist.NewClusterWith(network.G, 2, dist.Config{Transport: tr, DisableFallback: true})
	defer strict.Close()
	if _, err := strict.SOFDA(context.Background(), req, dist.Options{Core: opts}); !errors.Is(err, dist.ErrGraphMismatch) {
		t.Fatalf("strict SOFDA against source-setup domains = %v, want wrapped ErrGraphMismatch", err)
	}

	lenient := dist.NewClusterWith(network.G, 2, dist.Config{Transport: tr})
	defer lenient.Close()
	f, err := lenient.SOFDA(context.Background(), req, dist.Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA with fallback against source-setup domains: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("fallback cost %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}

// TestDomainServerGraphMismatch pins the wire handshake: a request whose
// topology digest disagrees is answered with a single Done fragment
// carrying the domain's own values and no results — a well-formed
// fragment, so the refusal survives codecs that flatten errors. A request whose epoch drifted but whose digest
// proves the graphs identical is solved normally: epoch counters are
// bookkeeping, content equality is what the handshake protects.
func TestDomainServerGraphMismatch(t *testing.T) {
	network, req, opts := softLayerInstance(1)
	ds := NewDomainServer(network.G, chain.Options{})
	pairs := chain.Pairs(req.Sources, opts.VMs)

	refusal := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch(),
		GraphDigest: dist.GraphDigest(network.G) ^ 1,
		ChainLen:    req.ChainLen,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	var frags []*dist.CandidateFragment
	collect := func(f *dist.CandidateFragment) error {
		frags = append(frags, f)
		return nil
	}
	if err := ds.dom.AnswerStream(context.Background(), refusal, collect); err != nil {
		t.Fatalf("wrong digest: AnswerStream = %v, want refusal fragment, not error", err)
	}
	if len(frags) != 1 || !frags[0].Done {
		t.Fatalf("wrong digest: got %d fragments, want one Done fragment", len(frags))
	}
	if len(frags[0].Results) != 0 {
		t.Errorf("wrong digest: refusal carried %d results", len(frags[0].Results))
	}
	if frags[0].CostEpoch != network.G.CostEpoch() || frags[0].GraphDigest != dist.GraphDigest(network.G) {
		t.Error("wrong digest: refusal does not carry the domain's own epoch/digest")
	}

	drifted := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch() + 7,
		GraphDigest: dist.GraphDigest(network.G),
		ChainLen:    req.ChainLen,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	frags = nil
	if err := ds.dom.AnswerStream(context.Background(), drifted, collect); err != nil {
		t.Fatalf("drifted epoch, equal digest: AnswerStream = %v", err)
	}
	answered := 0
	for _, f := range frags {
		answered += len(f.Results)
	}
	if answered != len(pairs) {
		t.Errorf("drifted epoch, equal digest: answered %d results for %d pairs — epoch drift over an identical graph must not refuse",
			answered, len(pairs))
	}
}

// TestRPCEpochDriftOverIdenticalGraphStaysDistributed pins the silent-
// degradation regression: a leader that bumped its cost epoch without
// changing any cost (bump-and-restore, InvalidateCache) must keep being
// served by remote domains whose counters never moved — under
// DisableFallback, so a refusal would fail loudly instead of being
// papered over.
func TestRPCEpochDriftOverIdenticalGraphStaysDistributed(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(7) })
	tr := NewTransport(addrs)
	defer tr.Close()

	// Drift the leader's epoch over unchanged content.
	orig := network.G.EdgeCost(0)
	network.G.SetEdgeCost(0, orig+1)
	network.G.SetEdgeCost(0, orig)
	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr, DisableFallback: true})
	defer cluster.Close()
	f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA after leader epoch drift (no fallback armed): %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("cost after epoch drift %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}

// captureRequest builds a real request off the equivalence-test instance
// — the same payload the wire moves, reused as the codec tests' ground
// truth and the request fuzz target's seed corpus.
func captureRequest() *dist.CandidateRequest {
	network, req, opts := softLayerInstance(1)
	return &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch(),
		GraphDigest: dist.GraphDigest(network.G),
		ChainLen:    req.ChainLen,
		Parallelism: 1,
		VMs:         opts.VMs,
		Pairs:       chain.Pairs(req.Sources, opts.VMs),
	}
}

// captureFragments runs a real AnswerStream over the captured request and
// returns every fragment it emits — results-bearing fragments plus the
// Done trailer — as ground truth for the codec tests and the fragment
// fuzz target's seed corpus.
func captureFragments(tb testing.TB) []*dist.CandidateFragment {
	tb.Helper()
	network, _, _ := softLayerInstance(1)
	dom := dist.NewDomain(network.G, chain.Options{})
	creq := captureRequest()
	var frags []*dist.CandidateFragment
	if err := dom.AnswerStream(context.Background(), creq, func(f *dist.CandidateFragment) error {
		frags = append(frags, f)
		return nil
	}); err != nil {
		tb.Fatalf("capture fragments: %v", err)
	}
	if len(frags) < 2 {
		tb.Fatalf("capture fragments: got %d fragments, want results plus trailer", len(frags))
	}
	return frags
}

// TestCandidateCodecRoundTrip pins decode(encode(x)) == x on a real
// captured request, field for field.
func TestCandidateCodecRoundTrip(t *testing.T) {
	req := captureRequest()
	reqData, err := EncodeRequest(req)
	if err != nil {
		t.Fatalf("encode request: %v", err)
	}
	gotReq, err := DecodeRequest(reqData)
	if err != nil {
		t.Fatalf("decode request: %v", err)
	}
	if !reflect.DeepEqual(gotReq, req) {
		t.Errorf("request round trip mismatch:\n got %+v\nwant %+v", gotReq, req)
	}
}

// TestCandidateCodecCorruptedPayload flips bytes of a valid encoding at
// every position: decode must error or succeed, never panic (the fuzz
// targets explore this space much harder; this is the deterministic
// smoke version).
func TestCandidateCodecCorruptedPayload(t *testing.T) {
	data, err := EncodeRequest(captureRequest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0xff
		_, _ = DecodeRequest(corrupt) // must not panic
	}
	if _, err := DecodeRequest(data[:len(data)/2]); err == nil {
		t.Error("decoding a truncated request succeeded")
	}
	if _, err := DecodeFragment([]byte("definitely not gob")); err == nil {
		t.Error("decoding garbage as a fragment succeeded")
	}
}

// TestRPCMalformedRequestKeepsServerAlive sends requests naming nodes the
// domain's graph lacks — an extra candidate VM, a pair's last VM. Each
// exchange must fail leader-side with an error (the domain's errored Done
// trailer), not crash the server process, and the same server must then
// answer a valid request in full.
func TestRPCMalformedRequestKeepsServerAlive(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	addrs := startDomains(t, 1, func(int) *topology.Network { return buildSoftLayer(7) })
	tr := NewTransport(addrs)
	defer tr.Close()
	pairs := chain.Pairs(req.Sources, opts.VMs)
	valid := func() *dist.CandidateRequest {
		return &dist.CandidateRequest{
			CostEpoch:   network.G.CostEpoch(),
			GraphDigest: dist.GraphDigest(network.G),
			ChainLen:    req.ChainLen,
			Parallelism: 1,
			VMs:         append([]graph.NodeID(nil), opts.VMs...),
			Pairs:       append([]chain.Pair(nil), pairs...),
		}
	}
	count := func(n *int) func(*dist.CandidateFragment) error {
		return func(f *dist.CandidateFragment) error {
			*n += len(f.Results)
			return nil
		}
	}
	extraVM := valid()
	extraVM.VMs = append(extraVM.VMs, 1<<20)
	badLast := valid()
	badLast.Pairs[0].LastVM = 1 << 20
	for _, tc := range []struct {
		name string
		req  *dist.CandidateRequest
	}{{"extra VM", extraVM}, {"last VM", badLast}} {
		name, creq := tc.name, tc.req
		got := 0
		if err := tr.SendStream(context.Background(), 0, creq, count(&got)); err == nil {
			t.Errorf("%s: SendStream accepted a request naming a node outside the graph", name)
		}
		if got != 0 {
			t.Errorf("%s: %d results delivered for a malformed request", name, got)
		}
	}
	got := 0
	if err := tr.SendStream(context.Background(), 0, valid(), count(&got)); err != nil {
		t.Fatalf("valid request after malformed ones: %v", err)
	}
	if got != len(pairs) {
		t.Fatalf("valid request delivered %d of %d results", got, len(pairs))
	}
}

// TestRPCServerClosesConnWithoutMagic opens a connection with eight bytes
// that are not the stream magic: the server must close it without writing
// a byte, and a well-formed leader on the same server must still embed at
// the centralized cost.
func TestRPCServerClosesConnWithoutMagic(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startDomains(t, 1, func(int) *topology.Network { return buildSoftLayer(7) })
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("NOTMAGIC")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("non-magic connection: read %d bytes, err %v; want the server to close it unanswered (EOF)", n, err)
	}

	tr := NewTransport(addrs)
	defer tr.Close()
	cluster := dist.NewClusterWith(network.G, 1, dist.Config{Transport: tr, DisableFallback: true})
	defer cluster.Close()
	f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA after a non-magic connection: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("cost %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}
