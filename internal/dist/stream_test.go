package dist

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/graph"
)

// TestStreamedMatchesBatchAndCentralized is the streaming correctness
// claim: on the 4-seed × 3-domain-count matrix, the server-streamed
// fragment exchange costs exactly what the centralized solver costs, and
// every run moves fragments.
func TestStreamedMatchesBatchAndCentralized(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		net, req, opts := softLayerInstance(seed)
		central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: centralized: %v", seed, err)
		}
		for _, domains := range []int{1, 3, 5} {
			cluster := NewCluster(net.G, domains, chain.Options{})
			f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
			if err != nil {
				cluster.Close()
				t.Fatalf("seed %d domains %d: streamed: %v", seed, domains, err)
			}
			if err := f.Validate(req.Sources, req.Dests); err != nil {
				t.Errorf("seed %d domains %d: infeasible forest: %v", seed, domains, err)
			}
			if f.TotalCost() != central.TotalCost() {
				t.Errorf("seed %d domains %d: streamed cost %v != centralized %v",
					seed, domains, f.TotalCost(), central.TotalCost())
			}
			st := cluster.StreamStats()
			if st.StreamedFragments == 0 || st.StreamedResults == 0 {
				t.Errorf("seed %d domains %d: no stream counters (%+v)", seed, domains, st)
			}
			cluster.Close()
		}
	}
}

// TestStreamedPruneOnOffIdenticalCost is the prune-safety property pinned
// directly: across seeds and domain counts, the leader (which always
// prunes dominated candidates) agrees bit for bit with the centralized
// solve (which keeps every candidate), and pruning actually fires on at
// least one instance — the rule is doing work, not vacuously passing.
func TestStreamedPruneOnOffIdenticalCost(t *testing.T) {
	var pruned uint64
	for _, seed := range []int64{1, 7, 23, 42} {
		net, req, opts := softLayerInstance(seed)
		unpruned, err := core.SOFDACtx(context.Background(), net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: centralized: %v", seed, err)
		}
		for _, domains := range []int{1, 3, 5} {
			cluster := NewCluster(net.G, domains, chain.Options{})
			f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
			if err != nil {
				cluster.Close()
				t.Fatalf("seed %d domains %d: %v", seed, domains, err)
			}
			pruned += cluster.StreamStats().PrunedCandidates
			cluster.Close()
			if f.TotalCost() != unpruned.TotalCost() {
				t.Errorf("seed %d domains %d: pruned cost %v != unpruned cost %v",
					seed, domains, f.TotalCost(), unpruned.TotalCost())
			}
		}
	}
	if pruned == 0 {
		t.Error("pruning never fired across the whole matrix; the property test is vacuous")
	}
}

// TestStreamingCancellationAbortsDomainFanout is the regression pin for
// the abandoned-batch fix: a leader that cancels mid-stream must stop the
// domain-side oracle fan-out at the next fragment, not let the domain
// finish the whole batch. The request runs sequentially (Parallelism 1)
// so "aborted promptly" has a crisp bound: at most a couple of in-flight
// solves after the first fragment.
func TestStreamingCancellationAbortsDomainFanout(t *testing.T) {
	net, req, opts := softLayerInstance(7)
	tr := NewChannelTransport(net.G, 1, chain.Options{})
	defer tr.Close()
	pairs := chain.Pairs(req.Sources, opts.VMs)
	creq := &CandidateRequest{
		ChainLen:    req.ChainLen,
		Parallelism: 1,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := tr.SendStream(ctx, 0, creq, func(f *CandidateFragment) error {
		cancel() // first fragment: the leader walks away mid-batch
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SendStream after mid-stream cancel = %v, want context.Canceled", err)
	}
	solved := tr.domains[0].dom.CacheStats().ChainMisses
	if solved >= uint64(len(pairs))/2 {
		t.Fatalf("domain solved %d of %d pairs after cancellation — the abandoned batch was not aborted", solved, len(pairs))
	}
	if solved == 0 {
		t.Fatal("domain solved nothing; the stream never started")
	}
	// The transport must stay usable for a healthy follow-up exchange.
	got := 0
	if err := tr.SendStream(context.Background(), 0, creq, func(f *CandidateFragment) error {
		got += len(f.Results)
		return nil
	}); err != nil {
		t.Fatalf("SendStream after an aborted stream: %v", err)
	}
	if got != len(pairs) {
		t.Fatalf("follow-up stream delivered %d of %d results", got, len(pairs))
	}
}

// TestStreamingSinkErrorAbortsDomain pins the same abort path for a sink
// that fails (the rpc leader's behavior when its peer severs the conn):
// the domain stops solving and SendStream returns the sink's error.
func TestStreamingSinkErrorAbortsDomain(t *testing.T) {
	net, req, opts := softLayerInstance(9)
	tr := NewChannelTransport(net.G, 1, chain.Options{})
	defer tr.Close()
	pairs := chain.Pairs(req.Sources, opts.VMs)
	creq := &CandidateRequest{ChainLen: req.ChainLen, Parallelism: 1, VMs: opts.VMs, Pairs: pairs}
	errSink := errors.New("sink gave up")
	err := tr.SendStream(context.Background(), 0, creq, func(f *CandidateFragment) error {
		return errSink
	})
	if !errors.Is(err, errSink) {
		t.Fatalf("SendStream with failing sink = %v, want the sink error", err)
	}
	if solved := tr.domains[0].dom.CacheStats().ChainMisses; solved >= uint64(len(pairs))/2 {
		t.Fatalf("domain solved %d of %d pairs after the sink failed", solved, len(pairs))
	}
}

// TestAnswerStreamStampsLiveEpoch pins mid-stream re-pricing detection:
// fragments carry the domain's epoch and digest as they are *now*, not as
// captured at the handshake — a cost change during the exchange must show
// up on the next fragment (epoch drift in-process; on wire requests the
// digest moves too, refusing the remainder).
func TestAnswerStreamStampsLiveEpoch(t *testing.T) {
	net, req, opts := softLayerInstance(11)
	dom := NewDomain(net.G, chain.Options{})
	pairs := chain.Pairs(req.Sources, opts.VMs)
	creq := &CandidateRequest{
		CostEpoch:   net.G.CostEpoch(),
		GraphDigest: GraphDigest(net.G),
		ChainLen:    req.ChainLen,
		Parallelism: 1,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	var first, last *CandidateFragment
	if err := dom.AnswerStream(context.Background(), creq, func(f *CandidateFragment) error {
		if first == nil {
			first = f
			// Re-price mid-exchange: every later fragment must see it.
			net.G.SetEdgeCost(0, net.G.EdgeCost(0)+1)
		}
		last = f
		return nil
	}); err != nil {
		t.Fatalf("AnswerStream: %v", err)
	}
	if first == nil || last == nil || first == last {
		t.Fatal("stream too short to observe mid-stream re-pricing")
	}
	if last.CostEpoch == first.CostEpoch {
		t.Errorf("trailer epoch %d == first fragment epoch %d after a mid-stream re-pricing", last.CostEpoch, first.CostEpoch)
	}
	if last.GraphDigest == first.GraphDigest {
		t.Errorf("trailer digest equals the pre-re-pricing digest; the drift is invisible to a wire leader")
	}
}

// cutTransport delivers fragments normally until failAfter
// results have crossed, then kills the stream — the shape of a domain
// that crashes mid-exchange.
type cutTransport struct {
	inner     *ChannelTransport
	failAfter int32
	seen      atomic.Int32
}

var errStreamCut = errors.New("injected mid-stream failure")

func (p *cutTransport) SendStream(ctx context.Context, domainID int, req *CandidateRequest, sink func(*CandidateFragment) error) error {
	return p.inner.SendStream(ctx, domainID, req, func(f *CandidateFragment) error {
		if p.seen.Load() >= p.failAfter {
			return errStreamCut
		}
		if err := sink(f); err != nil {
			return err
		}
		p.seen.Add(int32(len(f.Results)))
		return nil
	})
}

// TestStreamingPartialFailureRetriesRemainder cuts every stream after a
// few results: the leader must keep the delivered prefix, re-request only
// the remainder, and — once the retry budget is spent — answer the rest
// from the local fallback, landing on the centralized cost regardless.
func TestStreamingPartialFailureRetriesRemainder(t *testing.T) {
	net, req, opts := softLayerInstance(23)
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewChannelTransport(net.G, 3, chain.Options{})
	defer inner.Close()
	flaky := &cutTransport{inner: inner, failAfter: 5}
	cluster := NewClusterWith(net.G, 3, Config{Transport: flaky, RetryBudget: 1})
	defer cluster.Close()
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
	if err != nil {
		t.Fatalf("streamed SOFDA over a mid-stream-failing transport: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("cost %v != centralized %v after partial-stream fallback", f.TotalCost(), central.TotalCost())
	}
}

// TestAnswerStreamRejectsInvalidNodeIDs feeds a domain requests naming
// nodes its graph does not have — a candidate VM, a pair's last VM, a
// pair's source. Each must fail with an error before any oracle lookup
// indexes with the ID (which would panic and, on a wire server, kill the
// process), and the domain must still answer a valid request afterwards.
func TestAnswerStreamRejectsInvalidNodeIDs(t *testing.T) {
	net, req, opts := softLayerInstance(7)
	dom := NewDomain(net.G, chain.Options{})
	pairs := chain.Pairs(req.Sources, opts.VMs)
	valid := func() *CandidateRequest {
		return &CandidateRequest{
			CostEpoch:   net.G.CostEpoch(),
			GraphDigest: GraphDigest(net.G),
			ChainLen:    req.ChainLen,
			Parallelism: 1,
			VMs:         append([]graph.NodeID(nil), opts.VMs...),
			Pairs:       append([]chain.Pair(nil), pairs...),
		}
	}
	const bad = graph.NodeID(1 << 20)
	for _, tc := range []struct {
		name   string
		mutate func(*CandidateRequest)
	}{
		{"extra VM", func(r *CandidateRequest) { r.VMs = append(r.VMs, bad) }},
		{"last VM", func(r *CandidateRequest) { r.Pairs[0].LastVM = bad }},
		{"negative source", func(r *CandidateRequest) { r.Pairs[len(r.Pairs)-1].Source = -2 }},
	} {
		name := tc.name
		creq := valid()
		tc.mutate(creq)
		emitted := 0
		err := dom.AnswerStream(context.Background(), creq, func(*CandidateFragment) error {
			emitted++
			return nil
		})
		if err == nil {
			t.Errorf("%s: AnswerStream accepted a request naming a node outside the graph", name)
		}
		if emitted != 0 {
			t.Errorf("%s: emitted %d fragments before rejecting the request", name, emitted)
		}
	}
	got := 0
	if err := dom.AnswerStream(context.Background(), valid(), func(f *CandidateFragment) error {
		got += len(f.Results)
		return nil
	}); err != nil {
		t.Fatalf("valid request after rejected ones: %v", err)
	}
	if got != len(pairs) {
		t.Fatalf("valid request delivered %d of %d results", got, len(pairs))
	}
}
