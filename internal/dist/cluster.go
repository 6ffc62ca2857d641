// Package dist implements the distributed SOFDA deployment of Section VI:
// the network is split across several SDN controller domains, each domain
// generates candidate service chains for the sources it owns with its own
// chain oracle (private Dijkstra cache, private worker pool), and a leader
// merges the per-domain candidates into a core.AuxGraphBuilder and
// completes the forest from it.
//
// Because every domain answers its queries with the same deterministic
// k-stroll reduction the centralized solver uses, and the leader restores
// the centralized candidate order before completion, Cluster.SOFDA returns
// a forest whose cost equals core.SOFDACtx's on the same instance — the
// distribution changes where the work runs, not what is computed.
//
// The domain boundary is a real interface: the leader talks to domains
// only through Transport, sending a typed CandidateRequest ([]chain.Pair
// in) and receiving a stream of CandidateFragments (per-pair results,
// spliced by index into the centralized order while the auxiliary graph is
// built). ChannelTransport keeps the domains in-process (the reference
// implementation and test double); package dist/rpc carries the same
// messages as framed gob over TCP so domains run as separate OS processes.
// The leader keeps one chain oracle for the cluster's lifetime. It is the
// shortest-path source of every embedding whose chain options match the
// cluster's, so the trees the completion phase reads (pruning, the Steiner
// phase, the refinement) stay warm across a request stream and only cost
// changes rebuild them. The same oracle is the leader's fallback: a failed
// stream is retried on a budget for its undelivered pairs, which the
// leader then solves itself, so a domain crash degrades latency, never
// correctness.
package dist

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/graph"
)

// ErrClosed is returned by Cluster.SOFDA after Close.
var ErrClosed = errors.New("dist: cluster is closed")

// Options configure one distributed embedding.
type Options struct {
	// Core configures the leader's completion phase (candidate VM set,
	// chain-oracle options, conflict resolution). For the distributed cost
	// to match the centralized one, Core.Chain must equal the chain
	// options the cluster was built with; then, unless Core.Oracle is set,
	// the completion runs on the cluster's long-lived oracle. A different
	// Core.Chain gets a private oracle per embedding.
	Core *core.Options
	// Parallelism bounds each domain's candidate-generation workers:
	// GOMAXPROCS when <= 0, sequential when 1. The bound applies per
	// domain, mirroring a real deployment where every controller owns its
	// own cores.
	Parallelism int
}

// Config configures a Cluster beyond the NewCluster defaults.
type Config struct {
	// Transport carries the leader↔domain protocol. Nil means an
	// in-process ChannelTransport, which the cluster then owns and closes;
	// a supplied transport stays the caller's to close.
	Transport Transport
	// Chain configures the domain oracles of an owned ChannelTransport and
	// the leader's oracle, which answers for failed domains and serves
	// every embedding whose Options.Core.Chain equals it. For the
	// distributed cost to match the centralized one it must equal the
	// options remote domains run.
	Chain chain.Options
	// RetryBudget is how many times a failed domain stream is retried
	// before the leader falls back to its local oracle. Negative means 0.
	RetryBudget int
	// DisableFallback turns the local-oracle fallback off: a domain whose
	// stream fails past the retry budget fails the embedding with the
	// transport error instead. Mostly for tests that assert on failures.
	DisableFallback bool
	// Streaming selected between two exchanges; the streamed fragment
	// exchange is now the only one.
	//
	// Deprecated: Streaming is ignored; nothing reads it.
	Streaming bool
	// EagerClosure overlaps the Steiner phase with the gather: the moment
	// every candidate of a source has spliced out of the reorder buffer,
	// the leader starts that source's single-tree refinement
	// (metric-closure ranking, KMB, forest assembly) concurrently with the
	// still-streaming domains, so by Complete most closure passes are
	// already done. The forest cost is bit-identical —
	// the eager runs execute the same code the completion phase would, on
	// per-source candidate sets that are provably final.
	EagerClosure bool
}

// Cluster is the leader of a multi-domain SDN deployment: it partitions
// candidate queries across domain controllers by source ownership, moves
// them over a Transport, and completes the forest from the gathered
// candidates. Create it with NewCluster or NewClusterWith, run embeddings
// with SOFDA, and release owned resources with Close.
type Cluster struct {
	g         *graph.Graph
	transport Transport
	// owned is the transport Close tears down (nil when the caller
	// supplied their own).
	owned      io.Closer
	numDomains int
	numNodes   int
	cfg        Config

	// oracle is the leader's long-lived chain oracle over g, built with
	// cfg.Chain: the completion phase's shortest-path source for matching
	// embeddings, and the fallback that answers for failed domains.
	oracle *chain.Oracle

	// memo caches the leader's topology digest per cost epoch, so each
	// embedding's handshake stamp is an atomic load, not an O(V+E) hash.
	memo digestMemo

	// Exchange counters, cumulative across embeddings (see StreamStats).
	streamFragments     atomic.Uint64
	streamResults       atomic.Uint64
	streamPruned        atomic.Uint64
	streamEpochDrift    atomic.Uint64
	streamOverlapNS     atomic.Int64
	streamEarlyClosures atomic.Uint64

	// mu is held read-side for the duration of every SOFDA call and
	// write-side by Close, so Close cannot pull the transport out from
	// under an in-flight embedding.
	mu     sync.RWMutex
	closed bool
}

// NewCluster partitions the network into numDomains controller domains
// served by an in-process ChannelTransport. Node IDs are split into
// contiguous ranges — topology generators allocate IDs regionally, so
// contiguous ranges approximate geographic domains. numDomains < 1 is
// treated as 1; domains beyond the node count stay idle.
func NewCluster(g *graph.Graph, numDomains int, chainOpts chain.Options) *Cluster {
	return NewClusterWith(g, numDomains, Config{Chain: chainOpts})
}

// NewClusterWith is NewCluster with an explicit Config: callers pick the
// transport (e.g. rpc.Transport for out-of-process domains), the retry
// budget, and whether the local fallback is armed.
func NewClusterWith(g *graph.Graph, numDomains int, cfg Config) *Cluster {
	if numDomains < 1 {
		numDomains = 1
	}
	if cfg.RetryBudget < 0 {
		cfg.RetryBudget = 0
	}
	c := &Cluster{
		g:          g,
		numDomains: numDomains,
		numNodes:   g.NumNodes(),
		cfg:        cfg,
		transport:  cfg.Transport,
		oracle:     chain.NewOracle(g, cfg.Chain),
	}
	if c.transport == nil {
		ct := NewChannelTransport(g, numDomains, cfg.Chain)
		c.transport = ct
		c.owned = ct
	}
	return c
}

// NumDomains returns the number of controller domains.
func (c *Cluster) NumDomains() int { return c.numDomains }

// InvalidateCache marks the cached shortest-path trees of the leader's and
// every in-process domain's oracle stale with a single cost-epoch bump on
// the shared graph; each oracle replaces exactly the trees its next
// queries touch. Explicit calls are only needed after cost mutations that
// bypass the graph's setters — the setters advance the epoch themselves,
// so in the common online/load-aware loop the long-lived oracles stay
// correct (and stay warm across re-pricing passes that did not change any
// cost) with no call at all.
// Out-of-process domains version their own graphs: the epoch+digest
// handshake in the protocol surfaces any divergence as ErrGraphMismatch.
func (c *Cluster) InvalidateCache() {
	c.g.BumpCostEpoch()
}

// domainOf maps a node to its owning domain by contiguous ID range.
func (c *Cluster) domainOf(n graph.NodeID) int {
	if c.numNodes == 0 {
		return 0
	}
	d := int(n) * c.numDomains / c.numNodes
	if d >= c.numDomains {
		d = c.numDomains - 1
	}
	return d
}

// candidateRequest builds the wire request for one domain's pair slice.
func (c *Cluster) candidateRequest(epoch, digest uint64, chainLen, parallelism int, vms []graph.NodeID, pairs []chain.Pair) *CandidateRequest {
	return &CandidateRequest{
		CostEpoch:   epoch,
		GraphDigest: digest,
		ChainLen:    chainLen,
		Parallelism: parallelism,
		VMs:         vms,
		Pairs:       pairs,
		SourceSetup: c.cfg.Chain.SourceSetupCost,
	}
}

// SOFDA runs the distributed Algorithm 2: each domain generates candidate
// chains for the (source, last VM) pairs whose source it owns, the leader
// merges them in centralized order into a pruning core.AuxGraphBuilder and
// completes the forest from it. The returned forest's cost equals the
// centralized core.SOFDACtx cost on the same graph, request, and options —
// also when domains fail and the fallback answers for them, because the
// fallback runs the identical deterministic reduction.
func (c *Cluster) SOFDA(ctx context.Context, req core.Request, opts Options) (*core.Forest, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Every return path cancels the derived context, so scatter goroutines
	// still in flight when SOFDA bails early (a domain error, a cancelled
	// gather) abort promptly instead of computing into the void.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := req.Validate(c.g); err != nil {
		return nil, err
	}
	o := &core.Options{}
	if opts.Core != nil {
		copied := *opts.Core
		o = &copied
	}
	// The cluster's oracle serves only the chain options it was built
	// with; kstroll solvers are pointers, so the comparison is safe.
	if o.Oracle == nil && o.Chain == c.cfg.Chain {
		o.Oracle = c.oracle
	}
	if req.ChainLen == 0 {
		// Degenerate Steiner forest: no chains to distribute.
		return core.SOFDACtx(ctx, c.g, req, o)
	}
	vms := o.VMs
	if vms == nil {
		vms = c.g.VMs()
	}

	// The leader enumerates pairs in the exact order the centralized
	// solver would and scatters each to its source's domain.
	pairs := chain.Pairs(req.Sources, vms)
	perDomain := make([][]chain.Pair, c.numDomains)
	perIndices := make([][]int, c.numDomains)
	for i, p := range pairs {
		d := c.domainOf(p.Source)
		perDomain[d] = append(perDomain[d], p)
		perIndices[d] = append(perIndices[d], i)
	}
	epoch := c.g.CostEpoch()
	// Digest 0 skips the content handshake for the transport the cluster
	// built over its own graph — leader and domains share one
	// *graph.Graph there, so hashing it every re-pricing step would only
	// verify the graph against itself. Wire/supplied transports get the
	// real digest.
	digest := uint64(0)
	if c.owned == nil {
		digest = c.memo.of(c.g)
	}

	return c.gather(ctx, req, o, vms, pairs, perDomain, perIndices, epoch, digest, opts.Parallelism)
}

// Close shuts down the transport the cluster created (a Config-supplied
// transport is the caller's to close). It is idempotent; SOFDA calls after
// Close return ErrClosed.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.owned != nil {
		c.owned.Close()
	}
}
