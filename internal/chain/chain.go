// Package chain constructs service chains: walks through the network that
// visit a prescribed number of distinct VMs so that the VNFs f1…f|C| can be
// installed in order (Procedures 1 and 2 of the paper).
//
// The central object is the Oracle, which caches shortest-path trees over
// the underlying network and converts (source, last VM, chain length)
// queries into k-stroll instances on the auxiliary complete graph 𝒢 of
// Procedure 1. Solved strolls are materialized back into walks on the real
// network with VNF placements (Procedure 2).
package chain

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sof/internal/graph"
	"sof/internal/kstroll"
)

// ServiceChain is a materialized walk in the network that realizes a VNF
// chain: VMs[i] hosts the i-th VNF, and the walk Nodes/Edges connects
// Source → VMs[0] → … → VMs[len-1] (= LastVM) through shortest paths.
// The walk may traverse a node several times ("clones" in the paper).
type ServiceChain struct {
	Source graph.NodeID
	LastVM graph.NodeID
	// VMs[i] hosts VNF f_{i+1}; len(VMs) is the chain length.
	VMs []graph.NodeID
	// VMPos[i] is the index into Nodes of the walk position at which
	// VMs[i] performs its VNF (a VM may also appear elsewhere on the walk
	// as pure pass-through).
	VMPos []int
	// Nodes is the full walk Source…LastVM (repetitions allowed).
	Nodes []graph.NodeID
	// Edges[i] joins Nodes[i] and Nodes[i+1]; len(Edges) = len(Nodes)-1.
	Edges []graph.EdgeID
	// SetupCost is the total setup cost of VMs (plus the source when the
	// oracle includes source setup costs).
	SetupCost float64
	// ConnCost is the total connection cost along the walk, counting a
	// link once per traversal.
	ConnCost float64
}

// TotalCost is SetupCost + ConnCost.
func (c *ServiceChain) TotalCost() float64 { return c.SetupCost + c.ConnCost }

// VNFAt returns the 1-based VNF index hosted at VM v, or 0 if v hosts none.
func (c *ServiceChain) VNFAt(v graph.NodeID) int {
	for i, m := range c.VMs {
		if m == v {
			return i + 1
		}
	}
	return 0
}

// Clone returns a deep copy of the chain.
func (c *ServiceChain) Clone() *ServiceChain {
	return &ServiceChain{
		Source:    c.Source,
		LastVM:    c.LastVM,
		VMs:       append([]graph.NodeID(nil), c.VMs...),
		VMPos:     append([]int(nil), c.VMPos...),
		Nodes:     append([]graph.NodeID(nil), c.Nodes...),
		Edges:     append([]graph.EdgeID(nil), c.Edges...),
		SetupCost: c.SetupCost,
		ConnCost:  c.ConnCost,
	}
}

// Validate checks the structural invariants of the chain against g: walk
// continuity, VM placement order along the walk, distinct VMs, and cost
// accounting. chainLen is the expected number of VNFs.
func (c *ServiceChain) Validate(g *graph.Graph, chainLen int) error {
	if len(c.VMs) != chainLen {
		return fmt.Errorf("chain: %d VMs, want %d", len(c.VMs), chainLen)
	}
	if len(c.Nodes) == 0 || c.Nodes[0] != c.Source {
		return fmt.Errorf("chain: walk does not start at source %d", c.Source)
	}
	if len(c.Edges) != len(c.Nodes)-1 {
		return fmt.Errorf("chain: %d edges for %d nodes", len(c.Edges), len(c.Nodes))
	}
	var conn float64
	for i, id := range c.Edges {
		e := g.Edge(id)
		if !(e.U == c.Nodes[i] && e.V == c.Nodes[i+1]) && !(e.V == c.Nodes[i] && e.U == c.Nodes[i+1]) {
			return fmt.Errorf("chain: edge %d does not join walk nodes %d,%d", id, c.Nodes[i], c.Nodes[i+1])
		}
		conn += e.Cost
	}
	if math.Abs(conn-c.ConnCost) > 1e-6 {
		return fmt.Errorf("chain: recorded conn cost %v != edge sum %v", c.ConnCost, conn)
	}
	if len(c.VMPos) != len(c.VMs) {
		return fmt.Errorf("chain: %d VM positions for %d VMs", len(c.VMPos), len(c.VMs))
	}
	seen := make(map[graph.NodeID]bool, len(c.VMs))
	prev := -1
	for i, vm := range c.VMs {
		if seen[vm] {
			return fmt.Errorf("chain: VM %d repeated", vm)
		}
		seen[vm] = true
		if !g.IsVM(vm) {
			return fmt.Errorf("chain: node %d is not a VM", vm)
		}
		pos := c.VMPos[i]
		if pos <= prev || pos >= len(c.Nodes) {
			return fmt.Errorf("chain: VM %d position %d out of order", vm, pos)
		}
		if c.Nodes[pos] != vm {
			return fmt.Errorf("chain: walk node at position %d is %d, want VM %d", pos, c.Nodes[pos], vm)
		}
		prev = pos
	}
	if chainLen > 0 && c.VMs[chainLen-1] != c.LastVM {
		return fmt.Errorf("chain: last VM %d != recorded %d", c.VMs[chainLen-1], c.LastVM)
	}
	return nil
}

// Options configure an Oracle.
type Options struct {
	// Solver is the k-stroll solver (kstroll.Auto() when nil).
	Solver kstroll.Solver
	// SourceSetupCost includes the source's own setup cost in chains
	// (Appendix D). The source must then be a costed node.
	SourceSetupCost bool
}

// Oracle answers service-chain queries over one network. It caches Dijkstra
// trees per origin node; the cache is safe for concurrent use and computes
// each tree exactly once even under concurrent demand (per-origin
// singleflight), so parallel candidate generation does not duplicate
// Dijkstra work or serialize on one lock while trees are being built.
//
// Entries are keyed by the graph's cost epoch: a tree computed at epoch e
// is served only while graph.CostEpoch() == e, so cost mutations through
// SetEdgeCost/SetNodeCost invalidate lazily — the next query at the new
// epoch rebuilds exactly the trees it touches, and an Oracle held across
// a stream of unchanged-cost requests keeps answering from warm state.
// A rebuild repairs the stale tree from the graph's change journal
// (graph.Repair) when it can, and recomputes it otherwise; both yield the
// tree a fresh Dijkstra run would.
type Oracle struct {
	g      *graph.Graph
	solver kstroll.Solver
	opts   Options

	// mu guards the trees map itself; each entry synchronizes its own
	// computation through its once, so readers only hold mu for the lookup.
	mu    sync.RWMutex
	trees map[graph.NodeID]*treeEntry
	// sweepAt is the map size at which the next new origin sweeps the
	// cache; sweptEpoch is the epoch of the last sweep. Both under mu.
	sweepAt    int
	sweptEpoch uint64

	// hits counts tree lookups answered from a current-epoch cache entry;
	// misses counts trees built (cold or stale-epoch lookups), repaired
	// counts the misses answered by repairing the stale tree.
	hits     atomic.Uint64
	misses   atomic.Uint64
	repaired atomic.Uint64

	// Solved-chain memoization: Chain() results keyed by (source, last VM,
	// chain length, candidate-set hash) within one cost epoch, with the
	// same singleflight discipline as the tree cache. chainEpoch records
	// the epoch the map was built at; a mismatch drops the map wholesale
	// (unlike trees, solved chains are cheap to lose and expensive to keep
	// per epoch). chainMu guards the map and epoch.
	chainMu    sync.Mutex
	chainEpoch uint64
	chainCache map[chainKey]*chainEntry
	chainHits  atomic.Uint64
	chainMiss  atomic.Uint64
}

// maxSolvedChains bounds the solved-chain cache within one cost epoch: a
// long-lived session under stable costs never sees an epoch bump, so
// without a cap the memo would grow with every distinct query for the
// process lifetime. When the map reaches the cap it is dropped wholesale
// (hot keys re-solve once and re-warm immediately) — crude, but eviction
// never costs more than the solve it saves. Variable, not const, so
// tests can shrink it.
var maxSolvedChains = 1 << 14

// chainKey identifies one solved-chain query within a cost epoch. The
// candidate VM set enters as an order-sensitive hash: the set (and its
// order) determines the k-stroll instance, so two queries agree on the
// key only if they would build the same instance.
type chainKey struct {
	src, last graph.NodeID
	chainLen  int
	vmsHash   uint64
}

// chainEntry is a singleflight slot for one solved chain: the first
// goroutine computes inside once, concurrent same-key queries block on it
// instead of re-solving the k-stroll instance. vms is the candidate set
// the entry was created for, written under chainMu before the entry is
// published — a lookup whose set differs (a 64-bit hash collision)
// bypasses the cache instead of trusting the hash.
type chainEntry struct {
	vms  []graph.NodeID
	once sync.Once
	sc   *ServiceChain
	err  error
}

// hashNodes is FNV-1a over the ids in order, length-mixed. Collisions are
// astronomically unlikely but not trusted: the entry stores the actual
// set and mismatches fall back to an uncached solve.
func hashNodes(ns []graph.NodeID) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range ns {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	h ^= uint64(len(ns))
	h *= prime
	return h
}

// treeEntry is a singleflight slot for one origin's Dijkstra tree at one
// cost epoch: the first goroutine to reach the entry builds the tree
// inside once, any concurrent goroutine blocks on it instead of
// rebuilding. A stale-epoch entry is replaced wholesale on next access;
// the replacement carries the stale tree (prev, computed at epoch since)
// until its own build has repaired it or given up on it.
type treeEntry struct {
	epoch uint64
	once  sync.Once
	sp    atomic.Pointer[graph.ShortestPaths]
	prev  *graph.ShortestPaths
	since uint64
}

// The cache sweeps once its trees outgrow sweepBytes, and from then on
// every sweepEvery new origins. Below the budget a session keeps every
// tree it ever built: on a small graph all of them together cost little.
const (
	sweepBytes = 48 << 20
	sweepEvery = 64
)

// treeNodeBytes is what one node costs in a shortest-path tree: a
// float64 distance, a parent and a parent edge.
const treeNodeBytes = 24

// install publishes a fresh entry for n at epoch, succeeding cur (nil
// for a cold origin), and carries cur's tree over for repair unless it
// is still being built. A cold origin that grows the cache to sweepAt
// sweeps it first. Callers hold mu for writing.
func (o *Oracle) install(n graph.NodeID, cur *treeEntry, epoch uint64) *treeEntry {
	e := &treeEntry{epoch: epoch}
	if cur != nil {
		e.prev, e.since = cur.sp.Load(), cur.epoch
	} else if len(o.trees) >= o.sweepAt {
		o.sweep(epoch)
	}
	o.trees[n] = e
	return e
}

// sweep drops the entries no lookup has rebuilt since the previous
// sweep. Their trees are stale, so the next lookup of such an origin
// builds a tree — one miss — whether the entry is there or not; only the
// chance to repair instead of recompute is lost. Without it, every
// origin a session ever touched (each junction a failure repair grafted
// from, say) would pin a stale tree for the session's lifetime. Callers
// hold mu for writing.
func (o *Oracle) sweep(epoch uint64) {
	for n, e := range o.trees {
		if e.epoch < o.sweptEpoch {
			delete(o.trees, n)
		}
	}
	o.sweptEpoch = epoch
	o.sweepAt = len(o.trees) + sweepEvery
}

// fill publishes e's tree from inside e's once: one miss, plus one repair
// when sp came from graph.Repair. It drops the carried stale tree.
func (o *Oracle) fill(e *treeEntry, sp *graph.ShortestPaths, repaired bool) {
	o.misses.Add(1)
	if repaired {
		o.repaired.Add(1)
	}
	e.prev = nil
	e.sp.Store(sp)
}

// NewOracle returns an oracle over g.
func NewOracle(g *graph.Graph, opts Options) *Oracle {
	solver := opts.Solver
	if solver == nil {
		solver = kstroll.Auto()
	}
	return &Oracle{
		g:       g,
		solver:  solver,
		opts:    opts,
		trees:   make(map[graph.NodeID]*treeEntry),
		sweepAt: max(sweepEvery, sweepBytes/max(1, treeNodeBytes*g.NumNodes())),
	}
}

// Graph returns the underlying network.
func (o *Oracle) Graph() *graph.Graph { return o.g }

func (o *Oracle) tree(n graph.NodeID) *graph.ShortestPaths {
	o.mu.RLock()
	epoch := o.g.CostEpoch()
	e, ok := o.trees[n]
	o.mu.RUnlock()
	if !ok || e.epoch != epoch {
		o.mu.Lock()
		// Re-read under the lock: a mutation that landed while waiting
		// must not publish an entry stamped with the epoch observed
		// before it (the costs Dijkstra reads are the post-mutation ones).
		epoch = o.g.CostEpoch()
		if e, ok = o.trees[n]; !ok || e.epoch != epoch {
			e = o.install(n, e, epoch)
		}
		o.mu.Unlock()
	}
	hit := true
	e.once.Do(func() {
		hit = false
		if e.prev != nil {
			if sp := graph.Repair(o.g, e.prev, e.since, nil); sp != nil {
				o.fill(e, sp, true)
				return
			}
		}
		o.fill(e, graph.Dijkstra(o.g, n), false)
	})
	if hit {
		o.hits.Add(1)
	}
	return e.sp.Load()
}

// Tree returns the oracle's cached shortest-path tree rooted at n,
// computing it (singleflight, epoch-keyed) on first demand. It satisfies
// steiner.PathProvider, so KMB runs over the oracle's graph can feed off
// the same cache as the chain queries.
//
// The returned tree is the live cache entry, shared by every consumer of
// the session: callers must treat it as strictly read-only (Dist, Parent,
// and ParentEdge included). Mutating it would silently corrupt every
// later query until the next cost-epoch bump; callers that need a
// scratch copy must take one themselves.
func (o *Oracle) Tree(n graph.NodeID) *graph.ShortestPaths { return o.tree(n) }

// WarmTrees builds the shortest-path trees of every origin in origins
// that is not already cached at the current epoch: stale trees the
// graph's journal covers are repaired, the rest are computed in batched
// Dijkstra passes (one shared arena and CSR fetch per chunk) instead of
// one pooled run per origin. It returns the number of trees built here.
// Origins whose tree another goroutine is already building are skipped —
// the singleflight entry covers them.
//
// Warming is miss-neutral: each tree built here counts as exactly the
// one cache miss the first demand lookup would have charged, so
// miss-count invariants (and the benchmarks gating on them) see the same
// totals whether a session warms or faults trees in.
//
// ctx is checked between chunks: on cancellation the remaining entries
// are left unfulfilled, and the next demand lookup builds them through
// the usual singleflight path.
func (o *Oracle) WarmTrees(ctx context.Context, origins []graph.NodeID) int {
	type slot struct {
		n     graph.NodeID
		e     *treeEntry
		prev  *graph.ShortestPaths
		since uint64
	}
	var pending []slot
	seen := make(map[graph.NodeID]bool, len(origins))
	o.mu.Lock()
	// The epoch is read under the lock: entries published here must be
	// stamped with the epoch the batched Dijkstra passes actually see,
	// not one observed before a concurrent mutation.
	epoch := o.g.CostEpoch()
	for _, n := range origins {
		if seen[n] {
			continue
		}
		seen[n] = true
		e, ok := o.trees[n]
		if ok && e.epoch == epoch {
			continue
		}
		e = o.install(n, e, epoch)
		// The slot keeps its own copy of the carried tree: the entry's
		// field belongs to whichever goroutine runs its once.
		pending = append(pending, slot{n: n, e: e, prev: e.prev, since: e.since})
	}
	o.mu.Unlock()
	if len(pending) == 0 {
		return 0
	}
	const chunk = 16
	arena := graph.NewArena()
	batch := make([]graph.NodeID, 0, chunk)
	cold := make([]slot, 0, chunk)
	computed := 0
	for lo := 0; lo < len(pending); lo += chunk {
		if ctx != nil && ctx.Err() != nil {
			// Abandoned entries stay published with an unfired once; the
			// next Tree() call on them builds as usual.
			return computed
		}
		hi := lo + chunk
		if hi > len(pending) {
			hi = len(pending)
		}
		batch, cold = batch[:0], cold[:0]
		for _, s := range pending[lo:hi] {
			if s.prev != nil {
				if sp := graph.Repair(o.g, s.prev, s.since, arena); sp != nil {
					s.e.once.Do(func() {
						o.fill(s.e, sp, true)
						computed++
					})
					continue
				}
			}
			batch = append(batch, s.n)
			cold = append(cold, s)
		}
		if len(batch) == 0 {
			continue
		}
		sps := graph.DijkstraBatch(o.g, batch, arena)
		for i, s := range cold {
			sp := sps[i]
			s.e.once.Do(func() {
				o.fill(s.e, sp, false)
				computed++
			})
		}
	}
	return computed
}

// CacheStats is a point-in-time snapshot of the oracle's cache counters.
// Misses counts the shortest-path trees built, full or repaired: one per
// cold or stale-epoch origin. Repaired counts the misses answered by
// repairing the stale tree from the graph's change journal instead of a
// full Dijkstra run. Hits counts tree lookups answered from a
// current-epoch entry (including waiters that shared an in-flight build).
// ChainMisses counts k-stroll solves (each one instance build + solve +
// materialization); ChainHits counts Chain() calls answered from a
// current-epoch solved-chain entry.
type CacheStats struct {
	Hits        uint64
	Misses      uint64
	Repaired    uint64
	ChainHits   uint64
	ChainMisses uint64
}

// Stats returns the cache counters. The fields are loaded separately, so
// under concurrent queries the snapshot is advisory rather than an atomic
// tuple — exact for the quiesced points tests and benchmarks read it at.
func (o *Oracle) Stats() CacheStats {
	return CacheStats{
		Hits:        o.hits.Load(),
		Misses:      o.misses.Load(),
		Repaired:    o.repaired.Load(),
		ChainHits:   o.chainHits.Load(),
		ChainMisses: o.chainMiss.Load(),
	}
}

// InvalidateCache marks every cached shortest-path tree stale by advancing
// the graph's cost epoch; entries are replaced lazily as queries touch
// them, each by a full Dijkstra run (an explicit bump journals no change
// a repair could work from). Explicit calls are only needed after cost
// mutations that bypass SetEdgeCost/SetNodeCost (those bump the epoch
// themselves). Note the bump is visible to every epoch-keyed cache over
// the same graph, not just this oracle. Queries already in flight may
// finish against the trees they have resolved; queries started
// afterwards see fresh trees.
func (o *Oracle) InvalidateCache() {
	o.g.BumpCostEpoch()
}

// Chain finds a low-cost service chain from source s to last VM u visiting
// chainLen distinct VMs drawn from vms (Procedures 1 and 2). u must be in
// vms; s must not be (a source does not host VNFs on its own chain).
//
// Solved chains are memoized per cost epoch: a warm request stream pays
// each distinct (source, last VM, chain length, candidate set) query one
// k-stroll solve, and cost mutations through SetEdgeCost/SetNodeCost
// invalidate lazily, exactly like the tree cache. Callers receive a
// private copy, so mutating the result never corrupts the cache.
func (o *Oracle) Chain(vms []graph.NodeID, s, u graph.NodeID, chainLen int) (*ServiceChain, error) {
	key := chainKey{src: s, last: u, chainLen: chainLen, vmsHash: hashNodes(vms)}
	o.chainMu.Lock()
	// Read under the lock: a mutation landing while waiting must not let
	// this call publish an entry into the pre-mutation epoch's memo.
	epoch := o.g.CostEpoch()
	if o.chainCache == nil || o.chainEpoch != epoch {
		o.chainCache = make(map[chainKey]*chainEntry)
		o.chainEpoch = epoch
	}
	e, ok := o.chainCache[key]
	if ok && !slices.Equal(e.vms, vms) {
		// Hash collision between distinct candidate sets: solve uncached
		// rather than alias the other set's chain.
		o.chainMu.Unlock()
		o.chainMiss.Add(1)
		return o.solveChain(vms, s, u, chainLen)
	}
	if !ok {
		if len(o.chainCache) >= maxSolvedChains {
			o.chainCache = make(map[chainKey]*chainEntry)
		}
		e = &chainEntry{vms: append([]graph.NodeID(nil), vms...)}
		o.chainCache[key] = e
	}
	o.chainMu.Unlock()
	hit := true
	e.once.Do(func() {
		hit = false
		o.chainMiss.Add(1)
		e.sc, e.err = o.solveChain(vms, s, u, chainLen)
	})
	if hit {
		o.chainHits.Add(1)
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.sc.Clone(), nil
}

// solveChain is the uncached Chain computation: build the auxiliary
// instance of Procedure 1, solve the k-stroll, materialize the walk.
// Blocked VMs — failed, or capacity-masked by a saturated session — are
// dropped from the candidate set (they can host nothing, and keeping them
// would make every instance infeasible the moment one VM dies: the
// instance build treats an unreachable candidate as an error).
func (o *Oracle) solveChain(vms []graph.NodeID, s, u graph.NodeID, chainLen int) (*ServiceChain, error) {
	if chainLen < 1 {
		return nil, fmt.Errorf("chain: chain length %d < 1", chainLen)
	}
	fs := o.g.Blocked()
	if fs.NodeFailed(u) {
		return nil, fmt.Errorf("chain: last VM %d is unavailable: %w", u, kstroll.ErrInfeasible)
	}
	cand := make([]graph.NodeID, 0, len(vms))
	uIdx := -1
	for _, v := range vms {
		if v == s || fs.NodeFailed(v) {
			continue
		}
		if v == u {
			uIdx = len(cand)
		}
		cand = append(cand, v)
	}
	if uIdx < 0 {
		return nil, fmt.Errorf("chain: last VM %d not among candidates", u)
	}
	if chainLen > len(cand) {
		return nil, fmt.Errorf("chain: length %d exceeds %d available VMs: %w",
			chainLen, len(cand), kstroll.ErrInfeasible)
	}

	in, err := o.buildInstance(cand, s, uIdx, chainLen)
	if err != nil {
		return nil, err
	}
	w, err := o.solver.Solve(in)
	if err != nil {
		return nil, fmt.Errorf("chain: k-stroll %s→%s: %w", o.g.Node(s).Name, o.g.Node(u).Name, err)
	}
	return o.materialize(cand, s, w)
}

// buildInstance constructs the auxiliary complete graph 𝒢 of Procedure 1.
// Instance node 0 is s; node i+1 is cand[i]. End is the last VM's index.
func (o *Oracle) buildInstance(cand []graph.NodeID, s graph.NodeID, uIdx, chainLen int) (*kstroll.Instance, error) {
	n := len(cand) + 1
	lastCost := o.g.NodeCost(cand[uIdx])
	srcCost := 0.0
	if o.opts.SourceSetupCost {
		srcCost = o.g.NodeCost(s)
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	spS := o.tree(s)
	for i, vi := range cand {
		d := spS.Dist[vi]
		if math.IsInf(d, 1) {
			return nil, fmt.Errorf("chain: VM %d unreachable from source %d: %w", vi, s, graph.ErrDisconnected)
		}
		// Procedure 1: the last VM's setup cost is shared onto the edges
		// incident to s; Appendix D adds the source's own setup cost.
		var share float64
		if i == uIdx {
			share = lastCost + srcCost
		} else {
			share = (lastCost + srcCost + o.g.NodeCost(vi)) / 2
		}
		cost[0][i+1] = d + share
		cost[i+1][0] = cost[0][i+1]
	}
	for i, vi := range cand {
		spI := o.tree(vi)
		for j := i + 1; j < len(cand); j++ {
			vj := cand[j]
			d := spI.Dist[vj]
			if math.IsInf(d, 1) {
				return nil, fmt.Errorf("chain: VMs %d and %d disconnected: %w", vi, vj, graph.ErrDisconnected)
			}
			c := d + (o.g.NodeCost(vi)+o.g.NodeCost(vj))/2
			cost[i+1][j+1] = c
			cost[j+1][i+1] = c
		}
	}
	return &kstroll.Instance{
		N:     n,
		Cost:  cost,
		Start: 0,
		End:   uIdx + 1,
		K:     chainLen + 1,
	}, nil
}

// materialize converts a solved stroll on 𝒢 into a walk on the real network
// (Procedure 2): consecutive stroll nodes are joined by shortest paths, and
// VNF f_{j} is installed on the j-th stroll node after the source.
func (o *Oracle) materialize(cand []graph.NodeID, s graph.NodeID, w *kstroll.Walk) (*ServiceChain, error) {
	toNode := func(idx int) graph.NodeID {
		if idx == 0 {
			return s
		}
		return cand[idx-1]
	}
	sc := &ServiceChain{Source: s}
	sc.Nodes = append(sc.Nodes, s)
	for i := 1; i < len(w.Seq); i++ {
		a, b := toNode(w.Seq[i-1]), toNode(w.Seq[i])
		sp := o.tree(a)
		pathNodes := sp.PathTo(b)
		pathEdges := sp.EdgesTo(b)
		if pathNodes == nil {
			return nil, fmt.Errorf("chain: no path %d→%d: %w", a, b, graph.ErrDisconnected)
		}
		sc.Nodes = append(sc.Nodes, pathNodes[1:]...)
		sc.Edges = append(sc.Edges, pathEdges...)
		sc.VMs = append(sc.VMs, b)
		sc.VMPos = append(sc.VMPos, len(sc.Nodes)-1)
		sc.SetupCost += o.g.NodeCost(b)
	}
	if o.opts.SourceSetupCost {
		sc.SetupCost += o.g.NodeCost(s)
	}
	sc.LastVM = sc.VMs[len(sc.VMs)-1]
	for _, e := range sc.Edges {
		sc.ConnCost += o.g.EdgeCost(e)
	}
	return sc, nil
}

// Path returns the cached shortest path a…b as node and edge sequences with
// its connection cost. Used by conflict resolution to splice walks.
func (o *Oracle) Path(a, b graph.NodeID) ([]graph.NodeID, []graph.EdgeID, float64, error) {
	sp := o.tree(a)
	if !sp.Reachable(b) {
		return nil, nil, 0, fmt.Errorf("chain: no path %d→%d: %w", a, b, graph.ErrDisconnected)
	}
	return sp.PathTo(b), sp.EdgesTo(b), sp.Dist[b], nil
}

// Extension finds a low-cost walk from an arbitrary node `from` to an
// arbitrary node `to` that visits nVMs distinct interior VMs from vms.
// It powers the dynamic destination-join and VNF-insertion operations
// (Section VII-C): the interior VMs host the VNFs still missing downstream
// of `from`. With nVMs == 0 it degenerates to a shortest path.
func (o *Oracle) Extension(vms []graph.NodeID, from, to graph.NodeID, nVMs int) (*ServiceChain, error) {
	if nVMs < 0 {
		return nil, fmt.Errorf("chain: negative VM count %d", nVMs)
	}
	if nVMs == 0 {
		sp := o.tree(from)
		pathNodes := sp.PathTo(to)
		if pathNodes == nil {
			return nil, fmt.Errorf("chain: no path %d→%d: %w", from, to, graph.ErrDisconnected)
		}
		sc := &ServiceChain{Source: from, LastVM: to, Nodes: pathNodes, Edges: sp.EdgesTo(to)}
		for _, e := range sc.Edges {
			sc.ConnCost += o.g.EdgeCost(e)
		}
		return sc, nil
	}
	// Blocked VMs (failed or saturated) cannot host the missing VNFs; drop
	// them like solveChain does so one dead VM does not poison the whole
	// extension instance.
	fs := o.g.Blocked()
	cand := make([]graph.NodeID, 0, len(vms))
	for _, v := range vms {
		if v == from || v == to || fs.NodeFailed(v) {
			continue
		}
		cand = append(cand, v)
	}
	if nVMs > len(cand) {
		return nil, fmt.Errorf("chain: extension needs %d VMs, have %d: %w",
			nVMs, len(cand), kstroll.ErrInfeasible)
	}
	// Instance: node 0 = from, 1..m = cand, m+1 = to. Interior VM setup
	// costs are half-shared onto their incident edges; endpoints
	// contribute nothing (they are not newly enabled).
	n := len(cand) + 2
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	nodeAt := func(i int) graph.NodeID {
		switch i {
		case 0:
			return from
		case n - 1:
			return to
		default:
			return cand[i-1]
		}
	}
	halfCost := func(i int) float64 {
		if i == 0 || i == n-1 {
			return 0
		}
		return o.g.NodeCost(cand[i-1]) / 2
	}
	for i := 0; i < n; i++ {
		sp := o.tree(nodeAt(i))
		for j := i + 1; j < n; j++ {
			d := sp.Dist[nodeAt(j)]
			if math.IsInf(d, 1) {
				return nil, fmt.Errorf("chain: %d and %d disconnected: %w", nodeAt(i), nodeAt(j), graph.ErrDisconnected)
			}
			c := d + halfCost(i) + halfCost(j)
			cost[i][j] = c
			cost[j][i] = c
		}
	}
	in := &kstroll.Instance{N: n, Cost: cost, Start: 0, End: n - 1, K: nVMs + 2}
	w, err := o.solver.Solve(in)
	if err != nil {
		return nil, fmt.Errorf("chain: extension stroll: %w", err)
	}
	sc := &ServiceChain{Source: from}
	sc.Nodes = append(sc.Nodes, from)
	for i := 1; i < len(w.Seq); i++ {
		a, b := nodeAt(w.Seq[i-1]), nodeAt(w.Seq[i])
		sp := o.tree(a)
		pathNodes := sp.PathTo(b)
		if pathNodes == nil {
			// The instance build proved reachability, but the tree answering
			// here may be a different (fresher) one than the build consulted;
			// degrade to an error instead of indexing a nil path.
			return nil, fmt.Errorf("chain: no path %d→%d: %w", a, b, graph.ErrDisconnected)
		}
		sc.Nodes = append(sc.Nodes, pathNodes[1:]...)
		sc.Edges = append(sc.Edges, sp.EdgesTo(b)...)
		if i < len(w.Seq)-1 {
			sc.VMs = append(sc.VMs, b)
			sc.VMPos = append(sc.VMPos, len(sc.Nodes)-1)
			sc.SetupCost += o.g.NodeCost(b)
		}
	}
	if len(sc.VMs) > 0 {
		sc.LastVM = sc.VMs[len(sc.VMs)-1]
	}
	for _, e := range sc.Edges {
		sc.ConnCost += o.g.EdgeCost(e)
	}
	return sc, nil
}
