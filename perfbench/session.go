package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"sof"
	"sof/internal/graph"
	"sof/internal/kstroll"
	"sof/internal/topology"
)

// sessionSpec parameterizes a workload driven through one capacitated
// sof.Solver session on an Inet topology.
type sessionSpec struct {
	nodes, dcs, vms int // Inet nodes (2·nodes links), data centres, VMs
	algo            sof.Algorithm
	src, dst        [2]int // sources and destinations per request, inclusive
	chainLen        int
	accessPool      int // endpoints come from the first accessPool nodes; 0 = all
	linkCap, vmCap  float64
	demand          float64
	ttl             [2]int // request lifetime in arrivals, inclusive
	repriceEvery    int    // Reprice after every n-th accept
	admitMu         float64
	admitBudget     float64 // adaptive admission when admitMu > 0
	failEvery       int     // fail a carried link every n arrivals; 0 = never
	restoreAfter    int     // arrivals until a failed link is restored
}

type outage struct {
	edge  sof.EdgeID
	until int
}

// sessionInst is one set-up session and the state of its arrival stream.
type sessionInst struct {
	spec    *sessionSpec
	solver  *sof.Solver
	g       *graph.Graph
	pool    []sof.NodeID
	reqRNG  *rand.Rand
	failRNG *rand.Rand

	step         int // arrivals so far, also the virtual clock
	sinceReprice int
	live         int // leases held: accepts minus expiries
	down         []outage
}

func newSession(spec *sessionSpec, seed int64) (*sessionInst, error) {
	net, err := topology.Inet(spec.nodes, 2*spec.nodes, spec.dcs, topology.Config{NumVMs: spec.vms, Seed: seed})
	if err != nil {
		return nil, err
	}
	opts := []sof.Option{
		sof.WithAlgorithm(spec.algo),
		sof.WithVMs(net.VMs...),
		sof.WithCapacity(spec.linkCap, spec.vmCap),
		sof.WithDemand(spec.demand),
	}
	if spec.admitMu > 0 {
		opts = append(opts, sof.WithAdaptiveAdmission(spec.admitMu, spec.admitBudget))
	}
	if spec.failEvery > 0 {
		opts = append(opts, sof.WithRecovery())
	}
	s := &sessionInst{
		spec:    spec,
		solver:  sof.NewSolver(sof.FromGraph(net.G), opts...),
		g:       net.G,
		pool:    net.Access,
		reqRNG:  rand.New(rand.NewSource(seed)),
		failRNG: rand.New(rand.NewSource(seed ^ 0x6661696c)),
	}
	if p := spec.accessPool; p > 0 && p < len(s.pool) {
		s.pool = s.pool[:p]
	}
	s.solver.Reprice()
	return s, nil
}

func (s *sessionInst) nodes() int { return s.g.NumNodes() }

func (s *sessionInst) close() {}

func (s *sessionInst) nextRequest() sof.Request {
	draw := func(r [2]int) int { return r[0] + s.reqRNG.Intn(r[1]-r[0]+1) }
	nSrc, nDst, ttl := draw(s.spec.src), draw(s.spec.dst), draw(s.spec.ttl)
	return sof.Request{
		Sources:      graph.SampleDistinct(s.reqRNG, s.pool, nSrc),
		Destinations: graph.SampleDistinct(s.reqRNG, s.pool, nDst),
		ChainLength:  s.spec.chainLen,
		TTL:          int64(ttl),
	}
}

// arrive runs one closed-loop arrival: advance the virtual clock, restore
// and fail links (churn), embed, and reprice.
func (s *sessionInst) arrive(ctx context.Context, r *recorder) func() error {
	s.step++
	start := time.Now()
	expired, err := s.solver.AdvanceTime(int64(s.step))
	r.advances = append(r.advances, r.child("advance", start))
	if err != nil {
		r.fail("arrival %d: advance: %v", s.step, err)
	}
	s.live -= len(expired)

	var repairCheck func() error
	if s.spec.failEvery > 0 {
		s.restore(r)
		if s.step%s.spec.failEvery == 0 {
			repairCheck = s.failAndRepair(ctx, r)
		}
	}

	req := s.nextRequest()
	before := s.solver.CacheStats()
	start = time.Now()
	f, err := s.solver.Embed(ctx, req)
	d := r.child("embed", start)
	after := s.solver.CacheStats()
	t := &r.tally
	miss := after.Misses > before.Misses
	r.embeds = append(r.embeds, d)
	r.embedMiss = append(r.embedMiss, miss)
	if miss {
		t.missEmbeds++
	}
	t.hits += after.Hits - before.Hits
	t.misses += after.Misses - before.Misses
	t.chainHits += after.ChainHits - before.ChainHits
	t.chainMisses += after.ChainMisses - before.ChainMisses

	var embedCheck func() error
	switch {
	case err == nil:
		t.accepted++
		t.costSum += f.TotalCost()
		s.live++
		s.sinceReprice++
		if s.sinceReprice >= s.spec.repriceEvery {
			s.sinceReprice = 0
			s.reprice(r)
		}
		embedCheck = func() error {
			if _, ok := f.Lease(); !ok {
				return errors.New("accepted forest holds no lease")
			}
			return f.Validate()
		}
	case errors.Is(err, sof.ErrCapacityExceeded):
		t.rejCapacity++
	case errors.Is(err, sof.ErrAdmissionRejected):
		t.rejAdmission++
	case infeasible(err):
		t.rejInfeasible++
	default:
		r.fail("arrival %d: embed: %v", s.step, err)
	}
	t.liveSum += s.live
	return joinChecks(repairCheck, embedCheck)
}

// infeasible reports whether an Embed error means no route exists under
// the current failures and capacity masks — an outcome, not a fault.
func infeasible(err error) bool {
	if errors.Is(err, graph.ErrDisconnected) || errors.Is(err, kstroll.ErrInfeasible) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "no feasible")
}

func (s *sessionInst) reprice(r *recorder) {
	start := time.Now()
	s.solver.Reprice()
	r.reprices = append(r.reprices, r.child("reprice", start))
	r.tally.reprices++
}

// restore brings back the links whose outage is over.
func (s *sessionInst) restore(r *recorder) {
	if len(s.down) == 0 || s.down[0].until > s.step {
		return
	}
	start := time.Now()
	for len(s.down) > 0 && s.down[0].until <= s.step {
		if !s.solver.RestoreLink(s.down[0].edge) {
			r.fail("arrival %d: restore of link %d changed nothing", s.step, s.down[0].edge)
		}
		s.down = s.down[1:]
	}
	r.child("restore", start)
}

// failAndRepair fails one link carried by a live forest, repairs every
// damaged forest and reprices. It returns the check of the sweep's report.
func (s *sessionInst) failAndRepair(ctx context.Context, r *recorder) func() error {
	start := time.Now()
	var carrying []sof.LeaseInfo
	for _, l := range s.solver.Leases() {
		if len(l.Edges) > 0 {
			carrying = append(carrying, l)
		}
	}
	if len(carrying) == 0 {
		return nil
	}
	l := carrying[s.failRNG.Intn(len(carrying))]
	e := l.Edges[s.failRNG.Intn(len(l.Edges))]
	if !s.solver.FailLink(e) {
		r.fail("arrival %d: link %d was already failed", s.step, e)
	}
	s.down = append(s.down, outage{edge: e, until: s.step + s.spec.restoreAfter})
	r.child("fail", start)

	start = time.Now()
	rep, err := s.solver.RepairAll(ctx)
	r.repairs = append(r.repairs, r.child("repair", start))
	t := &r.tally
	t.repairs++
	if err != nil && !errors.Is(err, sof.ErrUnrecoverable) {
		r.fail("arrival %d: repair: %v", s.step, err)
	}
	if rep == nil {
		return nil
	}
	if o := countOrphans(rep); o > 0 {
		t.orphans += o
		t.reattached += rep.Reattached
		t.restoredSum += float64(rep.Reattached) / float64(o)
		t.damaging++
	}
	t.fastPath += rep.FastPath
	t.reembeds += rep.Reembeds
	t.failedDests += len(rep.Unrecoverable())
	s.reprice(r)
	return func() error {
		if (err != nil) != (len(rep.Unrecoverable()) > 0) {
			return fmt.Errorf("repair error %v disagrees with %d unrecoverable destinations", err, len(rep.Unrecoverable()))
		}
		for _, fr := range rep.Forests {
			if fr.Orphans != fr.Reattached+len(fr.Failed) {
				return fmt.Errorf("repair dropped destinations: %d orphans, %d reattached, %d failed",
					fr.Orphans, fr.Reattached, len(fr.Failed))
			}
			if len(fr.Failed) == 0 {
				if err := fr.Forest.Validate(); err != nil {
					return fmt.Errorf("repaired forest: %w", err)
				}
			}
		}
		return nil
	}
}

func countOrphans(rep *sof.RecoveryReport) int {
	n := 0
	for _, fr := range rep.Forests {
		n += fr.Orphans
	}
	return n
}

// verify checks the lease ledger at run end: every link and VM load equals
// the summed footprints of the live leases, and draining the clock past
// every expiry returns all loads and capacity masks to zero.
func (s *sessionInst) verify(context.Context) []string {
	var bad []string
	leases := s.solver.Leases()
	if len(leases) != s.live {
		bad = append(bad, fmt.Sprintf("ledger holds %d leases, the stream accounts for %d", len(leases), s.live))
	}
	linkSum := make([]float64, s.g.NumEdges())
	vmSum := make(map[sof.NodeID]float64)
	maxExpiry := int64(0)
	for _, l := range leases {
		for _, e := range l.Edges {
			linkSum[e] += l.Demand
		}
		for _, v := range l.VMs {
			vmSum[v]++
		}
		maxExpiry = max(maxExpiry, l.Expiry)
	}
	bad = append(bad, s.loadMismatches(linkSum, vmSum, "before drain")...)

	if _, err := s.solver.AdvanceTime(maxExpiry + 1); err != nil {
		bad = append(bad, fmt.Sprintf("drain: %v", err))
	}
	if n := len(s.solver.Leases()); n != 0 {
		bad = append(bad, fmt.Sprintf("%d leases survive the drain", n))
	}
	bad = append(bad, s.loadMismatches(make([]float64, s.g.NumEdges()), map[sof.NodeID]float64{}, "after drain")...)
	if e, v := s.g.Masked().Counts(); e != 0 || v != 0 {
		bad = append(bad, fmt.Sprintf("%d links and %d VMs still masked after drain", e, v))
	}
	return bad
}

func (s *sessionInst) loadMismatches(linkSum []float64, vmSum map[sof.NodeID]float64, when string) []string {
	var bad []string
	for e, want := range linkSum {
		if got := s.solver.LinkLoad(sof.EdgeID(e)); math.Abs(got-want) > 1e-6 {
			bad = append(bad, fmt.Sprintf("%s: link %d load %v, leases sum to %v", when, e, got, want))
		}
	}
	for _, v := range s.g.VMs() {
		if got := s.solver.VMLoad(v); math.Abs(got-vmSum[v]) > 1e-6 {
			bad = append(bad, fmt.Sprintf("%s: VM %d load %v, leases sum to %v", when, v, got, vmSum[v]))
		}
	}
	return bad
}

// joinChecks runs the non-nil checks in order and returns the first error.
func joinChecks(checks ...func() error) func() error {
	return func() error {
		for _, c := range checks {
			if c == nil {
				continue
			}
			if err := c(); err != nil {
				return err
			}
		}
		return nil
	}
}
