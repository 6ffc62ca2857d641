package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/dist"
	distrpc "sof/internal/dist/rpc"
	"sof/internal/graph"
	"sof/internal/topology"
)

// leaderSpec parameterizes the multi-domain workload: a leader on the
// streamed exchange against domain servers on loopback listeners.
type leaderSpec struct {
	vms, domains int
	src, dst     [2]int
	chainLen     int
}

type solved struct {
	req  core.Request
	cost float64
}

// leaderInst is one set-up cluster: a Cogent topology per process role
// (the leader and each domain server build theirs from the seed, as
// separate controllers would), the servers, and the leader's transport.
type leaderInst struct {
	spec    *leaderSpec
	seed    int64
	net     *topology.Network
	cluster *dist.Cluster
	tr      *distrpc.Transport
	servers []*distrpc.Server
	traffic *traffic
	rng     *rand.Rand
	opts    dist.Options
	done    []solved
}

func newLeader(spec *leaderSpec, seed int64) (*leaderInst, error) {
	cfg := topology.Config{NumVMs: spec.vms, Seed: seed}
	l := &leaderInst{
		spec:    spec,
		seed:    seed,
		net:     topology.Cogent(cfg),
		traffic: &traffic{},
		rng:     rand.New(rand.NewSource(seed)),
	}
	addrs := make([]string, 0, spec.domains)
	for i := 0; i < spec.domains; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.close()
			return nil, fmt.Errorf("listen for domain %d: %w", i, err)
		}
		srv, err := distrpc.Serve(countingListener{lis, l.traffic}, distrpc.NewDomainServer(topology.Cogent(cfg).G, chain.Options{}))
		if err != nil {
			lis.Close()
			l.close()
			return nil, fmt.Errorf("serve domain %d: %w", i, err)
		}
		l.servers = append(l.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	l.tr = distrpc.NewTransport(addrs)
	// No fallback: a domain that fails must show as an error, not be
	// answered silently by the leader's own oracle.
	l.cluster = dist.NewClusterWith(l.net.G, spec.domains, dist.Config{
		Transport: l.tr, Streaming: true, DisableFallback: true,
	})
	l.opts = dist.Options{Core: &core.Options{VMs: l.net.VMs}, Parallelism: 1}
	return l, nil
}

func (l *leaderInst) nodes() int { return l.net.G.NumNodes() }

func (l *leaderInst) close() {
	if l.cluster != nil {
		l.cluster.Close()
	}
	if l.tr != nil {
		l.tr.Close()
	}
	for _, s := range l.servers {
		s.Close()
	}
}

func (l *leaderInst) arrive(ctx context.Context, r *recorder) func() error {
	draw := func(rg [2]int) int { return rg[0] + l.rng.Intn(rg[1]-rg[0]+1) }
	nSrc, nDst := draw(l.spec.src), draw(l.spec.dst)
	req := core.Request{
		Sources:  graph.SampleDistinct(l.rng, l.net.Access, nSrc),
		Dests:    graph.SampleDistinct(l.rng, l.net.Access, nDst),
		ChainLen: l.spec.chainLen,
	}
	before, bytes := l.cluster.StreamStats(), l.traffic.bytes.Load()
	start := time.Now()
	f, err := l.cluster.SOFDA(ctx, req, l.opts)
	r.embeds = append(r.embeds, r.child("embed", start))
	r.embedMiss = append(r.embedMiss, false)
	after := l.cluster.StreamStats()
	t := &r.tally
	t.pruned += after.PrunedCandidates - before.PrunedCandidates
	t.frags += after.StreamedFragments - before.StreamedFragments
	t.overlapNS += after.OverlapNS - before.OverlapNS
	t.rpcBytes += l.traffic.bytes.Load() - bytes
	if err != nil {
		r.fail("leader embed %d: %v", r.arrival, err)
		return nil
	}
	t.accepted++
	t.costSum += f.TotalCost()
	l.done = append(l.done, solved{req: req, cost: f.TotalCost()})
	return func() error { return f.Validate(req.Sources, req.Dests) }
}

// verify re-solves every request the leader embedded with centralized
// SOFDA on a separately built copy of the topology; the costs must be
// identical.
func (l *leaderInst) verify(ctx context.Context) []string {
	net := topology.Cogent(topology.Config{NumVMs: l.spec.vms, Seed: l.seed})
	opts := &core.Options{VMs: net.VMs, Oracle: chain.NewOracle(net.G, chain.Options{})}
	var bad []string
	for i, s := range l.done {
		f, err := core.SOFDACtx(ctx, net.G, s.req, opts)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("centralized SOFDA on request %d: %v", i, err))
		case f.TotalCost() != s.cost:
			bad = append(bad, fmt.Sprintf("request %d: leader cost %v, centralized %v", i, s.cost, f.TotalCost()))
		}
	}
	return bad
}

// traffic counts what the domain servers' connections carry.
type traffic struct {
	conns atomic.Int64
	bytes atomic.Int64
}

// countingListener hands distrpc.Serve connections that count their bytes.
type countingListener struct {
	net.Listener
	t *traffic
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.t.conns.Add(1)
	return countingConn{c, l.t}, nil
}

type countingConn struct {
	net.Conn
	t *traffic
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.bytes.Add(int64(n))
	return n, err
}
