// Package rpc carries the dist candidate exchange over TCP, so domain
// controllers run as separate OS processes: a DomainServer answers
// dist.CandidateRequests with its own graph and oracle (served by
// cmd/sofdomain or embedded in a test), and Transport is the leader-side
// dist.Transport that pools connections per domain and propagates context
// deadlines onto the wire.
//
// A connection opens with the 8-byte magic streamMagic and is then a
// framed gob exchange, reused across embeddings: the leader writes one
// dist.CandidateRequest per exchange, the domain answers with a stream of
// dist.CandidateFragments ending in a Done trailer, and the next request
// may follow on the same connection. The server closes, unanswered, any
// connection that opens with other bytes.
//
// Cancellation needs no control message: a leader that gives up severs
// the connection, the domain's next fragment write fails, and
// dist.Domain.AnswerStream aborts the oracle fan-out mid-batch.
//
// The messages are exactly the ones the in-process ChannelTransport moves;
// the equivalence tests pin the two transports to bit-identical forest
// costs, and the codec helpers in this package mirror the gob encoding of
// those messages so captured payloads can be replayed and fuzzed.
package rpc

import (
	"bufio"
	"context"
	"encoding/gob"
	"io"
	"net"
	"sync"

	"sof/internal/chain"
	"sof/internal/dist"
	"sof/internal/graph"
)

// streamMagic opens every connection, so the server can tell a leader
// from a stray or mistaken client before decoding anything.
const streamMagic = "SOFSTRM1"

// DomainServer answers candidate requests for one domain controller. It
// wraps the shared domain-side handler (dist.Domain): a private oracle
// over the domain's view of the network, which must be built identically
// to the leader's (same topology generator, seed, costs, and chain
// options) for the graph-state handshake to pass.
type DomainServer struct {
	dom *dist.Domain
}

// NewDomainServer returns a domain controller over g.
func NewDomainServer(g *graph.Graph, chainOpts chain.Options) *DomainServer {
	return &DomainServer{dom: dist.NewDomain(g, chainOpts)}
}

// Server is a running serve loop: a listener plus the connections it has
// accepted, all torn down by Close.
type Server struct {
	lis net.Listener
	ds  *DomainServer
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts accepting connections on lis in a background goroutine,
// one goroutine per connection, each answered by ds. The caller owns the
// returned Server and must Close it.
func Serve(lis net.Listener, ds *DomainServer) (*Server, error) {
	s := &Server{lis: lis, ds: ds, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			// Close closed the listener (or the listener died); either way
			// the loop is done.
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// serveConn checks the magic, then answers stream exchanges on one
// connection until the peer hangs up: one CandidateRequest in, a fragment
// stream out, then the next request on the same connection. Fan-out
// cancellation rides the write path — AnswerStream's emit fails as soon as
// the peer is gone.
func (s *Server) serveConn(conn net.Conn) {
	magic := make([]byte, len(streamMagic))
	if _, err := io.ReadFull(conn, magic); err != nil || string(magic) != streamMagic {
		return // not a leader: the caller closes the connection unanswered
	}
	dec := gob.NewDecoder(bufio.NewReader(conn))
	bw := bufio.NewWriter(conn)
	enc := gob.NewEncoder(bw)
	for {
		req := new(dist.CandidateRequest)
		if err := dec.Decode(req); err != nil {
			return // peer closed (or a framing error — either way the conn is done)
		}
		//sofvet:ignore ctxflow the conn is the cancellation signal: a dead peer fails the next per-fragment flush
		err := s.ds.dom.AnswerStream(context.Background(), req, func(f *dist.CandidateFragment) error {
			if err := enc.Encode(f); err != nil {
				return err
			}
			// Flush per fragment: the leader must see it now, and a dead
			// peer must fail this write so the batch aborts.
			return bw.Flush()
		})
		if err != nil {
			// Best-effort errored trailer (a remote context error or a
			// malformed request, not an emit failure, can still reach a
			// live leader), then drop the connection: its codec state is
			// ambiguous after a failed exchange.
			enc.Encode(&dist.CandidateFragment{Done: true, Err: err.Error()})
			bw.Flush()
			return
		}
	}
}

// Addr returns the listener's address — useful with a ":0" listener.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops accepting, severs every live connection, and waits for the
// per-connection goroutines to drain. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		//sofvet:ignore detorder teardown: each conn is severed independently and net.Conn has no sort key
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}
