package rpc

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sof/internal/dist"
)

// Transport is the leader-side dist.Transport: a pool of idle stream
// connections per domain, dialed lazily and shared by concurrent
// embeddings. A connection returns to the pool only after a clean Done
// trailer; a failed exchange, a cancellation, or an errored trailer closes
// it, so the next attempt — the cluster's retry — redials a possibly
// recovered domain.
type Transport struct {
	addrs []string

	mu     sync.Mutex
	closed bool
	// idle pools the healthy connections between exchanges; active tracks
	// the ones inside a SendStream so Close severs in-flight streams
	// instead of leaking them.
	idle   map[int][]*streamConn
	active map[*streamConn]struct{}
}

var _ dist.Transport = (*Transport)(nil)

// NewTransport returns a transport that reaches domain i at addrs[i].
func NewTransport(addrs []string) *Transport {
	return &Transport{
		addrs:  append([]string(nil), addrs...),
		idle:   make(map[int][]*streamConn),
		active: make(map[*streamConn]struct{}),
	}
}

// streamConn is one leader-side connection with its persistent codec
// state (gob type descriptors cross once per connection, not per
// exchange).
type streamConn struct {
	conn net.Conn
	bw   *bufio.Writer
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// acquire pops a pooled connection for the domain or dials a fresh one
// (writing the magic). The dial happens outside the lock so slow domains
// do not serialize the leader's scatter. The connection is tracked as
// active so Close severs in-flight streams.
func (t *Transport) acquire(ctx context.Context, domainID int) (*streamConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("rpc: transport is closed")
	}
	if pool := t.idle[domainID]; len(pool) > 0 {
		sc := pool[len(pool)-1]
		t.idle[domainID] = pool[:len(pool)-1]
		t.active[sc] = struct{}{}
		t.mu.Unlock()
		return sc, nil
	}
	t.mu.Unlock()

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", t.addrs[domainID])
	if err != nil {
		return nil, fmt.Errorf("rpc: dial domain %d at %s: %w", domainID, t.addrs[domainID], err)
	}
	if _, err := io.WriteString(conn, streamMagic); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpc: domain %d magic: %w", domainID, err)
	}
	bw := bufio.NewWriter(conn)
	sc := &streamConn{conn: conn, bw: bw, enc: gob.NewEncoder(bw), dec: gob.NewDecoder(bufio.NewReader(conn))}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("rpc: transport is closed")
	}
	t.active[sc] = struct{}{}
	t.mu.Unlock()
	return sc, nil
}

// release returns a healthy connection to the pool; an unhealthy one
// (failed exchange, cancellation, errored trailer) is closed — its codec
// state is mid-message and unusable.
func (t *Transport) release(domainID int, sc *streamConn, healthy bool) {
	t.mu.Lock()
	delete(t.active, sc)
	if healthy && !t.closed {
		t.idle[domainID] = append(t.idle[domainID], sc)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	sc.conn.Close()
}

// SendStream implements dist.Transport: the request goes out with the
// context's remaining time budget stamped as a relative duration (the
// remote domain observes the leader's cancellation horizon without the two
// machines' clocks having to agree), and fragments are handed to sink as
// they arrive, racing ctx. On cancellation the connection is severed,
// which both unblocks the reader and makes the remote domain abort its
// batch at the next fragment write.
func (t *Transport) SendStream(ctx context.Context, domainID int, req *dist.CandidateRequest, sink func(*dist.CandidateFragment) error) error {
	if domainID < 0 || domainID >= len(t.addrs) {
		return fmt.Errorf("rpc: domain %d out of range [0,%d): %w", domainID, len(t.addrs), dist.ErrNoSuchDomain)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sc, err := t.acquire(ctx, domainID)
	if err != nil {
		return err
	}
	wireReq := *req
	if dl, ok := ctx.Deadline(); ok {
		wireReq.Timeout = int64(time.Until(dl))
	}
	if err := sc.enc.Encode(&wireReq); err != nil {
		t.release(domainID, sc, false)
		return fmt.Errorf("rpc: domain %d stream request: %w", domainID, err)
	}
	if err := sc.bw.Flush(); err != nil {
		t.release(domainID, sc, false)
		return fmt.Errorf("rpc: domain %d stream request: %w", domainID, err)
	}

	type decoded struct {
		frag *dist.CandidateFragment
		err  error
	}
	frames := make(chan decoded)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			f := new(dist.CandidateFragment)
			err := sc.dec.Decode(f)
			select {
			case frames <- decoded{frag: f, err: err}:
			case <-stop:
				return
			}
			if err != nil || f.Done {
				return
			}
		}
	}()
	for {
		select {
		case <-ctx.Done():
			// Sever the connection: the reader goroutine unblocks with a
			// read error, and the domain aborts at its next fragment write.
			t.release(domainID, sc, false)
			return ctx.Err()
		case d := <-frames:
			if d.err != nil {
				t.release(domainID, sc, false)
				return fmt.Errorf("rpc: domain %d stream: %w", domainID, d.err)
			}
			if d.frag.Done && d.frag.Err != "" {
				// Batch-level failure flattened by the domain (remote
				// context error, malformed request). The domain drops the
				// connection after an errored exchange; so do we.
				t.release(domainID, sc, false)
				return fmt.Errorf("rpc: domain %d stream: %s", domainID, d.frag.Err)
			}
			if err := sink(d.frag); err != nil {
				t.release(domainID, sc, false)
				return err
			}
			if d.frag.Done {
				t.release(domainID, sc, true)
				return nil
			}
		}
	}
}

// Close severs every connection — pooled and mid-exchange. SendStreams
// after Close fail.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	idle := t.idle
	t.idle = nil
	active := make([]*streamConn, 0, len(t.active))
	for sc := range t.active {
		//sofvet:ignore detorder teardown: each stream conn is closed independently and has no sort key
		active = append(active, sc)
	}
	t.mu.Unlock()
	for _, pool := range idle {
		for _, sc := range pool {
			sc.conn.Close()
		}
	}
	for _, sc := range active {
		sc.conn.Close()
	}
	return nil
}
