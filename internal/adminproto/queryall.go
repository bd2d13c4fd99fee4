package adminproto

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dproc/internal/clock"
	"dproc/internal/dmon"
	"dproc/internal/query"
	"dproc/internal/tsdb"
)

// AdminChannel is the registry channel admin servers advertise on; peers
// enumerate it to find every node's admin endpoint for scatter-gather
// queries. It is a registry-only channel — no kecho event traffic flows on
// it, membership is the payload.
const AdminChannel = "dproc.admin"

// advertise joins the admin channel (when the node has a registry) and
// starts the heartbeat loop that keeps the registration alive across
// registry TTL expiry. It heartbeats at the pace of the node's channels,
// Channel.ReconnectInterval, against the same TTL: a slower admin heartbeat
// would let queryall targets expire between beats. DisableReconnect
// silences it like every other heartbeat.
func (s *Server) advertise() {
	reg := s.node.Registry()
	if reg == nil {
		return
	}
	// Join errors are tolerated: the node still answers queryall for itself,
	// and the heartbeat below re-registers once the registry is reachable.
	_, _ = reg.Join(AdminChannel, s.node.Name(), s.Addr())
	if s.node.Config().Channel.DisableReconnect {
		return
	}
	s.hbStop = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Paced on the I/O clock: the heartbeat refreshes a TTL the registry
		// ages on its own clock, not on this node's.
		for clock.Wait(s.io, s.every, s.hbStop) {
			_, _ = reg.Heartbeat(AdminChannel, s.node.Name(), s.Addr())
		}
	}()
}

// unadvertise leaves the admin channel on shutdown.
func (s *Server) unadvertise() {
	if reg := s.node.Registry(); reg != nil {
		_ = reg.Leave(AdminChannel, s.node.Name())
	}
}

// roster is the coordinator's cached fan-out target set (DESIGN §12, "The
// admin roster"): what the last lookup of the admin channel returned,
// sorted, self included. It lives under Server.mu.
type roster struct {
	// targets is shared with every fan-out that read it and never written
	// in place; nil until a lookup first succeeds.
	targets []query.Target
	// err is the last lookup's error while targets is still nil: why a
	// coordinator that never saw the roster answers for itself only.
	err error
	// at is when the last lookup ended, failed or not, on the I/O clock;
	// zero before the first.
	at time.Time
	// stale marks a fan-out part failed since that lookup began: the next
	// query re-resolves the roster, so a departed or restarted node is
	// seen at once.
	stale bool
	// fetching is closed when the lookup in flight ends; nil when none is.
	fetching chan struct{}
}

// targets returns the scatter-gather fan-out: every admin endpoint on the
// registry channel, self included even if its own registration has lapsed,
// sorted by node name. The slice is shared and read-only. It is the roster
// the last lookup returned, looked up again only when there is none yet,
// when it is one Channel.ReconnectInterval old on the I/O clock, or when a
// part of a fan-out since then failed. One lookup runs at a time, and
// queries that have a roster to read do not wait for it. A failed lookup
// keeps the roster it had and is retried an interval later; a coordinator
// that has no roster yet answers for itself only, and err says why.
// Standalone nodes (no registry) query themselves only.
func (s *Server) targets() ([]query.Target, error) {
	reg := s.node.Registry()
	if reg == nil {
		return []query.Target{s.self()}, nil
	}
	s.mu.Lock()
	r := &s.roster
	for r.fetching != nil && r.targets == nil {
		wait := r.fetching
		s.mu.Unlock()
		<-wait
		s.mu.Lock()
	}
	fresh := !r.at.IsZero() && !r.stale && s.io.Now().Sub(r.at) < s.every
	if fresh || r.fetching != nil {
		defer s.mu.Unlock()
		return s.rosterLocked()
	}
	done := make(chan struct{})
	r.fetching, r.stale = done, false
	s.mu.Unlock()

	members, err := reg.Lookup(AdminChannel)

	s.mu.Lock()
	defer s.mu.Unlock()
	r.fetching, r.at = nil, s.io.Now()
	close(done)
	if err != nil {
		if r.targets == nil {
			r.err = err
		}
		return s.rosterLocked()
	}
	self := s.self()
	targets := make([]query.Target, 0, len(members)+1)
	hasSelf := false
	for _, m := range members {
		targets = append(targets, query.Target{Node: m.ID, Addr: m.Addr})
		if m.ID == self.Node {
			hasSelf = true
		}
	}
	if !hasSelf {
		targets = append(targets, self)
	}
	r.targets, r.err = query.SortTargets(targets), nil
	s.forgetDeparted(r.targets)
	return r.targets, nil
}

// rosterLocked is the cached roster, or self alone and the lookup's error
// while there is none.
func (s *Server) rosterLocked() ([]query.Target, error) {
	if s.roster.targets == nil {
		return []query.Target{s.self()}, s.roster.err
	}
	return s.roster.targets, nil
}

// self is this node's own fan-out target.
func (s *Server) self() query.Target {
	return query.Target{Node: s.node.Name(), Addr: s.Addr()}
}

// forgetDeparted closes the fan-out clients of addresses no longer among
// the targets; the caller holds s.mu. Self has no client, so while every
// client is still a target there are fewer clients than targets and the
// scan is skipped; a departed peer is forgotten by the first roster that no
// longer lists it, or, when another peer joined in its place, by the one
// after.
func (s *Server) forgetDeparted(targets []query.Target) {
	if len(s.clients) < len(targets) {
		return
	}
	for addr, c := range s.clients {
		if !slices.ContainsFunc(targets, func(t query.Target) bool { return t.Addr == addr }) {
			c.Close()
			delete(s.clients, addr)
		}
	}
}

// clientFor returns the fan-out client for a peer's admin address. A
// closed server hands out closed clients, whose connections close after
// one call.
func (s *Server) clientFor(addr string) *Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.clients[addr]
	if c == nil {
		c = NewClient(addr)
		c.SetTransport(s.node.Transport())
		if s.closed {
			c.Close()
		} else {
			s.clients[addr] = c
		}
	}
	return c
}

// fetchPart gets one node's part: this node's own in process, through the
// same function a querypart leaf runs, and a peer's over a kept admin
// connection. The context's deadline (the per-node fan-out budget) caps
// the whole exchange — dial, request, response, and a retry.
func (s *Server) fetchPart(ctx context.Context, t query.Target, q tsdb.Query) (query.Part, error) {
	if t.Node == s.node.Name() {
		return s.localPart(q)
	}
	p, err := s.clientFor(t.Addr).QueryPartContext(ctx, q)
	if err != nil {
		s.mu.Lock()
		s.roster.stale = true
		s.mu.Unlock()
	}
	return p, err
}

// localPart answers this node's share of a normalized query from its own
// store.
func (s *Server) localPart(q tsdb.Query) (query.Part, error) {
	series := dmon.SeriesKey(s.node.Name(), q.Metric)
	return query.ComputePart(s.node.DMon().Store().TSDB(), series, q)
}

// QueryAllResult parses text as a windowed aggregate query and
// scatter-gathers it across every registered node, returning the structured
// merged result. Node failures annotate the result (Partial), and so does a
// coordinator that could not yet look up who the other nodes are; only an
// unusable query or empty cluster is an error.
func (s *Server) QueryAllResult(text string) (query.Result, error) {
	res, _, err := s.queryAll(text)
	return res, err
}

// queryAll is QueryAllResult that also returns why the fan-out reached self
// only, when the roster lookup failed before it ever succeeded.
func (s *Server) queryAll(text string) (res query.Result, rosterErr, err error) {
	q, err := tsdb.ParseQuery(text)
	if err != nil {
		return query.Result{}, nil, err
	}
	targets, rosterErr := s.targets()
	res, err = query.Run(context.Background(), targets, q, s.node.Clock().Now(), s.fetchPart, s.fanout)
	if rosterErr != nil {
		res.Partial = true
	}
	return res, rosterErr, err
}

// QueryAll runs QueryAllResult and renders it as control-file text; it backs
// both the queryall verb and the node's cluster/query control file. A
// result that is partial for want of a roster ends with one "roster error"
// line naming the lookup's error.
func (s *Server) QueryAll(text string) (string, error) {
	res, rosterErr, err := s.queryAll(text)
	if err != nil {
		return "", err
	}
	out := res.Render()
	if rosterErr != nil {
		// One line: a newline would split the result, and a blank one end
		// a kept reply.
		out += "roster error " + strings.Join(strings.Fields(rosterErr.Error()), " ") + "\n"
	}
	return out, nil
}

// ClusterExporter returns a Prometheus appender that scatter-gathers the
// given history metrics over a trailing window on every scrape, emitting
// dproc_cluster_* series (mounted on /metrics via obs.ServeMetrics). A
// coordinator without a roster exports dproc_cluster_query_partial 1, as its
// queryall answers partial true.
func (s *Server) ClusterExporter(metrics []string, window time.Duration) *query.ClusterExport {
	return &query.ClusterExport{
		Metrics: metrics,
		Window:  window,
		Targets: s.targets,
		Fetch:   s.fetchPart,
		Now:     func() time.Time { return s.node.Clock().Now() },
		Options: s.fanout,
	}
}

// runQueryAll answers a scatter-gather. Its OK reply ends with a blank
// line: an operator's client keeps the connection.
func runQueryAll(s *Server, args []string, _ *bufio.Reader, reply replyFunc) error {
	out, err := s.QueryAll(strings.Join(args, " "))
	if err != nil {
		return err
	}
	reply.text("OK\n" + out + "\n")
	return nil
}

// partBufs recycles the buffers querypart replies are built in.
var partBufs = sync.Pool{New: func() any { return new([]byte) }}

// runQueryPart answers one node's share of a scatter-gather: the local
// aggregate (or raw histogram buckets, for percentiles) over the normalized
// query whose binary form follows the request line, args[0] bytes of it,
// decoded where the request reader holds it. The form has no relative
// window, and tsdb.DecodeQuery refuses an empty one: normalization is the
// coordinator's job, and a leaf re-anchoring "last 5m" on its own clock
// would answer a different question. The OK reply is "OK <m>\n" and the
// part's m bytes, written at once.
func runQueryPart(s *Server, args []string, body *bufio.Reader, reply replyFunc) error {
	n, err := strconv.Atoi(args[0])
	if len(args) > 1 || err != nil || n < 0 || n > tsdb.MaxQueryBytes {
		return errors.New("usage: querypart <n> then n bytes of binary query, n at most " + strconv.Itoa(tsdb.MaxQueryBytes))
	}
	b, err := body.Peek(n)
	if err != nil {
		return fmt.Errorf("reading the query: %w", err)
	}
	q, err := tsdb.DecodeQuery(b)
	_, _ = body.Discard(n)
	if err != nil {
		return err
	}
	p, err := s.localPart(q)
	if err != nil {
		return err
	}
	buf := partBufs.Get().(*[]byte)
	*buf = frame(p.AppendBinary((*buf)[:0]), "OK")
	reply(*buf)
	partBufs.Put(buf)
	return nil
}

// frame puts the line "<word> <n>\n" in front of b's n bytes, in place:
// a length-prefixed querypart request or reply, as the one slice it is
// written from.
func frame(b []byte, word string) []byte {
	n := len(b)
	var buf [24]byte
	line := strconv.AppendInt(append(append(buf[:0], word...), ' '), int64(n), 10)
	line = append(line, '\n')
	b = append(b, line...)
	copy(b[len(line):], b[:n])
	copy(b, line)
	return b
}

// QueryAll scatter-gathers a windowed aggregate across every node registered
// on the coordinator's admin channel and returns the rendered merged result
// (with per-node provenance lines). It reuses a kept connection like
// QueryPart; an older server closes after its reply instead of ending it with
// a blank line, and that EOF ends the reply.
func (c *Client) QueryAll(q string) (string, error) {
	var out string
	err := c.keptRoundTrip(context.Background(),
		func(b []byte) []byte { return append(append(append(b, "queryall "...), q...), '\n') },
		func(kc *keptConn, _ []byte) (keep bool, err error) {
			out, keep, err = kc.readText()
			return keep, err
		})
	return out, err
}

// QueryPart asks one node for its part of a normalized query — what the
// scatter-gather coordinator calls per target — under the client's own
// timeout.
func (c *Client) QueryPart(q tsdb.Query) (query.Part, error) {
	return c.QueryPartContext(context.Background(), q)
}

// QueryPartContext is QueryPart with ctx's deadline capping the whole call.
// A part cut short by EOF is an error.
func (c *Client) QueryPartContext(ctx context.Context, q tsdb.Query) (query.Part, error) {
	var p query.Part
	err := c.keptRoundTrip(ctx,
		func(b []byte) []byte { return frame(q.AppendBinary(b), "querypart") },
		func(kc *keptConn, status []byte) (keep bool, err error) {
			p, keep, err = kc.readPart(status)
			return keep, err
		})
	return p, err
}

// maxIdleParts caps the connections a Client keeps open: one is enough for
// one call at a time, and a few cover the coordinator's overlapping queries
// (a queryall beside a metrics scrape) without redialing; beyond that a
// call's connection closes after it.
const maxIdleParts = 4

// keptRoundTrip performs one request of a keep verb (Verb.keep) with ctx's
// deadline capping the whole call. request appends the request's bytes to
// the buffer it is given; reply reads the rest of an OK reply after its
// status line, as the verb frames it, and reports whether the reply ended
// where its framing says with nothing read past it. keptRoundTrip reuses a
// kept connection when the client has one, and keeps the connection
// afterwards only on such a reply; an ERR reply is one line and closes it.
//
// A kept connection can have been closed by the server while idle (its phase
// timeout, a restart): if it fails before the first reply byte for any
// reason but a timeout, the request is sent once more on a fresh dial,
// within the same deadline. A timeout is never retried, so a stalled node
// costs one deadline, not two.
func (c *Client) keptRoundTrip(ctx context.Context, request func([]byte) []byte, reply func(kc *keptConn, status []byte) (keep bool, err error)) error {
	b := c.budget(ctx)
	kc, reused, err := c.takeConn(b)
	if err != nil {
		return err
	}
	keep, started, err := kc.exchange(request, reply)
	if err != nil && reused && !started && !isTimeout(err) {
		kc.close()
		if kc, err = c.dialConn(b); err != nil {
			return err
		}
		keep, _, err = kc.exchange(request, reply)
	}
	if err != nil || !keep {
		kc.close()
		return err
	}
	c.putConn(kc)
	return nil
}

// isTimeout reports a deadline error, from net or from a fault fabric.
func isTimeout(err error) bool {
	var t interface{ Timeout() bool }
	return errors.As(err, &t) && t.Timeout()
}

// keptConn is a connection a Client keeps between calls of keep verbs. Its
// reader reads under the budget of the call holding it; buf is the scratch
// that call writes its request from and reads a reply into.
type keptConn struct {
	conn net.Conn
	r    *bufio.Reader
	b    budget
	buf  []byte
}

// takeConn hands out the most recently kept connection, or dials one;
// reused reports which.
func (c *Client) takeConn(b budget) (kc *keptConn, reused bool, err error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		kc = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		kc.b = b
		return kc, true, nil
	}
	c.mu.Unlock()
	kc, err = c.dialConn(b)
	return kc, false, err
}

func (c *Client) dialConn(b budget) (*keptConn, error) {
	conn, err := c.dial(b)
	if err != nil {
		return nil, err
	}
	kc := &keptConn{conn: conn, b: b}
	kc.r = getReader(phasedReader{conn: conn, phase: kc.phase})
	return kc, nil
}

// putConn keeps a connection whose reply was read whole, up to the cap.
func (c *Client) putConn(kc *keptConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleParts {
		c.idle = append(c.idle, kc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	kc.close()
}

func (kc *keptConn) phase() time.Time { return kc.b.phase() }

func (kc *keptConn) close() {
	_ = kc.conn.Close()
	putReader(kc.r)
}

// exchange writes one request in one write, reads the status line, and
// hands an OK reply to reply; an ERR status is the call's error. started
// reports whether any reply byte arrived — what decides if a failure may
// be retried.
func (kc *keptConn) exchange(request func([]byte) []byte, reply func(*keptConn, []byte) (bool, error)) (keep, started bool, err error) {
	kc.buf = request(kc.buf[:0])
	_ = kc.conn.SetWriteDeadline(kc.phase())
	if _, err := kc.conn.Write(kc.buf); err != nil {
		return false, false, err
	}
	status, err := kc.r.ReadSlice('\n')
	if err != nil {
		return false, len(status) > 0, err
	}
	if msg, ok := bytes.CutPrefix(bytes.TrimSpace(status), []byte("ERR")); ok {
		return false, true, fmt.Errorf("adminproto: %s", bytes.TrimSpace(msg))
	}
	keep, err = reply(kc, status)
	return keep, true, err
}

// readText reads a queryall reply's text up to its blank-line terminator,
// or to EOF, where an older server ends it; keep reports a reply that ended
// at its terminator with nothing read past it.
func (kc *keptConn) readText() (text string, keep bool, err error) {
	body := kc.buf[:0]
	for line := 0; ; {
		chunk, err := kc.r.ReadSlice('\n')
		body = append(body, chunk...)
		switch {
		case err == bufio.ErrBufferFull:
			continue // a line longer than the reader's buffer
		case errors.Is(err, io.EOF):
			return string(body), false, nil
		case err != nil:
			return "", false, err
		case len(body)-line == 1:
			kc.buf = body
			return string(body[:line]), kc.r.Buffered() == 0, nil
		}
		line = len(body)
	}
}

// readPart reads a querypart reply after its "OK <n>\n" status: exactly n
// bytes, at most query.MaxPartBytes, decoded in place from the reader's
// buffer when they fit it, and from buf when they do not. keep reports a
// part that decoded with nothing read past it. A status without a length
// (a leaf of a version before binary parts) and a reply cut short are
// errors.
func (kc *keptConn) readPart(status []byte) (p query.Part, keep bool, err error) {
	n, ok := partLength(status)
	if !ok {
		return p, false, fmt.Errorf("adminproto: querypart reply status %.32q is not OK <n> with n at most %d", status, query.MaxPartBytes)
	}
	var body []byte
	inPlace := n <= kc.r.Size()
	if inPlace {
		body, err = kc.r.Peek(n)
	} else {
		kc.buf = slices.Grow(kc.buf[:0], n)[:n]
		body = kc.buf
		_, err = io.ReadFull(kc.r, body)
	}
	if err != nil {
		return p, false, fmt.Errorf("adminproto: querypart reply cut short: %w", err)
	}
	p, err = query.DecodePart(body)
	if inPlace {
		_, _ = kc.r.Discard(n)
	}
	return p, err == nil && kc.r.Buffered() == 0, err
}

// partLength reads n from a querypart reply's "OK <n>\n" status line.
func partLength(status []byte) (int, bool) {
	digits, ok := bytes.CutPrefix(status, []byte("OK "))
	if !ok || len(digits) < 2 || len(digits) > 7 || digits[len(digits)-1] != '\n' {
		return 0, false
	}
	n := 0
	for _, d := range digits[:len(digits)-1] {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, n <= query.MaxPartBytes
}
