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
	"strings"
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

// DefaultHeartbeat refreshes the admin-channel registration, keeping the
// node enumerable across registry TTL expiry.
const DefaultHeartbeat = 5 * time.Second

// advertise joins the admin channel (when the node has a registry and the
// options allow it) and starts the heartbeat loop that keeps the
// registration alive.
func (s *Server) advertise() {
	reg := s.node.Registry()
	if reg == nil || s.opts.NoAdvertise {
		return
	}
	// Join errors are tolerated: the node still answers queryall for itself,
	// and the heartbeat below re-registers once the registry is reachable.
	_, _ = reg.Join(AdminChannel, s.node.Name(), s.Addr())
	every := s.opts.HeartbeatEvery
	if every < 0 {
		return
	}
	if every == 0 {
		every = DefaultHeartbeat
	}
	s.hbStop = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Paced on the I/O clock: the heartbeat refreshes a TTL the registry
		// ages on its own clock, not on this node's.
		for clock.Wait(s.io, every, s.hbStop) {
			_, _ = reg.Heartbeat(AdminChannel, s.node.Name(), s.Addr())
		}
	}()
}

// unadvertise leaves the admin channel on shutdown.
func (s *Server) unadvertise() {
	if reg := s.node.Registry(); reg != nil && !s.opts.NoAdvertise {
		_ = reg.Leave(AdminChannel, s.node.Name())
	}
}

// targets enumerates the scatter-gather fan-out: every admin endpoint on the
// registry channel, self included even if its own registration has lapsed.
// Standalone nodes (no registry) query themselves only.
func (s *Server) targets() []query.Target {
	self := query.Target{Node: s.node.Name(), Addr: s.Addr()}
	reg := s.node.Registry()
	if reg == nil {
		return []query.Target{self}
	}
	members, err := reg.Lookup(AdminChannel)
	if err != nil {
		return []query.Target{self}
	}
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
	targets = query.SortTargets(targets)
	s.forgetDeparted(targets)
	return targets
}

// forgetDeparted closes the fan-out clients of addresses no longer among
// the targets. Self has no client, so while every client is still a target
// there are fewer clients than targets and the scan is skipped; a departed
// peer is forgotten by the first fan-out that no longer lists it, or, when
// another peer joined in its place, by the one after.
func (s *Server) forgetDeparted(targets []query.Target) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		c.SetTransport(s.opts.Transport)
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
	return s.clientFor(t.Addr).QueryPartContext(ctx, q)
}

// localPart answers this node's share of a normalized query from its own
// store.
func (s *Server) localPart(q tsdb.Query) (query.Part, error) {
	series := dmon.SeriesKey(s.node.Name(), q.Metric)
	return query.ComputePart(s.node.DMon().Store().TSDB(), series, q)
}

// QueryAllResult parses text as a windowed aggregate query and
// scatter-gathers it across every registered node, returning the structured
// merged result. Node failures annotate the result (Partial); only an
// unusable query or empty cluster is an error.
func (s *Server) QueryAllResult(text string) (query.Result, error) {
	q, err := tsdb.ParseQuery(text)
	if err != nil {
		return query.Result{}, err
	}
	return query.Run(context.Background(), s.targets(), q, s.node.Clock().Now(), s.fetchPart,
		query.Options{Timeout: s.opts.QueryTimeout, Concurrency: s.opts.QueryConcurrency})
}

// QueryAll runs QueryAllResult and renders it as control-file text; it backs
// both the queryall verb and the node's cluster/query control file.
func (s *Server) QueryAll(text string) (string, error) {
	res, err := s.QueryAllResult(text)
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// ClusterExporter returns a Prometheus appender that scatter-gathers the
// given history metrics over a trailing window on every scrape, emitting
// dproc_cluster_* series (mounted on /metrics via obs.ServeMetrics).
func (s *Server) ClusterExporter(metrics []string, window time.Duration) *query.ClusterExport {
	return &query.ClusterExport{
		Metrics: metrics,
		Window:  window,
		Targets: s.targets,
		Fetch:   s.fetchPart,
		Now:     func() time.Time { return s.node.Clock().Now() },
		Options: query.Options{Timeout: s.opts.QueryTimeout, Concurrency: s.opts.QueryConcurrency},
	}
}

func runQueryAll(s *Server, args []string, _ *bufio.Reader, reply func(string)) {
	out, err := s.QueryAll(strings.Join(args, " "))
	if err != nil {
		reply("ERR " + err.Error() + "\n")
		return
	}
	reply("OK\n" + out)
}

// runQueryPart answers one node's share of a scatter-gather: the local
// aggregate (or raw histogram buckets, for percentiles) over the
// already-normalized absolute window the coordinator sends. It refuses
// relative windows — normalization is the coordinator's job, and accepting
// "last 5m" here would silently re-anchor it on this node's clock. The OK
// reply ends with a blank line, which is how a coordinator on a kept
// connection knows the part is whole.
func runQueryPart(s *Server, args []string, _ *bufio.Reader, reply func(string)) {
	q, err := tsdb.ParseQuery(strings.Join(args, " "))
	if err != nil {
		reply("ERR " + err.Error() + "\n")
		return
	}
	if q.Last > 0 || q.From == 0 && q.To == 0 {
		reply("ERR querypart needs an absolute window\n")
		return
	}
	p, err := s.localPart(q)
	if err != nil {
		reply("ERR " + err.Error() + "\n")
		return
	}
	reply("OK\n" + p.Render() + "\n")
}

// QueryAll scatter-gathers a windowed aggregate across every node registered
// on the coordinator's admin channel and returns the rendered merged result
// (with per-node provenance lines).
func (c *Client) QueryAll(q string) (string, error) {
	return c.roundTrip("queryall "+q+"\n", nil)
}

// QueryPart asks one node for its part of a normalized query — what the
// scatter-gather coordinator calls per target — under the client's own
// timeout and deadline.
func (c *Client) QueryPart(q tsdb.Query) (query.Part, error) {
	return c.QueryPartContext(context.Background(), q)
}

// maxIdleParts caps the querypart connections a Client keeps open: one is
// enough for one fan-out at a time, and a few cover the coordinator's
// overlapping queries (a queryall beside a metrics scrape) without
// redialing; beyond that a call's connection closes after it.
const maxIdleParts = 4

// errUnterminated marks a querypart reply cut short: without the blank
// line that ends it, the part cannot be told from its first few lines.
var errUnterminated = errors.New("adminproto: querypart reply ended before its terminator")

// QueryPartContext is QueryPart with ctx's deadline capping the whole call.
// It reuses a kept connection when the client has one, and keeps the
// connection afterwards. A kept connection can have been closed by the
// server while idle (its phase timeout, a restart): if it fails before the
// first reply byte for any reason but a timeout, the request is sent once
// more on a fresh dial, within the same deadline. A timeout is never
// retried, so a stalled node costs one deadline, not two.
func (c *Client) QueryPartContext(ctx context.Context, q tsdb.Query) (query.Part, error) {
	b := c.budget(ctx)
	header := "querypart " + q.String() + "\n"
	pc, reused, err := c.takePart(b)
	if err != nil {
		return query.Part{}, err
	}
	body, started, err := pc.exchange(header)
	if err != nil && reused && !started && !isTimeout(err) {
		pc.close()
		if pc, err = c.dialPart(b); err != nil {
			return query.Part{}, err
		}
		body, _, err = pc.exchange(header)
	}
	if err != nil {
		pc.close()
		return query.Part{}, err
	}
	p, err := query.ParsePart(string(body))
	c.putPart(pc)
	return p, err
}

// isTimeout reports a deadline error, from net or from a fault fabric.
func isTimeout(err error) bool {
	var t interface{ Timeout() bool }
	return errors.As(err, &t) && t.Timeout()
}

// partConn is a querypart connection a Client keeps between calls. Its
// reader reads under the budget of the call holding it; body is the reply
// scratch that call reads into.
type partConn struct {
	conn net.Conn
	r    *bufio.Reader
	b    budget
	body []byte
}

// takePart hands out the most recently kept connection, or dials one;
// reused reports which.
func (c *Client) takePart(b budget) (pc *partConn, reused bool, err error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		pc = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		pc.b = b
		return pc, true, nil
	}
	c.mu.Unlock()
	pc, err = c.dialPart(b)
	return pc, false, err
}

func (c *Client) dialPart(b budget) (*partConn, error) {
	conn, err := c.dial(b)
	if err != nil {
		return nil, err
	}
	pc := &partConn{conn: conn, b: b}
	pc.r = getReader(phasedReader{conn: conn, phase: pc.phase})
	return pc, nil
}

// putPart keeps a connection whose reply was read whole, up to the cap.
func (c *Client) putPart(pc *partConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleParts {
		c.idle = append(c.idle, pc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	pc.close()
}

func (pc *partConn) phase() time.Time { return pc.b.phase() }

func (pc *partConn) close() {
	_ = pc.conn.Close()
	putReader(pc.r)
}

// exchange sends one querypart request and reads the OK reply up to its
// blank-line terminator, returning the part text. started reports whether
// any reply byte arrived — what decides if a failure may be retried.
func (pc *partConn) exchange(header string) (part []byte, started bool, err error) {
	_ = pc.conn.SetWriteDeadline(pc.phase())
	if _, err := io.WriteString(pc.conn, header); err != nil {
		return nil, false, err
	}
	status, err := pc.r.ReadSlice('\n')
	if err != nil {
		return nil, len(status) > 0, err
	}
	if msg, ok := bytes.CutPrefix(bytes.TrimSpace(status), []byte("ERR")); ok {
		return nil, true, fmt.Errorf("adminproto: %s", bytes.TrimSpace(msg))
	}
	body := pc.body[:0]
	for line := 0; ; {
		chunk, err := pc.r.ReadSlice('\n')
		body = append(body, chunk...)
		switch {
		case err == bufio.ErrBufferFull:
			continue // a line longer than the reader's buffer
		case errors.Is(err, io.EOF):
			return nil, true, errUnterminated
		case err != nil:
			return nil, true, err
		case len(body)-line == 1:
			pc.body = body
			return body[:line], true, nil
		}
		line = len(body)
	}
}
