// Package adminproto implements the dprocd admin protocol: a line-oriented
// TCP interface through which dprocctl (or any tool) reads and writes a
// node's /proc/cluster pseudo-filesystem. One request per connection, with
// two exceptions — queryall and querypart, below:
//
//	ls <path>\n              → OK\n<entry per line, dirs suffixed with "/">
//	cat <path>\n             → OK\n<file contents>
//	tree [path]\n            → OK\n<indented hierarchy>
//	status\n                 → OK\n<node status lines>
//	stats\n                  → OK\n<self-observability report>
//	write <path>\n<body EOF> → OK\n
//	query <node> <query>\n   → OK\n<windowed aggregate result>
//	queryall <query>\n       → OK\n<cluster-wide merged aggregate>\n
//	querypart <n>\n<n bytes> → OK <m>\n<m bytes: this node's part>
//
// query is sugar over the cluster/<node>/query pseudo-file: it writes the
// query string and reads the result back in one round trip; stats is sugar
// over cluster/<self>/stats. queryall scatter-gathers the query across every
// node registered on the admin channel and merges the parts (histogram
// merge for percentiles — never averaged); querypart is the internal verb
// the coordinator fans out. Its request line gives the length of the binary
// normalized query that follows it (tsdb.Query.AppendBinary: an absolute
// window by construction), and its OK status line the length of the binary
// part that follows that (query.Part.AppendBinary), both capped.
//
// queryall and querypart are the keep verbs, the ones a connection
// outlives: the server reads the next request on the same connection after
// an OK reply, so an operator's client and a coordinator's fan-out keep
// their connections open across queries. A queryall reply ends with a blank
// line; a querypart reply ends after its m bytes. Every other verb is
// answered once and the connection closed — write's body ends at EOF, and
// cat's contents may hold blank lines — and so is every ERR reply. A script
// that wants EOF half-closes after its request (dprocctl, nc -N, ncat) and
// gets EOF after any reply.
//
// Every verb is an entry in one table (Verbs) carrying its name, argument
// schema and handler; the server dispatch, its usage errors and dprocctl's
// usage text all derive from that table, so adding a verb is one entry, not
// three hand-synchronized switch arms.
//
// Errors come back as a single "ERR <message>" line. The protocol exists so
// the pseudo-filesystem contract of the paper ("simple reads and writes to
// control files") survives the lack of a real kernel mount: any process on
// the machine can still script against the hierarchy.
package adminproto

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/query"
	"dproc/internal/wire"
)

// DefaultTimeout bounds each server-side request/response phase. It used
// to be a single whole-connection deadline; a multi-second flush or
// windowed query against a slow disk would kill the connection
// mid-response. Now every phase (read the request, write each chunk of the
// response) gets a fresh deadline, so slow-but-alive requests complete
// while a genuinely stalled peer still times out.
const DefaultTimeout = 30 * time.Second

// Request size caps. A request line longer than maxRequestLine (newline
// included) and a write body longer than maxWriteBody get one short ERR line
// and the connection closed, so a hostile or broken client costs a
// connection at most this much memory, and its reply never echoes it back.
// The body cap leaves room above ecode's 64 KiB filter-source cap for what a
// control file wraps around the source.
const (
	maxRequestLine = 4096
	maxWriteBody   = 128 << 10
)

// Server serves the admin protocol for one node.
type Server struct {
	ln   net.Listener
	node *core.Node
	// timeout bounds each request/response phase: the node's AdminTimeout,
	// DefaultTimeout when that is zero.
	timeout time.Duration
	// fanout is the node's QueryTimeout and QueryFanout, for every queryall
	// and cluster export it coordinates (query's defaults where zero).
	fanout query.Options
	// io is the transport's I/O clock (clock.IO): phase deadlines, the
	// heartbeat pace and the roster's age run on it.
	io clock.Clock
	// every is the node's Channel.ReconnectInterval: the admin heartbeat's
	// pace and the age at which the roster is looked up again.
	every time.Duration
	wg    sync.WaitGroup

	hbStop chan struct{} // admin-channel heartbeat loop, nil when off

	mu     sync.Mutex
	closed bool
	// clients holds one fan-out client per peer admin address, each with
	// its kept querypart connections; entries go when the peer leaves the
	// target set, all of them at Close.
	clients map[string]*Client
	// roster is the fan-out target set the last admin-channel lookup
	// returned (targets).
	roster roster
	// idle holds the kept connections parked between requests, at most
	// maxParked, which Close shuts rather than waiting out their phase
	// timeout.
	idle map[net.Conn]struct{}

	// Limit-hit counters of the request caps, in the node's registry: how
	// often a request line, a write body or a parked connection was turned
	// away at its cap (DESIGN §6).
	lineOverCap, bodyOverCap, parkedOverCap *atomic.Uint64
}

// NewServer starts an admin server for node on addr (e.g. "127.0.0.1:0"),
// configured by the node's core.Config: AdminTimeout, QueryTimeout and
// QueryFanout. If the node has a registry, the server joins the admin
// channel (so peers can enumerate it for scatter-gather queries) and
// heartbeats that registration like the node's channels do. It installs the
// cluster/query control file on the node, and listens and dials on
// node.Transport().
func NewServer(node *core.Node, addr string) (*Server, error) {
	cfg := node.Config()
	timeout := cfg.AdminTimeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	ln, err := node.Transport().Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("adminproto: listen: %w", err)
	}
	reg := node.Metrics()
	s := &Server{ln: ln, node: node, io: clock.IO(node.Transport()), every: cfg.Channel.ReconnectInterval,
		timeout: timeout, fanout: query.Options{Timeout: cfg.QueryTimeout, Concurrency: cfg.QueryFanout},
		clients: map[string]*Client{}, idle: map[net.Conn]struct{}{},
		lineOverCap:   reg.Counter("admin", "", "request_line_over_cap"),
		bodyOverCap:   reg.Counter("admin", "", "write_body_over_cap"),
		parkedOverCap: reg.Counter("admin", "", "parked_over_cap")}
	s.advertise()
	node.SetClusterQuerier(s.QueryAll)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the address clients should dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for in-flight requests. Kept
// connections waiting for their next request are closed, not waited for,
// and so are this node's own kept fan-out connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.idle {
		_ = conn.Close()
	}
	clients := s.clients
	s.clients = nil
	s.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	if s.hbStop != nil {
		close(s.hbStop)
	}
	s.unadvertise()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serve(conn)
		}()
	}
}

// Verb is one admin-protocol command: its wire name, argument schema and
// handler. The table below is the protocol's single definition — the server
// dispatches from it, usage errors derive from Args, and dprocctl renders
// its usage text from Name, CLIArgs and Help.
type Verb struct {
	// Name is the verb as written on the wire and the CLI.
	Name string
	// Args is the wire-side argument synopsis; usage errors are
	// "usage: <Name> <Args>".
	Args string
	// CLIArgs is the dprocctl-side synopsis when it differs from Args
	// (write takes inline data or "-" for stdin on the CLI).
	CLIArgs string
	// Help is the one-line description for usage listings.
	Help string
	// MinArgs is how many arguments the verb requires on the wire.
	MinArgs int
	// Body marks verbs that read a request body after the command line.
	Body bool

	// run answers the request through reply; an error it returns is the
	// reply instead, as one ERR line.
	run func(s *Server, args []string, body *bufio.Reader, reply replyFunc) error
	// keep leaves the connection open for another request once an OK reply
	// is written; only queryall and querypart, whose replies are framed.
	keep bool
}

// replyFunc writes one piece of a reply to the connection.
type replyFunc func([]byte)

// text writes s.
func (reply replyFunc) text(s string) { reply([]byte(s)) }

// verbs is the protocol definition, in listing order.
var verbs = []Verb{
	{Name: "ls", Args: "[path]", Help: "list a directory", run: runLs},
	{Name: "cat", Args: "<path>", MinArgs: 1, Help: "print a pseudo-file", run: runCat},
	{Name: "tree", Args: "[path]", Help: "print the hierarchy", run: runTree},
	{Name: "status", Help: "print node status", run: runStatus},
	{Name: "stats", Help: "print the node's self-observability report", run: runStats},
	{Name: "write", Args: "<path> then body until EOF", CLIArgs: "<path> <data...|->", MinArgs: 1, Body: true,
		Help: "write a control file", run: runWrite},
	{Name: "query", Args: "<node> <agg> <metric> [window]",
		CLIArgs: "<node> <agg> <metric> [from <t> to <t> | last <dur>] [@<res>]",
		MinArgs: 2, Help: "run a windowed aggregate over a node's history", run: runQuery},
	{Name: "flush", Help: "seal the active WAL segment, making all history durable", run: runFlush},
	{Name: "queryall", Args: "<agg> <metric> [window]",
		CLIArgs: "<agg> <metric> [from <t> to <t> | last <dur>] [@<res>]",
		MinArgs: 2, Help: "scatter-gather a windowed aggregate across every registered node", run: runQueryAll, keep: true},
	{Name: "querypart", Args: "<n> then n bytes of binary query", MinArgs: 1, Body: true,
		Help: "answer this node's share of a cluster query (internal)", run: runQueryPart, keep: true},
}

// Verbs returns the protocol's verb table in listing order.
func Verbs() []Verb {
	out := make([]Verb, len(verbs))
	copy(out, verbs)
	return out
}

// LookupVerb finds a verb by name.
func LookupVerb(name string) (Verb, bool) {
	for _, v := range verbs {
		if v.Name == name {
			return v, true
		}
	}
	return Verb{}, false
}

// verbNames lists every verb name, for the unknown-command error.
func verbNames() string {
	names := make([]string, len(verbs))
	for i, v := range verbs {
		names[i] = v.Name
	}
	return strings.Join(names, ", ")
}

// phasedReader refreshes the connection's read deadline before every Read,
// bounding each idle gap rather than the whole connection. The phase hook
// returns the next deadline, letting the client additionally cap all phases
// with one absolute deadline (the scatter-gather per-node budget).
type phasedReader struct {
	conn  net.Conn
	phase func() time.Time
}

func (p phasedReader) Read(b []byte) (int, error) {
	_ = p.conn.SetReadDeadline(p.phase())
	return p.conn.Read(b)
}

// readerPool recycles the buffered readers of admin connections: most
// connections carry one request, so without it every request allocates one
// on each side. A reader goes back with its source reset to nil once the
// connection is done — handlers read the body synchronously, so nothing
// holds it past that. Its buffer is one request line: serveOne reads the
// line in place and refuses one that does not fit.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, maxRequestLine) }}

func getReader(src io.Reader) *bufio.Reader {
	r := readerPool.Get().(*bufio.Reader)
	r.Reset(src)
	return r
}

func putReader(r *bufio.Reader) {
	r.Reset(nil)
	readerPool.Put(r)
}

func (s *Server) serve(conn net.Conn) {
	phase := func() time.Time { return s.io.Now().Add(s.timeout) }
	r := getReader(phasedReader{conn: conn, phase: phase})
	defer putReader(r)
	// Each write gets a fresh deadline too: a long-running handler (flush
	// against a slow disk, a cluster fan-out) may exhaust an earlier
	// deadline purely computing, which must not poison the response writes.
	reply := func(b []byte) {
		_ = conn.SetWriteDeadline(phase())
		_, _ = conn.Write(b)
	}
	for s.serveOne(r, reply) && s.awaitRequest(conn, r) {
	}
}

// serveOne reads and answers one request, reporting whether the connection
// stays open for another: only after an OK reply to a keep verb whose
// request line ended in a newline (one that ended at EOF had its writer
// half-close).
func (s *Server) serveOne(r *bufio.Reader, reply replyFunc) bool {
	raw, lineErr := r.ReadSlice('\n')
	if errors.Is(lineErr, bufio.ErrBufferFull) {
		s.lineOverCap.Add(1)
		reply.text("ERR request line over " + strconv.Itoa(maxRequestLine) + " bytes\n")
		return false
	}
	// A complete line (newline- or EOF-terminated) is a request; a read
	// error with a partial line is a stalled or dead client — drop it
	// rather than interpreting half a command.
	if lineErr != nil && (len(raw) == 0 || !errors.Is(lineErr, io.EOF)) {
		return false
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 {
		reply.text("ERR empty command\n")
		return false
	}
	v, ok := LookupVerb(fields[0])
	if !ok {
		name := fields[0]
		if len(name) > 32 {
			name = name[:32] + "..."
		}
		reply.text("ERR unknown command " + name + " (have " + verbNames() + ")\n")
		return false
	}
	args := fields[1:]
	if len(args) < v.MinArgs {
		reply.text("ERR usage: " + v.Name + " " + v.Args + "\n")
		return false
	}
	if err := v.run(s, args, r, reply); err != nil {
		reply.text("ERR " + err.Error() + "\n")
		return false
	}
	return v.keep && lineErr == nil
}

// maxParked caps the kept connections a server parks between requests, each
// one goroutine for up to a phase timeout. Clients keep at most maxIdleParts
// connections each, so it allows 64 such clients — a coordinator per peer of
// a 64-node cluster, or operators — at once; a connection past it closes
// after its reply, and its client's next call dials afresh.
const maxParked = 256

// awaitRequest parks a kept connection until its next request starts to
// arrive, reporting false on EOF, on the phase timeout, when maxParked
// connections are already parked, or when the server closes — Close shuts
// parked connections, so a coordinator's idle one cannot hold shutdown for
// a whole phase timeout.
func (s *Server) awaitRequest(conn net.Conn, r *bufio.Reader) bool {
	s.mu.Lock()
	if s.closed || len(s.idle) >= maxParked {
		if !s.closed {
			s.parkedOverCap.Add(1)
		}
		s.mu.Unlock()
		return false
	}
	s.idle[conn] = struct{}{}
	s.mu.Unlock()
	_, err := r.Peek(1)
	s.mu.Lock()
	delete(s.idle, conn)
	s.mu.Unlock()
	return err == nil
}

func runLs(s *Server, args []string, _ *bufio.Reader, reply replyFunc) error {
	path := ""
	if len(args) > 0 {
		path = args[0]
	}
	entries, err := s.node.FS().ReadDir(path)
	if err != nil {
		return err
	}
	reply.text("OK\n")
	for _, e := range entries {
		name := e.Name
		if e.IsDir {
			name += "/"
		}
		reply.text(name + "\n")
	}
	return nil
}

func runCat(s *Server, args []string, _ *bufio.Reader, reply replyFunc) error {
	content, err := s.node.FS().ReadFile(args[0])
	if err != nil {
		return err
	}
	reply.text("OK\n" + content)
	return nil
}

func runTree(s *Server, args []string, _ *bufio.Reader, reply replyFunc) error {
	path := "cluster"
	if len(args) > 0 {
		path = args[0]
	}
	tree, err := s.node.FS().Tree(path)
	if err != nil {
		return err
	}
	reply.text("OK\n" + tree)
	return nil
}

func runStatus(s *Server, _ []string, _ *bufio.Reader, reply replyFunc) error {
	reply.text("OK\n")
	d := s.node.DMon()
	reply.text(fmt.Sprintf("node %s\nmodules %s\nfilter_errors %d\n",
		s.node.Name(), strings.Join(d.Modules(), ","), d.FilterErrors()))
	for _, remote := range d.Store().Nodes() {
		if remote == s.node.Name() {
			continue // the store holds self history too; self is not a peer
		}
		last, count := d.Store().LastReport(remote)
		reply.text(fmt.Sprintf("peer %s reports=%d last=%s\n",
			remote, count, last.Format(time.RFC3339)))
	}
	return nil
}

func runStats(s *Server, _ []string, _ *bufio.Reader, reply replyFunc) error {
	reply.text("OK\n" + s.node.StatsText())
	return nil
}

func runWrite(s *Server, args []string, body *bufio.Reader, reply replyFunc) error {
	data, err := io.ReadAll(io.LimitReader(body, maxWriteBody+1))
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if len(data) > maxWriteBody {
		s.bodyOverCap.Add(1)
		return errors.New("write body over " + strconv.Itoa(maxWriteBody) + " bytes")
	}
	if err := s.node.FS().WriteFile(args[0], string(data)); err != nil {
		return err
	}
	reply.text("OK\n")
	return nil
}

func runFlush(s *Server, _ []string, _ *bufio.Reader, reply replyFunc) error {
	if err := s.node.FlushHistory(); err != nil {
		return err
	}
	if s.node.DMon().Store().Persistent() {
		reply.text("OK\nflushed\n")
		return nil
	}
	reply.text("OK\nmemory-only store, nothing to flush\n")
	return nil
}

func runQuery(s *Server, args []string, _ *bufio.Reader, reply replyFunc) error {
	fs := s.node.FS()
	path := "cluster/" + args[0] + "/query"
	if err := fs.WriteFile(path, strings.Join(args[1:], " ")); err != nil {
		return err
	}
	result, err := fs.ReadFile(path)
	if err != nil {
		return err
	}
	reply.text("OK\n" + result)
	return nil
}

// DefaultClientTimeout bounds each client-side phase: the dial, the request
// write, and every read of the response. Like the server's, it is per
// phase, not per connection — a response trickling in over longer than the
// timeout succeeds as long as no single gap exceeds it.
const DefaultClientTimeout = 10 * time.Second

// Client issues admin protocol requests. It is safe for concurrent use once
// configured: queryall and querypart calls share its kept connections.
type Client struct {
	addr      string
	timeout   time.Duration  // per-phase; DefaultClientTimeout when 0
	transport wire.Transport // plain TCP unless SetTransport
	io        clock.Clock    // the transport's I/O clock (clock.IO)

	mu     sync.Mutex
	idle   []*keptConn // kept connections, most recent last
	closed bool        // Close ran: connections close after their call
}

// NewClient returns a client for the admin server at addr.
func NewClient(addr string) *Client {
	return &Client{addr: addr, transport: wire.TCP{}, io: clock.NewReal()}
}

// SetTimeout sets the per-phase timeout (dprocctl -timeout).
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// SetTransport routes dials through tr (fault-injection fabrics), and the
// client's phase deadlines onto tr's I/O clock.
func (c *Client) SetTransport(tr wire.Transport) { c.transport, c.io = tr, clock.IO(tr) }

// Close closes the client's kept connections; a call in flight finishes and
// then closes its own. A client keeps connections only from queryall and
// querypart calls.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, pc := range idle {
		pc.close()
	}
}

// budget is one request's time allowance: every I/O phase gets timeout,
// and all of them end by deadline when it is set. Both are read on clk, the
// client's I/O clock.
type budget struct {
	timeout  time.Duration
	deadline time.Time
	clk      clock.Clock
}

// phase returns the deadline for the next I/O phase: now+timeout, capped
// by the absolute deadline when one is set.
func (b budget) phase() time.Time {
	d := b.clk.Now().Add(b.timeout)
	if !b.deadline.IsZero() && b.deadline.Before(d) {
		d = b.deadline
	}
	return d
}

// budget returns the allowance for one request: the client's per-phase
// timeout, and ctx's deadline as the absolute cap — how the scatter-gather
// coordinator keeps one node's fetch within its per-node budget no matter
// how many phases it spans.
func (c *Client) budget(ctx context.Context) budget {
	b := budget{timeout: c.timeout, clk: c.io}
	if b.timeout <= 0 {
		b.timeout = DefaultClientTimeout
	}
	b.deadline, _ = ctx.Deadline()
	return b
}

// dial opens a connection to the server within b's next phase.
func (c *Client) dial(b budget) (net.Conn, error) {
	dialBudget := b.phase().Sub(b.clk.Now())
	if dialBudget <= 0 {
		return nil, fmt.Errorf("adminproto: dial %s: deadline exceeded", c.addr)
	}
	conn, err := c.transport.DialTimeout("tcp", c.addr, dialBudget)
	if err != nil {
		return nil, fmt.Errorf("adminproto: dial %s: %w", c.addr, err)
	}
	return conn, nil
}

// roundTrip performs one request of a verb that keeps no connection, on a
// connection of its own, half-closing after the request and reading the
// reply to EOF; body may be nil.
func (c *Client) roundTrip(header string, body []byte) (string, error) {
	b := c.budget(context.Background())
	conn, err := c.dial(b)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	_ = conn.SetWriteDeadline(b.phase())
	if _, err := io.WriteString(conn, header); err != nil {
		return "", err
	}
	if body != nil {
		_ = conn.SetWriteDeadline(b.phase())
		if _, err := conn.Write(body); err != nil {
			return "", err
		}
	}
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		if err := cw.CloseWrite(); err != nil {
			return "", err
		}
	}
	r := getReader(phasedReader{conn: conn, phase: b.phase})
	defer putReader(r)
	status, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return "", err
	}
	status = strings.TrimSpace(status)
	if strings.HasPrefix(status, "ERR") {
		return "", fmt.Errorf("adminproto: %s", strings.TrimPrefix(status, "ERR "))
	}
	return string(rest), nil
}

// List returns the entries of a directory (dirs suffixed with "/").
func (c *Client) List(path string) ([]string, error) {
	out, err := c.roundTrip("ls "+path+"\n", nil)
	if err != nil {
		return nil, err
	}
	var entries []string
	for _, line := range strings.Split(out, "\n") {
		if line != "" {
			entries = append(entries, line)
		}
	}
	return entries, nil
}

// Cat returns a pseudo-file's contents.
func (c *Client) Cat(path string) (string, error) {
	return c.roundTrip("cat "+path+"\n", nil)
}

// Tree returns the indented hierarchy rooted at path.
func (c *Client) Tree(path string) (string, error) {
	if path == "" {
		path = "cluster"
	}
	return c.roundTrip("tree "+path+"\n", nil)
}

// Status returns the node's status block.
func (c *Client) Status() (string, error) {
	return c.roundTrip("status\n", nil)
}

// Stats returns the node's self-observability report: counters, gauges,
// latency distributions (p50/p95/p99) and recent sampled traces.
func (c *Client) Stats() (string, error) {
	return c.roundTrip("stats\n", nil)
}

// Flush asks the node to seal its active WAL segment, making all appended
// history durable regardless of the fsync cadence.
func (c *Client) Flush() (string, error) {
	return c.roundTrip("flush\n", nil)
}

// Write delivers data to a pseudo-file (typically a control file).
func (c *Client) Write(path, data string) error {
	_, err := c.roundTrip("write "+path+"\n", []byte(data))
	return err
}

// Query runs a windowed aggregate query against one node's history via the
// cluster/<node>/query control file and returns the rendered result.
func (c *Client) Query(node, query string) (string, error) {
	return c.roundTrip("query "+node+" "+query+"\n", nil)
}
