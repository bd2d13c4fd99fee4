// Package adminproto implements the dprocd admin protocol: a line-oriented
// TCP interface through which dprocctl (or any tool) reads and writes a
// node's /proc/cluster pseudo-filesystem. One request per connection, with
// one exception — querypart, below:
//
//	ls <path>\n              → OK\n<entry per line, dirs suffixed with "/">
//	cat <path>\n             → OK\n<file contents>
//	tree [path]\n            → OK\n<indented hierarchy>
//	status\n                 → OK\n<node status lines>
//	stats\n                  → OK\n<self-observability report>
//	write <path>\n<body EOF> → OK\n
//	query <node> <query>\n   → OK\n<windowed aggregate result>
//	queryall <query>\n       → OK\n<cluster-wide merged aggregate>
//	querypart <query>\n      → OK\n<this node's part, wire form>
//
// query is sugar over the cluster/<node>/query pseudo-file: it writes the
// query string and reads the result back in one round trip; stats is sugar
// over cluster/<self>/stats. queryall scatter-gathers the query across every
// node registered on the admin channel and merges the parts (histogram
// merge for percentiles — never averaged); querypart is the internal verb
// the coordinator fans out, answering over an absolute pre-normalized
// window only.
//
// querypart is the one verb a connection outlives: its OK reply ends with
// a blank line, and the server then reads the next request on the same
// connection, so a coordinator keeps its fan-out connections open across
// queries. Every operator verb is answered once and the connection closed,
// so scripts that read to EOF (dprocctl, nc) see no change; a client that
// half-closes after a querypart gets EOF after its reply the same way.
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
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
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

// Transport supplies the listen/dial primitives, so fault harnesses can
// route admin traffic through an injected fabric (faultnet.Host satisfies
// it). Nil selects plain TCP.
type Transport interface {
	Listen(network, address string) (net.Listener, error)
	DialTimeout(network, address string, timeout time.Duration) (net.Conn, error)
}

type tcpTransport struct{}

func (tcpTransport) Listen(network, address string) (net.Listener, error) {
	return net.Listen(network, address)
}

func (tcpTransport) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout(network, address, timeout)
}

// ServerOptions tunes one admin server; the zero value is a production
// default (threaded from core.Config by dprocd).
type ServerOptions struct {
	// Timeout bounds each request/response phase (DefaultTimeout when 0).
	Timeout time.Duration
	// QueryTimeout is the per-node budget of a queryall fan-out
	// (query.DefaultTimeout when 0).
	QueryTimeout time.Duration
	// QueryConcurrency bounds in-flight queryall fetches
	// (query.DefaultConcurrency when 0).
	QueryConcurrency int
	// Transport supplies listen/dial (nil = plain TCP).
	Transport Transport
	// NoAdvertise skips joining the admin registry channel; the node then
	// answers queryall for itself only.
	NoAdvertise bool
	// HeartbeatEvery refreshes the admin-channel registration so TTL-expiring
	// registries keep the node enumerable (DefaultHeartbeat when 0, <0
	// disables).
	HeartbeatEvery time.Duration
}

// Server serves the admin protocol for one node.
type Server struct {
	ln   net.Listener
	node *core.Node
	opts ServerOptions
	// io is the transport's I/O clock (clock.IO): phase deadlines and the
	// heartbeat pace run on it.
	io clock.Clock
	wg sync.WaitGroup

	hbStop chan struct{} // admin-channel heartbeat loop, nil when off

	mu     sync.Mutex
	closed bool
	// clients holds one fan-out client per peer admin address, each with
	// its kept querypart connections; entries go when the peer leaves the
	// target set, all of them at Close.
	clients map[string]*Client
	// idle holds the kept querypart connections parked between requests,
	// which Close shuts rather than waiting out their phase timeout.
	idle map[net.Conn]struct{}
}

// NewServer starts an admin server for node on addr (e.g. "127.0.0.1:0")
// with default options.
func NewServer(node *core.Node, addr string) (*Server, error) {
	return NewServerWith(node, addr, ServerOptions{})
}

// NewServerWith starts an admin server with explicit options. If the node
// has a registry, the server joins the admin channel (so peers can
// enumerate it for scatter-gather queries) and installs the cluster/query
// control file on the node.
func NewServerWith(node *core.Node, addr string, opts ServerOptions) (*Server, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	tr := opts.Transport
	if tr == nil {
		tr = tcpTransport{}
	}
	ln, err := tr.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("adminproto: listen: %w", err)
	}
	s := &Server{ln: ln, node: node, opts: opts, io: clock.IO(opts.Transport),
		clients: map[string]*Client{}, idle: map[net.Conn]struct{}{}}
	s.advertise()
	node.SetClusterQuerier(s.QueryAll)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the address clients should dial.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for in-flight requests. Kept querypart
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

	run func(s *Server, args []string, body *bufio.Reader, reply func(string))
	// keep leaves the connection open for another request once the reply
	// is written; only querypart, whose OK reply ends with a blank line.
	keep bool
}

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
		MinArgs: 2, Help: "scatter-gather a windowed aggregate across every registered node", run: runQueryAll},
	{Name: "querypart", Args: "<agg> <metric> from <t> to <t>",
		MinArgs: 2, Help: "answer this node's share of a cluster query (internal)", run: runQueryPart, keep: true},
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
	timeout := s.opts.Timeout
	phase := func() time.Time { return s.io.Now().Add(timeout) }
	r := getReader(phasedReader{conn: conn, phase: phase})
	defer putReader(r)
	// Each write gets a fresh deadline too: a long-running handler (flush
	// against a slow disk, a cluster fan-out) may exhaust an earlier
	// deadline purely computing, which must not poison the response writes.
	reply := func(str string) {
		_ = conn.SetWriteDeadline(phase())
		_, _ = io.WriteString(conn, str)
	}
	for s.serveOne(r, reply) && s.awaitRequest(conn, r) {
	}
}

// serveOne reads and answers one request, reporting whether the connection
// stays open for another: only after a keep verb whose request line ended
// in a newline (one that ended at EOF had its writer half-close).
func (s *Server) serveOne(r *bufio.Reader, reply func(string)) bool {
	raw, err := r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		reply("ERR request line over " + strconv.Itoa(maxRequestLine) + " bytes\n")
		return false
	}
	// A complete line (newline- or EOF-terminated) is a request; a read
	// error with a partial line is a stalled or dead client — drop it
	// rather than interpreting half a command.
	if err != nil && (len(raw) == 0 || !errors.Is(err, io.EOF)) {
		return false
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 {
		reply("ERR empty command\n")
		return false
	}
	v, ok := LookupVerb(fields[0])
	if !ok {
		name := fields[0]
		if len(name) > 32 {
			name = name[:32] + "..."
		}
		reply("ERR unknown command " + name + " (have " + verbNames() + ")\n")
		return false
	}
	args := fields[1:]
	if len(args) < v.MinArgs {
		reply("ERR usage: " + v.Name + " " + v.Args + "\n")
		return false
	}
	v.run(s, args, r, reply)
	return v.keep && err == nil
}

// awaitRequest parks a kept connection until its next request starts to
// arrive, reporting false on EOF, on the phase timeout, or when the server
// closes — Close shuts parked connections, so a coordinator's idle one
// cannot hold shutdown for a whole phase timeout.
func (s *Server) awaitRequest(conn net.Conn, r *bufio.Reader) bool {
	s.mu.Lock()
	if s.closed {
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

func runLs(s *Server, args []string, _ *bufio.Reader, reply func(string)) {
	path := ""
	if len(args) > 0 {
		path = args[0]
	}
	entries, err := s.node.FS().ReadDir(path)
	if err != nil {
		reply("ERR " + err.Error() + "\n")
		return
	}
	reply("OK\n")
	for _, e := range entries {
		name := e.Name
		if e.IsDir {
			name += "/"
		}
		reply(name + "\n")
	}
}

func runCat(s *Server, args []string, _ *bufio.Reader, reply func(string)) {
	content, err := s.node.FS().ReadFile(args[0])
	if err != nil {
		reply("ERR " + err.Error() + "\n")
		return
	}
	reply("OK\n" + content)
}

func runTree(s *Server, args []string, _ *bufio.Reader, reply func(string)) {
	path := "cluster"
	if len(args) > 0 {
		path = args[0]
	}
	tree, err := s.node.FS().Tree(path)
	if err != nil {
		reply("ERR " + err.Error() + "\n")
		return
	}
	reply("OK\n" + tree)
}

func runStatus(s *Server, _ []string, _ *bufio.Reader, reply func(string)) {
	reply("OK\n")
	d := s.node.DMon()
	reply(fmt.Sprintf("node %s\nmodules %s\nfilter_errors %d\n",
		s.node.Name(), strings.Join(d.Modules(), ","), d.FilterErrors()))
	for _, remote := range d.Store().Nodes() {
		if remote == s.node.Name() {
			continue // the store holds self history too; self is not a peer
		}
		last, count := d.Store().LastReport(remote)
		reply(fmt.Sprintf("peer %s reports=%d last=%s\n",
			remote, count, last.Format(time.RFC3339)))
	}
}

func runStats(s *Server, _ []string, _ *bufio.Reader, reply func(string)) {
	reply("OK\n" + s.node.StatsText())
}

func runWrite(s *Server, args []string, body *bufio.Reader, reply func(string)) {
	data, err := io.ReadAll(io.LimitReader(body, maxWriteBody+1))
	if err != nil {
		reply("ERR reading body: " + err.Error() + "\n")
		return
	}
	if len(data) > maxWriteBody {
		reply("ERR write body over " + strconv.Itoa(maxWriteBody) + " bytes\n")
		return
	}
	if err := s.node.FS().WriteFile(args[0], string(data)); err != nil {
		reply("ERR " + err.Error() + "\n")
		return
	}
	reply("OK\n")
}

func runFlush(s *Server, _ []string, _ *bufio.Reader, reply func(string)) {
	if err := s.node.FlushHistory(); err != nil {
		reply("ERR " + err.Error() + "\n")
		return
	}
	if s.node.DMon().Store().Persistent() {
		reply("OK\nflushed\n")
		return
	}
	reply("OK\nmemory-only store, nothing to flush\n")
}

func runQuery(s *Server, args []string, _ *bufio.Reader, reply func(string)) {
	fs := s.node.FS()
	path := "cluster/" + args[0] + "/query"
	q := strings.Join(args[1:], " ")
	if err := fs.WriteFile(path, q); err != nil {
		reply("ERR " + err.Error() + "\n")
		return
	}
	result, err := fs.ReadFile(path)
	if err != nil {
		reply("ERR " + err.Error() + "\n")
		return
	}
	reply("OK\n" + result)
}

// DefaultClientTimeout bounds each client-side phase: the dial, the request
// write, and every read of the response. Like the server's, it is per
// phase, not per connection — a response trickling in over longer than the
// timeout succeeds as long as no single gap exceeds it.
const DefaultClientTimeout = 10 * time.Second

// Client issues admin protocol requests. It is safe for concurrent use once
// configured: querypart calls share its kept connections.
type Client struct {
	addr      string
	timeout   time.Duration // per-phase; DefaultClientTimeout when 0
	deadline  time.Time     // optional absolute cap across all phases
	transport Transport     // nil = plain TCP
	io        clock.Clock   // the transport's I/O clock (clock.IO)

	mu     sync.Mutex
	idle   []*partConn // kept querypart connections, most recent last
	closed bool        // Close ran: connections close after their call
}

// NewClient returns a client for the admin server at addr.
func NewClient(addr string) *Client { return &Client{addr: addr, io: clock.NewReal()} }

// SetTimeout sets the per-phase timeout (dprocctl -timeout).
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// SetDeadline caps the whole request absolutely, on top of the per-phase
// timeout — how the scatter-gather coordinator keeps one node's fetch
// within its per-node budget no matter how many phases it spans.
func (c *Client) SetDeadline(t time.Time) { c.deadline = t }

// SetTransport routes dials through tr (fault-injection fabrics), and the
// client's phase deadlines onto tr's I/O clock.
func (c *Client) SetTransport(tr Transport) { c.transport, c.io = tr, clock.IO(tr) }

// Close closes the client's kept querypart connections; a call in flight
// finishes and then closes its own. Operator verbs keep nothing, so a client
// that issues only those needs no Close.
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
// timeout and absolute deadline, the latter capped by ctx's deadline.
func (c *Client) budget(ctx context.Context) budget {
	b := budget{timeout: c.timeout, deadline: c.deadline, clk: c.io}
	if b.timeout <= 0 {
		b.timeout = DefaultClientTimeout
	}
	if d, ok := ctx.Deadline(); ok && (b.deadline.IsZero() || d.Before(b.deadline)) {
		b.deadline = d
	}
	return b
}

// dial opens a connection to the server within b's next phase.
func (c *Client) dial(b budget) (net.Conn, error) {
	dialBudget := b.phase().Sub(b.clk.Now())
	if dialBudget <= 0 {
		return nil, fmt.Errorf("adminproto: dial %s: deadline exceeded", c.addr)
	}
	tr := c.transport
	if tr == nil {
		tr = tcpTransport{}
	}
	conn, err := tr.DialTimeout("tcp", c.addr, dialBudget)
	if err != nil {
		return nil, fmt.Errorf("adminproto: dial %s: %w", c.addr, err)
	}
	return conn, nil
}

// roundTrip performs one request on a connection of its own, half-closing
// after the request and reading the reply to EOF; body may be nil.
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
