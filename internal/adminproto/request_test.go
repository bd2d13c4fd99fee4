package adminproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/query"
	"dproc/internal/simres"
	"dproc/internal/tsdb"
)

// serveOver runs the server's connection loop on one end of an in-memory
// pipe and returns the other end; the server end closes when serve returns,
// as acceptLoop closes it.
func serveOver(srv *Server) net.Conn {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		srv.serve(server)
	}()
	return client
}

// A 1 MiB request line costs the server one buffer of it, and the client
// one short ERR line — not the line echoed back in an unknown-command error.
func TestOversizeRequestLineGetsShortErr(t *testing.T) {
	srv, _, _ := newServer(t)
	conn := serveOver(srv)
	defer conn.Close()
	go func() {
		// Fails with io.ErrClosedPipe once the server has hung up.
		_, _ = conn.Write(append(bytes.Repeat([]byte("x"), 1<<20), '\n'))
	}()
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) >= 256 {
		t.Fatalf("reply to a 1 MiB line is %d bytes, want < 256", len(reply))
	}
	if !strings.HasPrefix(string(reply), "ERR ") || strings.Count(string(reply), "\n") != 1 {
		t.Fatalf("reply = %q, want one ERR line", reply)
	}
	if n := overCap(srv, "request_line_over_cap"); n != 1 {
		t.Fatalf("request_line_over_cap = %d, want 1", n)
	}
	if stats := srv.node.StatsText(); !strings.Contains(stats, "\nadmin request_line_over_cap 1\n") {
		t.Fatalf("the stats file does not show the cap's hit:\n%s", stats)
	}
}

// overCap reads one of the server's limit-hit counters from its node's
// registry.
func overCap(srv *Server, name string) uint64 {
	n, _ := srv.node.Metrics().Value("admin", "", name)
	return n
}

// A write body over maxWriteBody is refused before it reaches the control
// file, and one at the cap is not refused for its size.
func TestWriteBodyCapped(t *testing.T) {
	srv, c, _ := newServer(t)
	err := c.Write("cluster/alan/control", strings.Repeat("x", maxWriteBody+1))
	if err == nil || !strings.Contains(err.Error(), "write body over") {
		t.Fatalf("oversize write body: err = %v, want the body cap", err)
	}
	err = c.Write("cluster/alan/control", strings.Repeat("x", maxWriteBody))
	if err == nil || strings.Contains(err.Error(), "write body over") {
		t.Fatalf("write body at the cap: err = %v, want the control file's own error", err)
	}
	if n := overCap(srv, "write_body_over_cap"); n != 1 {
		t.Fatalf("write_body_over_cap = %d, want 1", n)
	}
}

// Binary querypart requests, for the fuzz seeds: a p99 and an avg over one
// 30 s window.
var (
	fuzzP99 = frame(tsdb.Query{Agg: tsdb.AggP99, Metric: "loadavg", From: 1056326400e9, To: 1056326430e9}.AppendBinary(nil), "querypart")
	fuzzAvg = frame(tsdb.Query{Agg: tsdb.AggAvg, Metric: "loadavg", From: 1056326400e9, To: 1056326430e9}.AppendBinary(nil), "querypart")
)

// partStatus matches a querypart OK reply's status line.
var partStatus = regexp.MustCompile(`^OK ([0-9]+)\n`)

// FuzzServeRequest feeds any bytes to a standalone node's admin server as a
// connection's request stream. The server must never panic; each reply is
// either exactly one "ERR …\n" line or an OK reply — "OK <n>\n" and exactly
// n bytes for querypart, "OK\n…" for every other verb; the connection
// outlives a request only after an OK reply to a keep verb (Verb.keep)
// whose request line ended in a newline; and a kept queryall reply holds
// exactly one blank line, at its end — the terminator a client on the kept
// connection reads up to.
func FuzzServeRequest(f *testing.F) {
	for _, seed := range []string{
		"", "\n", "frobnicate\n", "ls\n", "ls cluster/alan", "cat cluster/alan/loadavg\n",
		"cat\n", "tree\n", "status\n", "stats\n", "flush\n",
		"write cluster/alan/control\nperiod cpu 5",
		"write cluster/alan/control\nfilter all\n{ int i = 0; output[i] = input[LOADAVG]; }",
		"write cluster/alan/control\nexplode now",
		"query alan avg loadavg last 30s\n", "queryall p99 loadavg last 30s\n",
		string(fuzzAvg) + string(fuzzP99) + "ls\n",
		"querypart avg loadavg last 30s\nstatus\n", // the text request of an older coordinator
		string(fuzzP99[:len(fuzzP99)-3]),           // a body cut short
		strings.Repeat("y", maxRequestLine+10) + "\n",
		"querypart 99999999\n" + string(fuzzP99), // a hostile length
		"querypart 0\n", "querypart 3 4\nabc",
		"querypart 12\n\x06\x07loadavg\x02\x02\x00", // from == to
		"queryall p99 loadavg last 30s\n" + string(fuzzP99) + "status\n",
	} {
		f.Add([]byte(seed))
	}
	clk := clock.NewVirtual(clock.Epoch)
	node, err := core.NewNode(core.Config{Name: "alan", Clock: clk, Source: simres.NewHost("alan", clk, 1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { node.Close() })
	srv, err := NewServer(node, "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, input []byte) {
		src := bytes.NewReader(input)
		r := bufio.NewReaderSize(src, maxRequestLine)
		for {
			at := len(input) - src.Len() - r.Buffered() // where this request starts
			var out bytes.Buffer
			keep := srv.serveOne(r, func(b []byte) { out.Write(b) })
			reply := out.Bytes()
			line, _, ended := bytes.Cut(input[at:], []byte("\n"))
			fields := strings.Fields(string(line))
			isPart := len(fields) > 0 && fields[0] == "querypart"
			ok := false
			switch m := partStatus.FindSubmatch(reply); {
			case len(reply) == 0:
				if at != len(input) {
					t.Fatalf("no reply to request %q", input[at:])
				}
			case bytes.HasPrefix(reply, []byte("ERR ")) && bytes.IndexByte(reply, '\n') == len(reply)-1:
			case isPart && m != nil:
				if n, err := strconv.Atoi(string(m[1])); err != nil || len(reply) != len(m[0])+n {
					t.Fatalf("querypart reply %q to %q is not its status line and the bytes it counts", reply, input[at:])
				}
				ok = true
			case !isPart && bytes.HasPrefix(reply, []byte("OK\n")):
				ok = true
			default:
				t.Fatalf("reply %q to %q is neither OK nor one ERR line", reply, input[at:])
			}
			if !keep {
				return
			}
			if !ok || !ended || len(fields) == 0 {
				t.Fatalf("connection kept after reply %q to request %q", reply, input[at:])
			}
			if v, _ := LookupVerb(fields[0]); !v.keep {
				t.Fatalf("connection kept after request %q", input[at:])
			}
			if !isPart && bytes.Index(reply, []byte("\n\n")) != len(reply)-2 {
				t.Fatalf("kept reply %q to %q does not end at its one blank line", reply, input[at:])
			}
			if _, err := r.Peek(1); err != nil {
				return // what awaitRequest sees at the end of the stream
			}
		}
	})
}

// pipeTransport dials in-memory pipes, serving the far end of the n-th dial
// (from 0) with serve; wait returns once every serve has.
type pipeTransport struct {
	serve func(n int, conn net.Conn)
	mu    sync.Mutex
	dials int
	wg    sync.WaitGroup
}

func (p *pipeTransport) Listen(string, string) (net.Listener, error) {
	return nil, errors.New("pipeTransport does not listen")
}

func (p *pipeTransport) DialTimeout(string, string, time.Duration) (net.Conn, error) {
	p.mu.Lock()
	n := p.dials
	p.dials++
	p.mu.Unlock()
	client, server := net.Pipe()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer server.Close()
		p.serve(n, server)
	}()
	return client, nil
}

// keptReplyOracle reads a queryall reply as the protocol defines it: a
// status line, then lines up to a blank one. ok is false for an error
// reply — no status line, or an ERR one; terminated reports the blank line,
// and trailing any byte after it. An unterminated reply runs to the end of
// its bytes, as an older server's does to EOF.
func keptReplyOracle(b []byte) (reply string, ok, terminated, trailing bool) {
	status, rest, found := bytes.Cut(b, []byte("\n"))
	if !found || bytes.HasPrefix(bytes.TrimSpace(status), []byte("ERR")) {
		return "", false, false, false
	}
	for at := 0; ; {
		i := bytes.IndexByte(rest[at:], '\n')
		switch {
		case i < 0:
			return string(rest), true, false, false
		case i == 0:
			return string(rest[:at]), true, true, at+1 < len(rest)
		}
		at += i + 1
	}
}

// partReplyOracle reads a querypart reply as the protocol defines it: an
// "OK <n>" status line, at most query.MaxPartBytes, then n bytes that decode
// as a part. ok is false for anything else; trailing reports bytes past the
// n.
func partReplyOracle(b []byte) (p query.Part, ok, trailing bool) {
	m := partStatus.FindSubmatch(b)
	if m == nil || len(m[1]) > 6 {
		return p, false, false
	}
	n, _ := strconv.Atoi(string(m[1]))
	body := b[len(m[0]):]
	if n > query.MaxPartBytes || len(body) < n {
		return p, false, false
	}
	p, err := query.DecodePart(body[:n])
	return p, err == nil, len(body) > n
}

// partReply is the querypart reply to the request of the fuzzed server's
// later calls: count 2 on the connection that carried the fuzzed reply, 1
// on a fresh one.
func partReply(count int64) []byte {
	return frame(query.Part{From: 1, To: 2, Count: count}.AppendBinary(nil), "OK")
}

// readFuzzRequest reads one request off a client's stream: a line, and for
// querypart the bytes it counts.
func readFuzzRequest(r *bufio.Reader) error {
	line, err := r.ReadString('\n')
	if err != nil {
		return err
	}
	if n, ok := strings.CutPrefix(strings.TrimSpace(line), "querypart "); ok {
		size, err := strconv.Atoi(n)
		if err != nil {
			return err
		}
		_, err = r.Discard(size)
		return err
	}
	return nil
}

// FuzzKeptReply serves any bytes as the reply to a Client's queryall, or to
// its querypart when part is set, over an in-memory pipe; the server then
// closes when closeAfter is set or the reply is not whole (an older server,
// or a part reply short of its bytes), and otherwise answers further
// requests on the connection. The client must never panic; each call
// returns an error or exactly the one reply the oracle reads; the client
// keeps the connection only after a whole reply — a queryall's blank line,
// a part's counted bytes — with nothing past it; and a second call is
// answered on a kept open connection ("second", a part counting 2) or on a
// new one ("fresh", a part counting 1) — never from bytes of the first
// reply.
func FuzzKeptReply(f *testing.F) {
	for _, seed := range []string{
		"", "OK", "OK\n", "OK\n\n", "\n\n", "ERR nope\n", "ERR nope\n\n", "OK\nx\n", "OK\nx",
		"OK\nagg p99\nvalue 1.5\nnode a ok samples=3 in=1µs\n\n",
		"OK\na\n\nOK\nb\n\n", "OK\na\n\n\n", "OK\na\r\n\r\n", " ERR\n", "okay\nstill a reply\n\n",
	} {
		f.Add([]byte(seed), false, false)
		f.Add([]byte(seed), true, false)
	}
	p99 := query.Part{From: 1, To: 2, Count: 6, Buckets: []query.BucketCount{{Index: 0, Count: 1}, {Index: 17, Count: 2}, {Index: 1500, Count: 3}}}
	whole := frame(p99.AppendBinary(nil), "OK")
	for _, seed := range [][]byte{
		partReply(7), whole,
		append(whole[:len(whole):len(whole)], "OK 1\n"...), // a second reply behind the first
		whole[:len(whole)-1], // cut short
		[]byte("OK\nfrom 1ns\nto 2ns\ncount 0\nvalue 0\n\n"), // a leaf of the text protocol
		[]byte("ERR nope\n"), []byte("OK 99999999\n"), []byte("OK -1\n"), []byte("OK 3\nabc"),
		[]byte("OK 9\n\x02\x04\x00\x02\xe0\x0e\x00\x01\x01"), // claims 1888 buckets in 3 bytes
	} {
		f.Add(seed, false, true)
		f.Add(seed, true, true)
	}
	f.Fuzz(func(t *testing.T, reply []byte, closeAfter, part bool) {
		// A reply that fits one read of the client's buffer: the client has
		// then seen every byte sent before it decides to keep the connection.
		if len(reply) > maxRequestLine {
			return
		}
		want, ok, terminated, trailing := keptReplyOracle(reply)
		wantPart, partOK, partTrailing := partReplyOracle(reply)
		second, fresh := []byte("OK\nsecond\n\n"), []byte("OK\nfresh\n\n")
		whole := terminated
		if part {
			ok, trailing, whole = partOK, partTrailing, partOK
			second, fresh = partReply(2), partReply(1)
		}
		tr := &pipeTransport{serve: func(n int, conn net.Conn) {
			r := bufio.NewReader(conn)
			answer := fresh
			if n == 0 {
				if err := readFuzzRequest(r); err != nil {
					return
				}
				if _, err := conn.Write(reply); err != nil || closeAfter || !whole {
					return
				}
				answer = second
			}
			for {
				if err := readFuzzRequest(r); err != nil {
					return
				}
				if _, err := conn.Write(answer); err != nil {
					return
				}
			}
		}}
		c := NewClient("pipe")
		c.SetTransport(tr)
		c.SetTimeout(5 * time.Second)
		defer tr.wg.Wait()
		defer c.Close()

		q := tsdb.Query{Agg: tsdb.AggP99, Metric: "loadavg", From: 1, To: 2}
		if part {
			got, err := c.QueryPart(q)
			switch {
			case !ok && err == nil:
				t.Fatalf("reply %q: got %+v, want an error", reply, got)
			case ok && (err != nil || !bytes.Equal(got.AppendBinary(nil), wantPart.AppendBinary(nil))):
				t.Fatalf("reply %q: got %+v, %v; want %+v", reply, got, err, wantPart)
			}
		} else {
			got, err := c.QueryAll("p99 loadavg last 30s")
			switch {
			case !ok && err == nil:
				t.Fatalf("reply %q: got %q, want an error", reply, got)
			case ok && (err != nil || got != want):
				t.Fatalf("reply %q: got %q, %v; want %q", reply, got, err, want)
			}
		}
		c.mu.Lock()
		kept := len(c.idle) == 1
		c.mu.Unlock()
		if wantKept := ok && whole && !trailing; kept != wantKept {
			t.Fatalf("reply %q: connection kept %v, want %v", reply, kept, wantKept)
		}

		again := fresh
		if kept && !closeAfter {
			again = second
		}
		if part {
			got, err := c.QueryPart(q)
			if err != nil || !bytes.Equal(frame(got.AppendBinary(nil), "OK"), again) {
				t.Fatalf("after reply %q: second call got %+v, %v; want the part of %q", reply, got, err, again)
			}
			return
		}
		if got, err := c.QueryAll("p99 loadavg last 30s"); err != nil || got != string(again[3:len(again)-1]) {
			t.Fatalf("after reply %q: second call got %q, %v; want %q", reply, got, err, again)
		}
	})
}
