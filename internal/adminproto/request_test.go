package adminproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/simres"
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

// FuzzServeRequest feeds any bytes to a standalone node's admin server as a
// connection's request stream. The server must never panic; each reply is
// either "OK\n…" or exactly one "ERR …\n" line; the connection outlives a
// request only after a keep verb (Verb.keep) whose request line ended in a
// newline; and a kept OK reply holds exactly one blank line, at its end — the
// terminator a client on the kept connection reads up to.
func FuzzServeRequest(f *testing.F) {
	for _, seed := range []string{
		"", "\n", "frobnicate\n", "ls\n", "ls cluster/alan", "cat cluster/alan/loadavg\n",
		"cat\n", "tree\n", "status\n", "stats\n", "flush\n",
		"write cluster/alan/control\nperiod cpu 5",
		"write cluster/alan/control\nfilter all\n{ int i = 0; output[i] = input[LOADAVG]; }",
		"write cluster/alan/control\nexplode now",
		"query alan avg loadavg last 30s\n", "queryall p99 loadavg last 30s\n",
		"querypart avg loadavg from 1056326400 to 1056326430\nquerypart p99 loadavg from 1056326400 to 1056326430\nls\n",
		"querypart avg loadavg last 30s\nstatus\n",
		"querypart p99 loadavg from 1056326400 to 1056326430",
		strings.Repeat("y", maxRequestLine+10) + "\n",
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
			var out strings.Builder
			keep := srv.serveOne(r, func(s string) { out.WriteString(s) })
			reply := out.String()
			switch {
			case reply == "":
				if at != len(input) {
					t.Fatalf("no reply to request %q", input[at:])
				}
			case strings.HasPrefix(reply, "OK\n"):
			case strings.HasPrefix(reply, "ERR ") && strings.IndexByte(reply, '\n') == len(reply)-1:
			default:
				t.Fatalf("reply %q to %q is neither OK nor one ERR line", reply, input[at:])
			}
			if !keep {
				return
			}
			line, _, ended := bytes.Cut(input[at:], []byte("\n"))
			fields := strings.Fields(string(line))
			if !ended || len(fields) == 0 {
				t.Fatalf("connection kept after request %q", input[at:])
			}
			if v, _ := LookupVerb(fields[0]); !v.keep {
				t.Fatalf("connection kept after request %q", input[at:])
			}
			if strings.HasPrefix(reply, "OK\n") && strings.Index(reply, "\n\n") != len(reply)-2 {
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

// FuzzKeptReply serves any bytes as the reply to a Client's queryall over
// an in-memory pipe; the server then closes when closeAfter is set or the
// reply has no terminator (an older server), and otherwise answers further
// requests on the connection with "second". The client must never panic;
// each call returns an error or exactly the one reply the oracle reads; the
// client keeps the connection only after a terminated reply with nothing
// past it; and a second call returns "second" on a kept open connection,
// "fresh" on a new one — never bytes of the first reply.
func FuzzKeptReply(f *testing.F) {
	for _, seed := range []string{
		"", "OK", "OK\n", "OK\n\n", "\n\n", "ERR nope\n", "ERR nope\n\n", "OK\nx\n", "OK\nx",
		"OK\nagg p99\nvalue 1.5\nnode a ok samples=3 in=1µs\n\n",
		"OK\na\n\nOK\nb\n\n", "OK\na\n\n\n", "OK\na\r\n\r\n", " ERR\n", "okay\nstill a reply\n\n",
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, reply []byte, closeAfter bool) {
		// A reply that fits one read of the client's buffer: the client has
		// then seen every byte sent before it decides to keep the connection.
		if len(reply) > maxRequestLine {
			return
		}
		want, ok, terminated, trailing := keptReplyOracle(reply)
		tr := &pipeTransport{serve: func(n int, conn net.Conn) {
			r := bufio.NewReader(conn)
			answer := "OK\nfresh\n\n"
			if n == 0 {
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
				if _, err := conn.Write(reply); err != nil || closeAfter || !terminated {
					return
				}
				answer = "OK\nsecond\n\n"
			}
			for {
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
				if _, err := io.WriteString(conn, answer); err != nil {
					return
				}
			}
		}}
		c := NewClient("pipe")
		c.SetTransport(tr)
		c.SetTimeout(5 * time.Second)
		defer tr.wg.Wait()
		defer c.Close()

		got, err := c.QueryAll("p99 loadavg last 30s")
		switch {
		case !ok && err == nil:
			t.Fatalf("reply %q: got %q, want an error", reply, got)
		case ok && (err != nil || got != want):
			t.Fatalf("reply %q: got %q, %v; want %q", reply, got, err, want)
		}
		c.mu.Lock()
		kept := len(c.idle) == 1
		c.mu.Unlock()
		if wantKept := ok && terminated && !trailing; kept != wantKept {
			t.Fatalf("reply %q: connection kept %v, want %v", reply, kept, wantKept)
		}

		second := "fresh\n"
		if kept && !closeAfter {
			second = "second\n"
		}
		if got, err := c.QueryAll("p99 loadavg last 30s"); err != nil || got != second {
			t.Fatalf("after reply %q: second call got %q, %v; want %q", reply, got, err, second)
		}
	})
}
