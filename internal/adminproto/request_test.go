package adminproto

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"

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
}

// A write body over maxWriteBody is refused before it reaches the control
// file, and one at the cap is not refused for its size.
func TestWriteBodyCapped(t *testing.T) {
	_, c, _ := newServer(t)
	err := c.Write("cluster/alan/control", strings.Repeat("x", maxWriteBody+1))
	if err == nil || !strings.Contains(err.Error(), "write body over") {
		t.Fatalf("oversize write body: err = %v, want the body cap", err)
	}
	err = c.Write("cluster/alan/control", strings.Repeat("x", maxWriteBody))
	if err == nil || strings.Contains(err.Error(), "write body over") {
		t.Fatalf("write body at the cap: err = %v, want the control file's own error", err)
	}
}

// FuzzServeRequest feeds any bytes to a standalone node's admin server as a
// connection's request stream. The server must never panic; each reply is
// either "OK\n…" or exactly one "ERR …\n" line; and the connection outlives
// a request only after a querypart whose request line ended in a newline.
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
			if fields := strings.Fields(string(line)); !ended || len(fields) == 0 || fields[0] != "querypart" {
				t.Fatalf("connection kept after request %q", input[at:])
			}
			if _, err := r.Peek(1); err != nil {
				return // what awaitRequest sees at the end of the stream
			}
		}
	})
}
