package main

import (
	"hash/crc32"
	"io"
	"net"
	"time"
)

// The reference. This benchmark runs on a small shared box whose speed is
// not constant: measured here, the same binary delivers 100 k and 140 k
// events a second twenty minutes apart, with no change but the neighbours',
// and a minute of CPU steal can cut any wall-clock figure by ten. A bound of
// even 25 % on a raw rate or latency would then gate the machine's mood,
// not the code.
//
// So every end-to-end figure is taken relative to a fixed yardstick measured
// right beside it: framed 64-byte messages echoed over one loopback TCP
// connection between two goroutines, checksummed on both sides — standard
// library only, so no change to dproc can move it. It exercises what dproc's
// data path is made of (write/read system calls, the netpoller, goroutine
// hand-offs, a little arithmetic on the bytes), so it slows down when the
// machine does, by about as much. Bursts of it are interleaved with the
// workload at sub-second grain, and the reported figure is the median over
// slices of workload ÷ adjacent reference. Across a run-to-run drift that
// moved the raw rate by 23 % (interquartile), the relative rate moved by
// under 3 %.
//
// The raw figures are still printed, as extras, with the reference's own:
// a relative number can always be turned back into this box's events per
// second.
type reference struct {
	conn net.Conn
	done chan struct{}
	out  []byte
	in   []byte
}

const (
	refMsg   = 64 // bytes per message
	refBatch = 32 // messages per write in a throughput burst
)

func newReference() (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	a := <-acc
	if a.err != nil {
		conn.Close()
		return nil, a.err
	}
	r := &reference{
		conn: conn,
		done: make(chan struct{}),
		out:  make([]byte, refMsg*refBatch),
		in:   make([]byte, refMsg*refBatch),
	}
	for i := range r.out {
		r.out[i] = byte(i*31 + 7)
	}
	go r.echo(a.c)
	return r, nil
}

// echo is the far side: checksum whatever arrives and send it back.
func (r *reference) echo(peer net.Conn) {
	defer close(r.done)
	defer peer.Close()
	buf := make([]byte, len(r.out))
	for {
		n, err := peer.Read(buf)
		if err != nil {
			return
		}
		_ = crc32.ChecksumIEEE(buf[:n])
		if _, err := peer.Write(buf[:n]); err != nil {
			return
		}
	}
}

// refBurstResult is one throughput burst of the reference.
type refBurstResult struct {
	rate      float64 // messages echoed per second
	cpuPerMsg float64 // process CPU ns per message
}

// throughput echoes batches of refBatch messages for d.
func (r *reference) throughput(d time.Duration) refBurstResult {
	cpu0, start, n := cpuTime(), time.Now(), 0
	for time.Since(start) < d {
		if _, err := r.conn.Write(r.out); err != nil {
			break
		}
		if _, err := io.ReadFull(r.conn, r.in); err != nil {
			break
		}
		_ = crc32.ChecksumIEEE(r.in)
		n += refBatch
	}
	if n == 0 {
		return refBurstResult{rate: 1, cpuPerMsg: 1} // a dead reference; the run's numbers will say so
	}
	return refBurstResult{
		rate:      float64(n) / time.Since(start).Seconds(),
		cpuPerMsg: float64(cpuTime()-cpu0) / float64(n),
	}
}

// rtt echoes single messages for d and returns the median round trip in ns.
func (r *reference) rtt(d time.Duration) float64 {
	var samples []float64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if _, err := r.conn.Write(r.out[:refMsg]); err != nil {
			break
		}
		if _, err := io.ReadFull(r.conn, r.in[:refMsg]); err != nil {
			break
		}
		samples = append(samples, float64(time.Since(t0)))
	}
	if len(samples) == 0 {
		return 1
	}
	return median(samples)
}

func (r *reference) close() {
	r.conn.Close()
	<-r.done
}
