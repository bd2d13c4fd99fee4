package adminproto

import (
	"flag"
	"testing"
	"time"

	"dproc/internal/clock"
	"dproc/internal/core"
	"dproc/internal/query"
	"dproc/internal/registry"
	"dproc/internal/wire"
)

// ioClocked is plain TCP whose I/O clock (clock.IO) is clk, so a test
// steps the admin heartbeat by hand.
type ioClocked struct {
	wire.TCP
	clk clock.Clock
}

func (t ioClocked) Clock() clock.Clock { return t.clk }

// A node is configured once: its admin server takes the phase timeout and
// the queryall budget and fan-out from the node's core.Config — bound here
// from dprocd's own flags — and heartbeats its admin registration once per
// Channel.ReconnectInterval, or not at all under DisableReconnect (-no-heal).
// The node clock is never advanced, so the channels' supervisors stay quiet
// and every heartbeat counted is the admin server's.
func TestServerReadsNodeConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int // heartbeats over three intervals
	}{
		{"heal", []string{"-admin-timeout", "3s", "-query-timeout", "700ms", "-query-fanout", "3", "-reconnect", "100ms"}, 3},
		{"no-heal", []string{"-admin-timeout", "3s", "-query-timeout", "700ms", "-query-fanout", "3", "-reconnect", "100ms", "-no-heal"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := registry.NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			cfg := core.Defaults()
			fs := flag.NewFlagSet("dprocd", flag.ContinueOnError)
			core.BindFlags(fs, &cfg)
			if err := fs.Parse(append([]string{"-name", "alan", "-registry", reg.Addr()}, tc.args...)); err != nil {
				t.Fatal(err)
			}
			io := clock.NewVirtual(time.Now()) // socket deadlines stay near wall time
			cfg.Clock = clock.NewVirtual(clock.Epoch)
			cfg.Transport = ioClocked{clk: io}
			node, err := core.NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			srv, err := NewServer(node, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			if srv.timeout != 3*time.Second {
				t.Errorf("phase timeout %v, want -admin-timeout 3s", srv.timeout)
			}
			if want := (query.Options{Timeout: 700 * time.Millisecond, Concurrency: 3}); srv.fanout != want {
				t.Errorf("fan-out %+v, want %+v", srv.fanout, want)
			}
			if members, err := node.Registry().Lookup(AdminChannel); err != nil || len(members) != 1 {
				t.Fatalf("admin channel: %v, %v; want the node advertised", members, err)
			}

			if (srv.hbStop != nil) != (tc.want > 0) {
				t.Fatalf("heartbeat loop running: %v, want %v", srv.hbStop != nil, tc.want > 0)
			}
			heartbeats := func() int {
				v, _ := node.Metrics().Value("registry", "", "heartbeats")
				return int(v)
			}
			for i := 1; i <= 3; i++ {
				if tc.want > 0 {
					for deadline := time.Now().Add(5 * time.Second); io.PendingTimers() != 1; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("interval %d: %d timers armed on the I/O clock, want the heartbeat's", i, io.PendingTimers())
						}
					}
				}
				io.Advance(100*time.Millisecond - 1)
				if got := heartbeats(); got != min(i-1, tc.want) {
					t.Fatalf("before interval %d ends: %d heartbeats, want %d", i, got, min(i-1, tc.want))
				}
				io.Advance(1)
				for deadline := time.Now().Add(5 * time.Second); heartbeats() < min(i, tc.want); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("interval %d: %d heartbeats, want %d", i, heartbeats(), i)
					}
				}
			}
			if got := heartbeats(); got != tc.want {
				t.Fatalf("%d heartbeats over three intervals, want %d", got, tc.want)
			}
		})
	}
}

// Zero in the node's Config selects the admin server's built-in defaults.
func TestServerDefaultsFromZeroConfig(t *testing.T) {
	node, err := core.NewNode(core.Config{Name: "alan"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv, err := NewServer(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.timeout != DefaultTimeout || srv.fanout != (query.Options{}) {
		t.Fatalf("timeout %v, fan-out %+v; want DefaultTimeout and query's defaults", srv.timeout, srv.fanout)
	}
}
