// Command kregistry runs the dproc channel registry: the user-level
// directory server that d-mon modules contact to create and find the
// monitoring and control channels. Start it once per cluster, then point
// every dprocd at its address.
//
// Usage:
//
//	kregistry -listen 127.0.0.1:7420
//	kregistry -listen 127.0.0.1:7420 -ttl 5s   # age out crashed members
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"dproc/internal/registry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7420", "address to listen on")
	ttl := flag.Duration("ttl", 0, "member TTL: entries with no join/heartbeat for this long expire (0 disables)")
	flag.Parse()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kregistry: listen:", err)
		os.Exit(1)
	}
	srv := registry.NewServerWith(ln, registry.ServerOptions{TTL: *ttl})
	if *ttl > 0 {
		fmt.Printf("kregistry listening on %s (member TTL %v)\n", srv.Addr(), *ttl)
	} else {
		fmt.Printf("kregistry listening on %s (member expiry disabled)\n", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Printf("shutting down (%d members expired over this run)\n", srv.ExpiredMembers())
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
