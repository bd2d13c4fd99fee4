package wire

import (
	"net"
	"time"
)

// Transport is where a node's sockets come from: the kecho channels, the
// registry client and server and the admin server listen and dial through
// one (core.Config.Transport). A transport whose connections read deadlines
// on a clock other than the wall clock also has a Clock() (clock.IO).
type Transport interface {
	Listen(network, address string) (net.Listener, error)
	DialTimeout(network, address string, timeout time.Duration) (net.Conn, error)
}

// TCP is the plain kernel-socket Transport.
type TCP struct{}

// Listen implements Transport with net.Listen.
func (TCP) Listen(network, address string) (net.Listener, error) {
	return net.Listen(network, address)
}

// DialTimeout implements Transport with net.DialTimeout.
func (TCP) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout(network, address, timeout)
}
