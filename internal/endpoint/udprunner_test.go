package endpoint

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/tacktp/tack/internal/transport"
)

// Role selects which connection half a UDPRunner drives.
type Role int

const (
	RoleSender   Role = iota // dials the peer and transmits the stream
	RoleReceiver             // accepts one inbound connection and receives it
)

// RunnerOption configures NewUDPRunner.
type RunnerOption func(*UDPRunner)

// WithLocalAddr binds the runner's socket to laddr (default ":0").
func WithLocalAddr(laddr string) RunnerOption {
	return func(r *UDPRunner) { r.laddr = laddr }
}

// WithPeer sets the remote address a sending runner dials.
func WithPeer(raddr string) RunnerOption {
	return func(r *UDPRunner) { r.peer = raddr }
}

// UDPRunner is the tests' single-connection convenience over Endpoint
// (once the package's production entry point): the socket binds at
// construction, and Run performs the dial or accept plus the transfer.
// Read Sender/Receiver only after Run returns.
type UDPRunner struct {
	ep          *Endpoint
	role        Role
	laddr, peer string

	Sender   *transport.Sender
	Receiver *transport.Receiver
}

// NewUDPRunner builds a single-connection runner for the given role.
// RoleSender requires WithPeer.
func NewUDPRunner(cfg transport.Config, role Role, opts ...RunnerOption) (*UDPRunner, error) {
	r := &UDPRunner{role: role, laddr: ":0"}
	for _, opt := range opts {
		opt(r)
	}
	if role == RoleSender {
		if r.peer == "" {
			return nil, errors.New("endpoint: sender runner needs WithPeer")
		}
		if _, err := net.ResolveUDPAddr("udp", r.peer); err != nil {
			return nil, fmt.Errorf("endpoint: resolve remote %q: %w", r.peer, err)
		}
	}
	ep, err := Listen(r.laddr, Config{Transport: cfg, Shards: 1})
	if err != nil {
		return nil, err
	}
	r.ep = ep
	return r, nil
}

// LocalAddr returns the bound UDP address.
func (r *UDPRunner) LocalAddr() *net.UDPAddr { return r.ep.LocalAddr() }

// Run establishes the connection (dial or accept) and waits until the
// stream completes or the deadline elapses.
func (r *UDPRunner) Run(deadline time.Duration) error {
	until := time.Now().Add(deadline)
	var c *Conn
	var err error
	if r.role == RoleSender {
		c, err = r.ep.Dial(r.peer)
	} else {
		c, err = r.ep.AcceptTimeout(deadline)
	}
	if err != nil {
		return err
	}
	r.Sender, r.Receiver = c.Sender(), c.Receiver()
	left := time.Until(until)
	if left <= 0 {
		return ErrDeadline
	}
	return c.Wait(left)
}

// Close releases the socket and tears down the connection.
func (r *UDPRunner) Close() error { return r.ep.Close() }
