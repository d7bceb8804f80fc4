package netem

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// UDPConfig configures a process-level MANET node whose link layer runs
// over real UDP sockets: each daemon process is one node, the peer list is
// its radio neighbourhood, and frames travel as UDP packets. This is how
// cmd/siphocd and cmd/softphone deploy the system as actual network daemons
// (the paper's laptop deployment), while simulations keep using the
// in-memory medium.
type UDPConfig struct {
	// Self is this process's node ID.
	Self NodeID
	// Listen is the local UDP address, e.g. "127.0.0.1:7001".
	Listen string
	// Peers maps neighbour node IDs to their UDP addresses. Only listed
	// peers are reachable — the moral equivalent of radio range.
	Peers map[NodeID]string
}

// udpUnderlay sends and receives link frames over a real socket.
type udpUnderlay struct {
	self  NodeID
	pc    net.PacketConn
	mu    sync.Mutex
	peers map[NodeID]*net.UDPAddr
	done  chan struct{}
}

// NewUDPNetwork creates a Network bridged onto real UDP and its single
// local Host. Close the network to release the socket.
func NewUDPNetwork(cfg UDPConfig) (*Network, *Host, error) {
	if cfg.Self == Broadcast {
		return nil, nil, fmt.Errorf("netem: udp node needs a non-empty id")
	}
	n := NewNetwork(Config{BaseDelay: -1}) // the real network provides delay and loss
	h, err := n.AddHost(cfg.Self, Position{})
	if err != nil {
		return nil, nil, err
	}
	pc, err := net.ListenPacket("udp", cfg.Listen)
	if err != nil {
		n.Close()
		return nil, nil, fmt.Errorf("netem: udp listen %s: %w", cfg.Listen, err)
	}
	u := &udpUnderlay{
		self:  cfg.Self,
		pc:    pc,
		peers: make(map[NodeID]*net.UDPAddr, len(cfg.Peers)),
		done:  make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			pc.Close()
			n.Close()
			return nil, nil, fmt.Errorf("netem: peer %s addr %q: %w", id, addr, err)
		}
		u.peers[id] = ua
	}
	n.udp.Store(u)
	go u.recvLoop(h)
	return n, h, nil
}

// AddPeer makes a node reachable at runtime (topology change).
func (n *Network) AddPeer(id NodeID, addr string) error {
	u := n.udp.Load()
	if u == nil {
		return fmt.Errorf("netem: not a UDP network")
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	u.mu.Lock()
	u.peers[id] = ua
	u.mu.Unlock()
	return nil
}

// RemovePeer breaks the link to a node at runtime.
func (n *Network) RemovePeer(id NodeID) {
	u := n.udp.Load()
	if u == nil {
		return
	}
	u.mu.Lock()
	delete(u.peers, id)
	u.mu.Unlock()
}

// transmit sends a frame to the peer set: broadcast reaches every peer,
// unicast reaches the named peer if listed.
func (u *udpUnderlay) transmit(f Frame) {
	buf := marshalUDPFrame(f)
	u.mu.Lock()
	targets := make([]*net.UDPAddr, 0, len(u.peers))
	if f.Dst == Broadcast {
		for _, a := range u.peers {
			targets = append(targets, a)
		}
	} else if a, ok := u.peers[f.Dst]; ok {
		targets = append(targets, a)
	}
	u.mu.Unlock()
	for _, a := range targets {
		_, _ = u.pc.WriteTo(buf, a)
	}
}

func (u *udpUnderlay) recvLoop(h *Host) {
	buf := make([]byte, 65536)
	for {
		n, _, err := u.pc.ReadFrom(buf)
		if err != nil {
			return // socket closed
		}
		f, err := unmarshalUDPFrame(buf[:n])
		if err != nil {
			continue
		}
		if f.Dst != Broadcast && f.Dst != u.self {
			continue
		}
		// Handled inline, on this goroutine, as the delivery it is.
		d := newDelivery()
		d.frame, d.one = *f, h
		d.run(time.Time{})
	}
}

func (u *udpUnderlay) close() {
	_ = u.pc.Close()
}

// Frame wire format over UDP:
//
//	kind u8 | srcLen u8 | src | dstLen u8 | dst | payload
func marshalUDPFrame(f Frame) []byte {
	buf := make([]byte, 0, 3+len(f.Src)+len(f.Dst)+len(f.Payload))
	buf = append(buf, byte(f.Kind))
	buf = append(buf, byte(len(f.Src)))
	buf = append(buf, f.Src...)
	buf = append(buf, byte(len(f.Dst)))
	buf = append(buf, f.Dst...)
	buf = append(buf, f.Payload...)
	return buf
}

func unmarshalUDPFrame(b []byte) (*Frame, error) {
	if len(b) < 3 {
		return nil, fmt.Errorf("netem: short udp frame")
	}
	f := &Frame{Kind: FrameKind(b[0])}
	b = b[1:]
	n := int(b[0])
	b = b[1:]
	if len(b) < n+1 {
		return nil, fmt.Errorf("netem: truncated udp frame src")
	}
	f.Src = NodeID(b[:n])
	b = b[n:]
	n = int(b[0])
	b = b[1:]
	if len(b) < n {
		return nil, fmt.Errorf("netem: truncated udp frame dst")
	}
	f.Dst = NodeID(b[:n])
	f.Payload = append([]byte(nil), b[n:]...)
	return f, nil
}
