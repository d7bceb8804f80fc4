package netem

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// freePorts grabs n distinct free UDP ports on loopback.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	conns := make([]net.PacketConn, 0, n)
	for range n {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, pc)
		addrs = append(addrs, pc.LocalAddr().String())
	}
	for _, pc := range conns {
		pc.Close()
	}
	return addrs
}

// directUDP routes every destination as a 1-hop neighbour.
type directUDP struct{}

func (directUDP) NextHop(dst NodeID) (NodeID, bool)     { return dst, true }
func (directUDP) RequestRoute(dst NodeID, f func(bool)) { f(true) }

func TestUDPFrameRoundTrip(t *testing.T) {
	in := Frame{Src: "a", Dst: "b", Kind: KindRouting, Payload: []byte("hello")}
	out, err := unmarshalUDPFrame(marshalUDPFrame(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != in.Src || out.Dst != in.Dst || out.Kind != in.Kind || string(out.Payload) != "hello" {
		t.Fatalf("out = %+v", out)
	}
	if _, err := unmarshalUDPFrame([]byte{1}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestUDPNetworkExchange(t *testing.T) {
	addrs := freePorts(t, 2)
	na, ha, err := NewUDPNetwork(UDPConfig{
		Self: "a", Listen: addrs[0], Peers: map[NodeID]string{"b": addrs[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	nb, hb, err := NewUDPNetwork(UDPConfig{
		Self: "b", Listen: addrs[1], Peers: map[NodeID]string{"a": addrs[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()

	got := make(chan Frame, 1)
	if err := hb.HandleFrames(KindRouting, func(f Frame) { got <- f }); err != nil {
		t.Fatal(err)
	}
	if err := ha.SendFrame(Broadcast, KindRouting, []byte("over-the-wire")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if f.Src != "a" || string(f.Payload) != "over-the-wire" {
			t.Fatalf("frame = %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame never crossed the UDP underlay")
	}

	// Datagram path too.
	ha.SetRouteProvider(directUDP{})
	hb.SetRouteProvider(directUDP{})
	ca, err := ha.Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := hb.Listen(200)
	if err != nil {
		t.Fatal(err)
	}
	cbIn := inbox(cb)
	defer ca.Close()
	defer cb.Close()
	if err := ca.WriteTo([]byte("dgram"), "b", 200); err != nil {
		t.Fatal(err)
	}
	if dg := waitRecv(t, cbIn); string(dg.Data) != "dgram" {
		t.Errorf("bad datagram: %v", dg)
	}
}

func TestUDPPeerManagement(t *testing.T) {
	addrs := freePorts(t, 2)
	na, ha, err := NewUDPNetwork(UDPConfig{Self: "a", Listen: addrs[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	nb, hb, err := NewUDPNetwork(UDPConfig{Self: "b", Listen: addrs[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	got := make(chan Frame, 4)
	if err := hb.HandleFrames(KindRouting, func(f Frame) { got <- f }); err != nil {
		t.Fatal(err)
	}
	// No peers yet: nothing arrives.
	if err := ha.SendFrame(Broadcast, KindRouting, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("frame delivered without a peer entry")
	case <-time.After(100 * time.Millisecond):
	}
	// Add peer at runtime.
	if err := na.AddPeer("b", addrs[1]); err != nil {
		t.Fatal(err)
	}
	if err := ha.SendFrame(Broadcast, KindRouting, []byte("y")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if string(f.Payload) != "y" {
			t.Fatalf("payload = %q", f.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame never arrived after AddPeer")
	}
	// Remove the peer again.
	na.RemovePeer("b")
	if err := ha.SendFrame(Broadcast, KindRouting, []byte("z")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("frame delivered after RemovePeer")
	case <-time.After(100 * time.Millisecond):
	}
	// Error paths.
	plain := NewNetwork(Config{})
	defer plain.Close()
	if err := plain.AddPeer("x", "127.0.0.1:1"); err == nil {
		t.Fatal("AddPeer on in-memory network accepted")
	}
	if err := na.AddPeer("bad", "not-an-addr"); err == nil {
		t.Fatal("bad peer address accepted")
	}
	_ = fmt.Sprint() // keep fmt for symmetry with other tests
}
