package core

import (
	"bytes"
	"testing"

	"siphoc/internal/netem"
)

// FuzzParseTunnelMsg: any input either errors or parses into a message whose
// append form parses back to the same message. A data message's datagram,
// decoded the way both tunnel ends decode it, encapsulates back into the very
// bytes it arrived in, and its node IDs stay what they were once those bytes
// are overwritten, as a recycled frame is.
func FuzzParseTunnelMsg(f *testing.F) {
	for _, m := range []tunnelMsg{
		{Kind: tunOpen}, {Kind: tunOpenAck, OK: true}, {Kind: tunOpenAck},
		{Kind: tunClose}, {Kind: tunPing}, {Kind: tunPong},
	} {
		f.Add(m.appendTo(nil))
	}
	for _, dg := range []*netem.Datagram{
		{SrcNode: "10.0.0.1", DstNode: "voicehoc.ch", SrcPort: 5060, DstPort: 5060, TTL: 31, Data: []byte("INVITE sip:bob@voicehoc.ch SIP/2.0")},
		{SrcNode: "provider.example", DstNode: "10.0.0.1", SrcPort: 5060, DstPort: 32768, TTL: 32},
	} {
		data, err := encapsulate(nil, dg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{99})
	// The network whose IDs the decoded datagrams get: one of them names a
	// host of it, the rest are foreign.
	owner := netem.NewNetwork(netem.Config{})
	f.Cleanup(owner.Close)
	if _, err := owner.AddHost("10.0.0.1", netem.Position{}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := parseTunnelMsg(b)
		if err != nil {
			return
		}
		again, err := parseTunnelMsg(m.appendTo(nil))
		if err != nil || again.Kind != m.Kind || again.OK != m.OK || !bytes.Equal(again.Inner, m.Inner) {
			t.Fatalf("%x parsed to %+v, whose encoding parses to %+v (%v)", b, m, again, err)
		}
		if m.Kind != tunData {
			return
		}
		frame := bytes.Clone(m.Inner)
		var dg netem.Datagram
		if decapsulate(&dg, frame, owner) != nil {
			return
		}
		out, err := encapsulate(nil, &dg)
		if err != nil {
			t.Fatalf("decoded datagram %+v does not encapsulate: %v", dg, err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("re-encapsulated %x, received %x", out, b)
		}
		want, err := netem.UnmarshalDatagram(m.Inner)
		if err != nil {
			t.Fatalf("a datagram both tunnel ends accept is refused: %v", err)
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		if dg.SrcNode != want.SrcNode || dg.DstNode != want.DstNode {
			t.Fatalf("node IDs %q -> %q alias the frame: %q -> %q once it is recycled", want.SrcNode, want.DstNode, dg.SrcNode, dg.DstNode)
		}
	})
}
