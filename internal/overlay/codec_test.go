package overlay

import (
	"bytes"
	"testing"
)

func sampleMessage() *Message {
	return &Message{
		Kind:   KindValue,
		RPC:    0xdeadbeef,
		From:   42,
		Key:    0x1234abcd,
		Seq:    7,
		TTLSec: 90,
		AOR:    []byte("alice@voicehoc.ch"),
		Value:  []byte("10.0.0.3:5060"),
		Nodes: []NodeInfo{
			{ID: 1, Addr: []byte("dht-1")},
			{ID: 2, Addr: []byte("dht-2")},
			{ID: 3, Addr: []byte("gw-zurich")},
		},
	}
}

// FuzzOverlayMessage: any input must either error or parse to a message whose
// re-encoding is byte-identical to the input — ParseInto rejects trailing
// bytes, so the wire form is canonical and the round trip is exact.
func FuzzOverlayMessage(f *testing.F) {
	f.Add(sampleMessage().AppendTo(nil))
	f.Add((&Message{Kind: KindPing, RPC: 1, From: 9}).AppendTo(nil))
	f.Add((&Message{Kind: KindFindValue, Key: 0xffffffff, AOR: []byte("x")}).AppendTo(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := ParseInto(&m, data); err != nil {
			return
		}
		out := m.AppendTo(nil)
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip drift:\n in:  %x\n out: %x\nmsg: %+v", data, out, m)
		}
	})
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleMessage()
	wire := m.AppendTo(nil)
	var got Message
	if err := ParseInto(&got, wire); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got.Kind != m.Kind || got.RPC != m.RPC || got.From != m.From ||
		got.Key != m.Key || got.Seq != m.Seq || got.TTLSec != m.TTLSec {
		t.Fatalf("header drift: %+v vs %+v", got, m)
	}
	if !bytes.Equal(got.AOR, m.AOR) || !bytes.Equal(got.Value, m.Value) {
		t.Fatalf("payload drift: %+v vs %+v", got, m)
	}
	if len(got.Nodes) != len(m.Nodes) {
		t.Fatalf("node count %d, want %d", len(got.Nodes), len(m.Nodes))
	}
	for i := range m.Nodes {
		if got.Nodes[i].ID != m.Nodes[i].ID || !bytes.Equal(got.Nodes[i].Addr, m.Nodes[i].Addr) {
			t.Fatalf("node %d drift: %+v vs %+v", i, got.Nodes[i], m.Nodes[i])
		}
	}
}

// TestMessageAllocs pins the codec's allocation budget: AppendTo into a
// pre-sized buffer and ParseInto with a reused Message pay nothing. The DHT
// hot path (parse request, build reply into the node's tx buffer) rides on
// the zero-alloc pair.
func TestMessageAllocs(t *testing.T) {
	m := sampleMessage()

	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		buf = m.AppendTo(buf[:0])
	}); n != 0 {
		t.Errorf("AppendTo (pre-sized) allocs = %v, want 0", n)
	}

	wire := m.AppendTo(nil)
	var rx Message
	if err := ParseInto(&rx, wire); err != nil { // warm the Nodes backing array
		t.Fatalf("parse: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := ParseInto(&rx, wire); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseInto (reused) allocs = %v, want 0", n)
	}
}
