package netem

import (
	"bytes"
	"testing"
)

// TestAppendDatagramMatchesMarshal pins AppendDatagram's bytes to the wire
// layout it documents, appended after whatever buf already holds.
func TestAppendDatagramMatchesMarshal(t *testing.T) {
	d := &Datagram{
		SrcNode: "10.1.0.3",
		DstNode: "10.2.0.9",
		SrcPort: 7070,
		DstPort: 8080,
		TTL:     17,
		Data:    []byte("trunked media payload"),
	}
	want := []byte("\x0810.1.0.3\x0810.2.0.9\x1b\x9e\x1f\x90\x11trunked media payload")
	got, err := AppendDatagram([]byte("prefix"), d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatal("AppendDatagram clobbered the prefix")
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendDatagram wire bytes %x, want %x", got[len("prefix"):], want)
	}
	if len(want) != datagramWireLen(d) {
		t.Fatalf("datagramWireLen = %d, the encoding is %d bytes", datagramWireLen(d), len(want))
	}
}

func TestUnmarshalDatagramIntoRoundTrip(t *testing.T) {
	d := &Datagram{
		SrcNode: "10.1.0.3",
		DstNode: "voicehoc.ch",
		SrcPort: 5060,
		DstPort: 5060,
		TTL:     32,
		Data:    []byte("REGISTER"),
	}
	wire, err := AppendDatagram(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	var got Datagram
	if err := UnmarshalDatagramInto(&got, wire); err != nil {
		t.Fatal(err)
	}
	if got.SrcNode != d.SrcNode || got.DstNode != d.DstNode ||
		got.SrcPort != d.SrcPort || got.DstPort != d.DstPort ||
		got.TTL != d.TTL || !bytes.Equal(got.Data, d.Data) {
		t.Fatalf("round trip = %+v, want %+v", got, *d)
	}
	if err := UnmarshalDatagramInto(&got, wire[:4]); err == nil {
		t.Fatal("truncated datagram decoded without error")
	}
}

// UnmarshalDatagramInto exists for per-packet receive loops; it must not
// allocate.
func TestUnmarshalDatagramIntoAllocFree(t *testing.T) {
	wire, err := AppendDatagram(nil, &Datagram{
		SrcNode: "10.1.0.3",
		DstNode: "10.2.0.9",
		SrcPort: 7070,
		DstPort: 8080,
		TTL:     17,
		Data:    bytes.Repeat([]byte{0xab}, 160),
	})
	if err != nil {
		t.Fatal(err)
	}
	var d Datagram
	if allocs := testing.AllocsPerRun(200, func() {
		if err := UnmarshalDatagramInto(&d, wire); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("UnmarshalDatagramInto allocates %.1f times, want 0", allocs)
	}
}
