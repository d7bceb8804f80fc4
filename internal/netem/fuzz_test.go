package netem

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalDatagram: any input either errors or round-trips through the
// datagram codec.
func FuzzUnmarshalDatagram(f *testing.F) {
	good, _ := AppendDatagram(nil, &Datagram{
		SrcNode: "10.0.0.1", DstNode: "10.0.0.2",
		SrcPort: 5060, DstPort: 427, TTL: 8, Data: []byte("payload"),
	})
	f.Add(good)
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dg, err := UnmarshalDatagram(data)
		if err != nil {
			return
		}
		raw, err := AppendDatagram(nil, dg)
		if err != nil {
			t.Fatalf("accepted datagram fails to marshal: %v", err)
		}
		dg2, err := UnmarshalDatagram(raw)
		if err != nil {
			t.Fatalf("marshal output unparseable: %v", err)
		}
		if dg2.SrcNode != dg.SrcNode || dg2.DstNode != dg.DstNode ||
			dg2.SrcPort != dg.SrcPort || dg2.DstPort != dg.DstPort ||
			dg2.TTL != dg.TTL || string(dg2.Data) != string(dg.Data) {
			t.Fatalf("round trip drift: %+v vs %+v", dg, dg2)
		}
	})
}

// FuzzUnmarshalUDPFrame covers the UDP-underlay frame codec.
func FuzzUnmarshalUDPFrame(f *testing.F) {
	f.Add(marshalUDPFrame(Frame{Src: "a", Dst: "b", Kind: KindRouting, Payload: []byte("x")}))
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := unmarshalUDPFrame(data)
		if err != nil {
			return
		}
		fr2, err := unmarshalUDPFrame(marshalUDPFrame(*fr))
		if err != nil {
			t.Fatalf("marshal output unparseable: %v", err)
		}
		if fr2.Src != fr.Src || fr2.Dst != fr.Dst || fr2.Kind != fr.Kind ||
			string(fr2.Payload) != string(fr.Payload) {
			t.Fatalf("round trip drift: %+v vs %+v", fr, fr2)
		}
	})
}

// FuzzDatagramForwardInPlace: for any input the header decoder accepts, a
// relay's in-place forward — one less in the byte at the offset the decoder
// reports — is byte for byte the re-encoding of the decoded datagram with
// TTL-1, and the offset lies inside the header. Then the decoded data crosses
// a relay for real, followed through the recycled wire buffers by the same
// data one byte longer or shorter: each receiver's Clone holds what was sent
// to it, after both are back on the free list.
func FuzzDatagramForwardInPlace(f *testing.F) {
	good, _ := AppendDatagram(nil, &Datagram{
		SrcNode: "10.0.0.1", DstNode: "10.0.0.2",
		SrcPort: 5060, DstPort: 427, TTL: 8, Data: []byte("payload"),
	})
	f.Add(good)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0}) // empty node IDs, TTL 0, no data
	f.Add([]byte{0})
	_, hosts := staticChain(f, Config{BaseDelay: -1}, 3)
	src, _ := hosts[0].Listen(7)
	dst, _ := hosts[2].Listen(9)
	dstIn := inbox(dst)
	f.Fuzz(func(t *testing.T, data []byte) {
		var dg Datagram
		ttlOff, err := decodeDatagramZeroCopy(&dg, data)
		if err != nil {
			return
		}
		if end := len(data) - len(dg.Data); ttlOff != end-1 {
			t.Fatalf("TTL offset %d, header ends at %d", ttlOff, end)
		}
		dg.TTL--
		want, err := AppendDatagram(nil, &dg)
		if err != nil {
			t.Fatalf("accepted datagram fails to marshal: %v", err)
		}
		forwarded := append([]byte(nil), data...) // dg aliases data
		forwarded[ttlOff]--
		if !bytes.Equal(forwarded, want) {
			t.Fatalf("in-place forward %x\nre-encoding      %x", forwarded, want)
		}

		first := dg.Data
		room := MTU - datagramWireLen(&Datagram{SrcNode: hosts[0].ID(), DstNode: hosts[2].ID()})
		if len(first) > room {
			if err := src.WriteTo(first, hosts[2].ID(), 9); err != ErrFrameTooBig {
				t.Fatalf("WriteTo of %d bytes: %v, want ErrFrameTooBig", len(first), err)
			}
			return
		}
		second := append(first[:len(first):len(first)], 'x')
		if len(second) > room {
			second = first[:len(first)-1]
		}
		var got [2]*Datagram
		for i, sent := range [][]byte{first, second} {
			if err := src.WriteTo(sent, hosts[2].ID(), 9); err != nil {
				t.Fatal(err)
			}
			got[i] = waitRecv(t, dstIn)
		}
		if !bytes.Equal(got[0].Data, first) || !bytes.Equal(got[1].Data, second) || got[0].TTL != DefaultTTL-1 {
			t.Fatalf("delivered %q then %q (TTL %d)\nsent      %q then %q", got[0].Data, got[1].Data, got[0].TTL, first, second)
		}
	})
}
