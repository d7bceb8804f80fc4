package core

import (
	"bytes"
	"fmt"
	"testing"

	"siphoc/internal/netem"
)

func trunkTestPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		wire, err := netem.AppendDatagram(nil, &netem.Datagram{
			SrcNode: netem.NodeID(fmt.Sprintf("10.1.0.%d", i)),
			DstNode: netem.NodeID(fmt.Sprintf("10.2.0.%d", i)),
			SrcPort: uint16(7000 + i),
			DstPort: uint16(8000 + i),
			TTL:     32,
			Data:    bytes.Repeat([]byte{byte(i)}, 40+i),
		})
		if err != nil {
			panic(err)
		}
		out[i] = wire
	}
	return out
}

func TestTrunkFrameRoundTrip(t *testing.T) {
	payloads := trunkTestPayloads(7)
	frame := newTrunkFrame(nil)
	for _, p := range payloads {
		frame = appendTrunkPayload(frame, p)
	}
	frame = finishTrunkFrame(frame, uint16(len(payloads)))

	var got [][]byte
	if err := walkTrunkFrame(frame, func(p []byte) {
		got = append(got, append([]byte(nil), p...))
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("walked %d payloads, want %d", len(got), len(payloads))
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("payload %d mutated in transit", i)
		}
	}

	// Corruption must be detected, not silently mis-parsed.
	if err := walkTrunkFrame(frame[:len(frame)-3], func([]byte) {}); err == nil {
		t.Fatal("truncated frame walked without error")
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 99
	if err := walkTrunkFrame(bad, func([]byte) {}); err == nil {
		t.Fatal("wrong frame kind accepted")
	}
}

// Trunk framing runs once per media packet crossing a gateway pair; both the
// append and the walk must be allocation-free at steady state.
func TestTrunkFrameAppendAllocFree(t *testing.T) {
	payloads := trunkTestPayloads(8)
	frame := newTrunkFrame(nil)
	// Warm the buffer to its working-set capacity once.
	for _, p := range payloads {
		frame = appendTrunkPayload(frame, p)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		frame = newTrunkFrame(frame)
		for _, p := range payloads {
			frame = appendTrunkPayload(frame, p)
		}
		frame = finishTrunkFrame(frame, uint16(len(payloads)))
	}); allocs != 0 {
		t.Fatalf("trunk frame build allocates %.1f times, want 0", allocs)
	}
}

func TestTrunkFrameWalkAllocFree(t *testing.T) {
	payloads := trunkTestPayloads(8)
	frame := newTrunkFrame(nil)
	for _, p := range payloads {
		frame = appendTrunkPayload(frame, p)
	}
	frame = finishTrunkFrame(frame, uint16(len(payloads)))

	var scratch netem.Datagram
	var seen int
	visit := func(p []byte) {
		if err := netem.UnmarshalDatagramInto(&scratch, p); err != nil {
			t.Error(err)
			return
		}
		seen++
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := walkTrunkFrame(frame, visit); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("trunk frame walk allocates %.1f times, want 0", allocs)
	}
	if seen == 0 {
		t.Fatal("walk visited nothing")
	}
}
