package routing

import (
	"testing"

	"siphoc/internal/netem"
)

// FuzzParseEnvelope: any input either errors or round-trips through
// ParseEnvelopeInto and the Framer, the one codec the receive and send paths
// use. An envelope that could not have crossed the medium is not one the
// Framer writes: it cuts an extension that takes the frame past the MTU.
func FuzzParseEnvelope(f *testing.F) {
	good := marshal(&Envelope{Proto: ProtoAODV, Kind: 2, Body: []byte("body"), Ext: []byte("ext")})
	f.Add(good)
	f.Add([]byte{1, 1, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := parse(data)
		if err != nil || HeaderLen+len(e.Body)+2+len(e.Ext) > netem.MTU {
			return
		}
		raw := marshal(e)
		e2, err := parse(raw)
		if err != nil {
			t.Fatalf("marshal output unparseable: %v", err)
		}
		if e2.Proto != e.Proto || e2.Kind != e.Kind ||
			string(e2.Body) != string(e.Body) || string(e2.Ext) != string(e.Ext) {
			t.Fatalf("round trip drift: %+v vs %+v", e, e2)
		}
	})
}
