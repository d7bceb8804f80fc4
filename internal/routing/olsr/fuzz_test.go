package olsr

import (
	"siphoc/internal/netem"

	"reflect"
	"testing"
)

func FuzzParseHello(f *testing.F) {
	f.Add((&Hello{Neighbors: []HelloNeighbor{{Addr: "a", Link: LinkSym, MPR: true}}}).AppendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseHello(data)
		if err != nil {
			return
		}
		m2, err := ParseHello(m.AppendTo(nil))
		if err != nil {
			t.Fatalf("round trip parse: %v", err)
		}
		if len(m.Neighbors) != len(m2.Neighbors) {
			t.Fatalf("round trip drift: %+v vs %+v", m, m2)
		}
	})
}

func FuzzParseTC(f *testing.F) {
	f.Add((&TC{Orig: "a", Seq: 1, ANSN: 2, TTL: 3, Selectors: []netem.NodeID{"x"}}).AppendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseTC(data)
		if err != nil {
			return
		}
		m2, err := ParseTC(m.AppendTo(nil))
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip: %+v vs %+v (%v)", m, m2, err)
		}
	})
}
