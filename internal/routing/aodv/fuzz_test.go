package aodv

import (
	"reflect"
	"testing"
)

func FuzzParseRREQ(f *testing.F) {
	f.Add((&RREQ{ID: 1, HopCount: 2, TTL: 30, Orig: "a", OrigSeq: 3, Dst: "b", DstSeq: 4, UnknownSeq: true}).AppendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseRREQ(data)
		if err != nil {
			return
		}
		m2, err := ParseRREQ(m.AppendTo(nil))
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip: %+v vs %+v (%v)", m, m2, err)
		}
	})
}

func FuzzParseRREP(f *testing.F) {
	f.Add((&RREP{HopCount: 1, Orig: "a", Dst: "b", DstSeq: 2, LifetimeMs: 3}).AppendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseRREP(data)
		if err != nil {
			return
		}
		m2, err := ParseRREP(m.AppendTo(nil))
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip: %+v vs %+v (%v)", m, m2, err)
		}
	})
}

func FuzzParseRERR(f *testing.F) {
	f.Add((&RERR{Unreachable: []Unreachable{{Dst: "x", Seq: 1}}}).AppendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseRERR(data)
		if err != nil {
			return
		}
		m2, err := ParseRERR(m.AppendTo(nil))
		if err != nil {
			t.Fatalf("round trip parse: %v", err)
		}
		if len(m.Unreachable) != len(m2.Unreachable) {
			t.Fatalf("round trip drift: %+v vs %+v", m, m2)
		}
	})
}
