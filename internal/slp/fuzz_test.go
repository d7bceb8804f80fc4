package slp

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
)

// fuzzSeeds are the shapes a piggyback extension takes, after the three
// seeds the corpus has always had.
func fuzzSeeds(f *testing.F) {
	advert := func(i byte, seq uint32) Advert {
		return Advert{Type: "sip", Key: string('a'+i) + "@h", URL: "service:sip://n:5060",
			Attrs: map[string]string{"ua": "kphone", "q": "1"}, Origin: "n", Seq: seq, TTL: 30 * time.Second}
	}
	f.Add((&Payload{
		Adverts: []Advert{{Type: "sip", Key: "a@h", URL: "service:sip://n:5060",
			Origin: "n", Seq: 1, TTL: 30 * time.Second}},
		Queries: []Query{{Type: "sip", Key: "b@h", Origin: "m", ID: 2, Hops: 8}},
	}).Marshal())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 1})
	// Steady state: the digest alone.
	f.Add((&Payload{Digest: &Digest{Count: 16, Hash: 0x9e3779b97f4a7c15}}).Marshal())
	// A delta: digest, the one registration that changed, a query riding along.
	f.Add((&Payload{
		Digest:  &Digest{Count: 17, Hash: 1},
		Adverts: []Advert{advert(0, 7)},
		Queries: []Query{{Type: "gateway", Origin: "m", ID: 9, Hops: 3}},
	}).Marshal())
	// A resync pass: digest and the whole table.
	pass := &Payload{Digest: &Digest{Count: 4, Hash: 2}}
	for i := range byte(4) {
		pass.Adverts = append(pass.Adverts, advert(i, uint32(i)+1))
	}
	f.Add(pass.Marshal())
}

// FuzzParsePayload: any input must either error or yield a payload that
// Marshal and ParsePayload carry round unchanged, Marshal's output being a
// fixed point.
func FuzzParsePayload(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePayload(data)
		if err != nil {
			return
		}
		raw := p.Marshal()
		p2, err := ParsePayload(raw)
		if err != nil {
			t.Fatalf("marshal output unparseable: %v", err)
		}
		normalize := func(pp *Payload) {
			for i := range pp.Adverts {
				if len(pp.Adverts[i].Attrs) == 0 {
					pp.Adverts[i].Attrs = nil
				}
			}
		}
		normalize(p)
		normalize(p2)
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip drift:\n%+v\n%+v", p, p2)
		}
		if raw2 := p2.Marshal(); !bytes.Equal(raw, raw2) {
			t.Fatalf("marshal is not a fixed point:\n%x\n%x", raw, raw2)
		}
	})
}

// FuzzIncomingMatchesParse holds the receive path, which installs straight
// off the wire bytes, to what ParsePayload says the bytes mean: an agent fed
// the input ends up with the table of one whose cache is handed the parsed
// adverts as Services, one by one, and an input ParsePayload rejects leaves
// the table empty.
func FuzzIncomingMatchesParse(f *testing.F) {
	fuzzSeeds(f)
	fc := clock.NewFake(time.Unix(5_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fc})
	f.Cleanup(net.Close)
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		f.Fatal(err)
	}
	conn, err := h.Listen(Port) // query replies go out through it
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAgent(h, Config{})
		a.conn = conn
		a.Incoming(routing.Incoming{From: "nb", Ext: data})
		p, err := ParsePayload(data)
		if err != nil {
			if got := a.AppendServices(nil, ""); len(got) != 0 {
				t.Fatalf("rejected payload installed %+v", got)
			}
			return
		}
		if len(p.Marshal()) != len(data) {
			return // repeated attribute names or digests: sizes on the wire and of the parse differ
		}
		ref, accepted := newCache(), int64(0)
		for i := range p.Adverts {
			adv := &p.Adverts[i]
			if adv.Origin == h.ID() || adv.TTL < ttlUnit || sizeOfAdvert(adv) > maxAdvertSize {
				continue
			}
			if ref.upsert(Service{Type: adv.Type, Key: adv.Key, URL: adv.URL, Attrs: adv.Attrs,
				Origin: adv.Origin, Seq: adv.Seq, Expires: fc.Now().Add(adv.TTL)}) {
				accepted++
			}
		}
		got, want := a.cache.snapshot("", fc.Now()), ref.snapshot("", fc.Now())
		for _, svcs := range [][]Service{got, want} {
			for i := range svcs {
				if len(svcs[i].Attrs) == 0 {
					svcs[i].Attrs = nil
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tables differ:\nfrom bytes %+v\nfrom parse %+v", got, want)
		}
		if got, want := a.cache.digest(fc.Now()), ref.digest(fc.Now()); got != want {
			t.Fatalf("digests differ: %+v vs %+v", got, want)
		}
		if got := a.Stats().AdvertsAccepted; got != accepted {
			t.Fatalf("AdvertsAccepted = %d, the parse accounts for %d", got, accepted)
		}
	})
}
