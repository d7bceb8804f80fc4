package routing

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"siphoc/internal/netem"
)

// extension piggybacks itself on every frame it is offered.
type extension []byte

func (x extension) AppendOutgoing(b []byte, _ Outgoing) []byte { return append(b, x...) }
func (extension) Incoming(Incoming)                            {}

// marshal and parse are the envelope codec in the value-returning shape the
// tests read best in. marshal is the Framer's encoding, short of the medium:
// an extension over its budget is left out.
func marshal(e *Envelope) []byte {
	var f Framer
	b := append([]byte{e.Proto, e.Kind, 0, 0}, e.Body...)
	return f.finish(extension(e.Ext), Outgoing{}, b)
}

func parse(b []byte) (*Envelope, error) {
	e := new(Envelope)
	if err := ParseEnvelopeInto(e, b); err != nil {
		return nil, err
	}
	return e, nil
}

func TestEnvelopeRoundTrip(t *testing.T) {
	in := &Envelope{Proto: ProtoAODV, Kind: 2, Body: []byte("rrep-body"), Ext: []byte("slp-ext")}
	raw := marshal(in)
	out, err := parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch: %+v vs %+v", in, out)
	}
}

func TestEnvelopeNoExt(t *testing.T) {
	in := &Envelope{Proto: ProtoOLSR, Kind: 1, Body: []byte{1, 2}}
	raw := marshal(in)
	out, err := parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ext != nil {
		t.Fatalf("Ext = %v, want nil", out.Ext)
	}
}

func TestEnvelopeQuick(t *testing.T) {
	f := func(proto, kind uint8, body, ext []byte) bool {
		if len(body) > 0xffff || len(ext) > 0xffff {
			return true
		}
		in := &Envelope{Proto: proto, Kind: kind, Body: body, Ext: ext}
		raw := marshal(in)
		out, err := parse(raw)
		if err != nil {
			return false
		}
		eq := func(a, b []byte) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		return out.Proto == proto && out.Kind == kind && eq(out.Body, body) && eq(out.Ext, ext)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeRejectsTruncation(t *testing.T) {
	raw := marshal(&Envelope{Proto: 1, Kind: 1, Body: []byte("abcdef"), Ext: []byte("xy")})
	for cut := range len(raw) {
		if _, err := parse(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestExtBudget(t *testing.T) {
	if b := ExtBudget(0); b <= 0 || b > netem.MTU {
		t.Fatalf("ExtBudget(0) = %d", b)
	}
	if b := ExtBudget(netem.MTU); b != 0 {
		t.Fatalf("ExtBudget(MTU) = %d, want 0", b)
	}
	// A full-budget extension must produce a frame that fits the MTU.
	body := make([]byte, 100)
	ext := make([]byte, ExtBudget(len(body)))
	raw := marshal(&Envelope{Proto: 1, Kind: 1, Body: body, Ext: ext})
	if len(raw) > netem.MTU {
		t.Fatalf("frame size %d exceeds MTU %d", len(raw), netem.MTU)
	}
}

func TestTableExpiry(t *testing.T) {
	tbl := NewTable()
	now := time.Now()
	tbl.Upsert(Entry{Dst: "d", NextHop: "n", Hops: 1, Expires: now.Add(time.Second)})
	if _, ok := tbl.Lookup("d", now); !ok {
		t.Fatal("live route not found")
	}
	if _, ok := tbl.Lookup("d", now.Add(2*time.Second)); ok {
		t.Fatal("expired route returned")
	}
	// Zero expiry means eternal.
	tbl.Upsert(Entry{Dst: "e", NextHop: "n"})
	if _, ok := tbl.Lookup("e", now.Add(1000*time.Hour)); !ok {
		t.Fatal("eternal route expired")
	}
}

func TestTableRemoveByNextHop(t *testing.T) {
	tbl := NewTable()
	tbl.Upsert(Entry{Dst: "a", NextHop: "x"})
	tbl.Upsert(Entry{Dst: "b", NextHop: "x"})
	tbl.Upsert(Entry{Dst: "c", NextHop: "y"})
	removed := tbl.RemoveByNextHop("x")
	if len(removed) != 2 || removed[0].Dst != "a" || removed[1].Dst != "b" {
		t.Fatalf("removed = %+v", removed)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestTableReplaceAndSnapshot(t *testing.T) {
	tbl := NewTable()
	tbl.Upsert(Entry{Dst: "old", NextHop: "x"})
	tbl.Replace([]Entry{{Dst: "b", NextHop: "n"}, {Dst: "a", NextHop: "n"}})
	snap := tbl.Snapshot(time.Now())
	if len(snap) != 2 || snap[0].Dst != "a" || snap[1].Dst != "b" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// greedy appends one byte more than it is allowed.
type greedy struct{}

func (greedy) AppendOutgoing(b []byte, msg Outgoing) []byte {
	return append(b, make([]byte, msg.Budget+1)...)
}
func (greedy) Incoming(Incoming) {}

// TestOverBudgetExtensionIsCut: an extension over its budget would take the
// frame past the MTU, where the medium refuses it whole; the framer drops the
// extension instead, and the neighbour still hears the message.
func TestOverBudgetExtensionIsCut(t *testing.T) {
	net := netem.NewNetwork(netem.Config{BaseDelay: 10 * time.Microsecond})
	defer net.Close()
	hosts, err := netem.Chain(net, 2, 50, "n")
	if err != nil {
		t.Fatal(err)
	}
	heard := make(chan Envelope, 1)
	if err := hosts[1].HandleFrames(netem.KindRouting, func(f netem.Frame) {
		var env Envelope
		if ParseEnvelopeInto(&env, f.Payload) != nil {
			t.Errorf("unparseable frame %x", f.Payload)
		}
		// Kept past the handler's return, so copied.
		env.Body, env.Ext = append([]byte(nil), env.Body...), append([]byte(nil), env.Ext...)
		heard <- env
	}); err != nil {
		t.Fatal(err)
	}
	var f Framer
	hello := []byte{0, 0, 0, 7}
	for _, pb := range []PiggybackHandler{greedy{}, extension("digest-size")} {
		if err := f.Send(hosts[0], pb, netem.Broadcast, "HELLO", append(f.Begin(ProtoAODV, 4), hello...)); err != nil {
			t.Fatalf("%T: %v", pb, err)
		}
		select {
		case env := <-heard:
			want := ""
			if x, ok := pb.(extension); ok {
				want = string(x)
			}
			if env.Proto != ProtoAODV || env.Kind != 4 || string(env.Body) != string(hello) || string(env.Ext) != want {
				t.Fatalf("%T: neighbour heard %+v, want the HELLO with extension %q", pb, env, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%T: the HELLO was lost with its extension", pb)
		}
	}
}
