package sip_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"siphoc/internal/core"
	"siphoc/internal/netem"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
	"siphoc/internal/voip"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// wireCapture keeps the first SIP datagram of each kind on each leg, copied
// off the medium by a Network tap.
type wireCapture struct {
	mu   sync.Mutex
	seen map[string][]byte
}

func (c *wireCapture) tap(f netem.Frame) {
	if f.Kind != netem.KindData {
		return
	}
	var dg netem.Datagram
	if netem.UnmarshalDatagramInto(&dg, f.Payload) != nil {
		return
	}
	// Only SIP goes to these ports; everything else on the medium is RTP.
	if dg.DstPort != 5060 && dg.DstPort != 5062 {
		return
	}
	first, _, _ := strings.Cut(string(dg.Data), "\r\n")
	var kind string
	switch {
	case strings.HasPrefix(first, "INVITE "):
		kind = "invite"
	case strings.HasPrefix(first, "ACK "):
		kind = "ack"
	case strings.HasPrefix(first, "BYE "):
		kind = "bye"
	case strings.HasPrefix(first, "SIP/2.0 180"):
		kind = "180"
	case strings.HasPrefix(first, "SIP/2.0 200") && bytes.Contains(dg.Data, []byte("CSeq: 1 INVITE")):
		kind = "200"
	default:
		return
	}
	key := kind + "." + string(dg.SrcNode) + "-" + string(dg.DstNode)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.seen[key]; !dup {
		c.seen[key] = bytes.Clone(dg.Data)
	}
}

func (c *wireCapture) get(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen[key]
}

// TestWireBytesGolden pins the bytes a call puts on the air. The phones sit
// on nodes of their own (ua, ub), apart from the proxies they use (pa, pb),
// so that every leg of the call crosses the medium: INVITE, 180, 200, ACK
// and BYE are compared, as the phone sent them and as they came out of the
// second proxy, with testdata/*.golden — recorded before SIP messages became
// shared values, and never rewritten since.
func TestWireBytesGolden(t *testing.T) {
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(net.Close)
	wire := &wireCapture{seen: make(map[string][]byte)}
	net.SetTap(wire.tap)

	hosts := make(map[string]*netem.Host)
	for i, id := range []string{"ua", "pa", "pb", "ub"} {
		h, err := net.AddHost(netem.NodeID(id), netem.Position{X: float64(20 * i)})
		if err != nil {
			t.Fatal(err)
		}
		hosts[id] = h
		proto := aodv.New(h, aodv.SimConfig())
		if id[0] == 'p' {
			agent := slp.NewAgent(h, slp.Config{})
			agent.AttachRouting(proto)
			if err := agent.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(agent.Stop)
			proxy := core.NewProxy(h, agent, nil, core.ProxyConfig{})
			if err := proxy.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(proxy.Stop)
		}
		if err := proto.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proto.Stop)
	}
	phone := func(node, user, proxy string) *voip.Phone {
		ph := voip.New(hosts[node], voip.Config{
			User: user, Domain: "voicehoc.ch",
			OutboundProxy: sip.Addr{Node: netem.NodeID(proxy), Port: sip.DefaultPort},
		})
		if err := ph.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ph.Stop)
		return ph
	}
	alice := phone("ua", "alice", "pa")
	phone("ub", "bob", "pb")

	// A proxy registers only its own node's application, so bob's binding is
	// put there from pb itself, with the Contact naming the phone on ub.
	conn, err := hosts["pb"].Listen(5070)
	if err != nil {
		t.Fatal(err)
	}
	registrant := sip.NewStack(conn, sip.SimConfig())
	t.Cleanup(registrant.Close)
	register, err := sip.Parse([]byte("REGISTER sip:voicehoc.ch SIP/2.0\r\n" +
		"From: <sip:bob@voicehoc.ch>;tag=reg\r\nTo: <sip:bob@voicehoc.ch>\r\n" +
		"Call-ID: reg@pb\r\nCSeq: 1 REGISTER\r\nContact: <sip:bob@ub:5062>\r\nExpires: 60\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := registrant.Await(register, sip.Addr{Node: "pb", Port: sip.DefaultPort}); err != nil || resp.StatusCode != sip.StatusOK {
		t.Fatalf("register bob: %v %v", resp, err)
	}

	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The ACK is not answered: wait until the second proxy has passed it on.
	for deadline := time.Now().Add(5 * time.Second); wire.get("ack.pb-ub") == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("ACK never reached the callee")
		}
	}
	if err := call.Hangup(); err != nil {
		t.Fatal(err)
	}

	for _, g := range []struct{ file, leg string }{
		{"invite.phone", "invite.ua-pa"}, {"invite.proxied", "invite.pb-ub"},
		{"180.phone", "180.ub-pb"}, {"180.proxied", "180.pa-ua"},
		{"200.phone", "200.ub-pb"}, {"200.proxied", "200.pa-ua"},
		{"ack.phone", "ack.ua-pa"}, {"ack.proxied", "ack.pb-ub"},
		{"bye.phone", "bye.ua-pa"}, {"bye.proxied", "bye.pb-ub"},
	} {
		got := wire.get(g.leg)
		if got == nil {
			t.Errorf("%s: no such message seen on the medium", g.leg)
			continue
		}
		path := filepath.Join("testdata", g.file+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s:\n got %q\nwant %q", g.leg, path, got, want)
		}
	}
}
