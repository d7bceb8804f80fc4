package daemon

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/testutil"
	"siphoc/internal/voip"
)

func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	conns := make([]net.PacketConn, 0, n)
	for range n {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, pc)
		addrs = append(addrs, pc.LocalAddr().String())
	}
	for _, pc := range conns {
		pc.Close()
	}
	return addrs
}

// startChainDaemons boots n daemon processes-worth of nodes over loopback
// UDP in a chain topology (each node only peers with its chain neighbours).
func startChainDaemons(t *testing.T, n int, gatewayLast bool) []*Daemon {
	t.Helper()
	addrs := freePorts(t, n)
	ids := make([]netem.NodeID, n)
	for i := range n {
		ids[i] = netem.NodeName("10.0.0", i+1)
	}
	daemons := make([]*Daemon, n)
	for i := range n {
		peers := map[netem.NodeID]string{}
		if i > 0 {
			peers[ids[i-1]] = addrs[i-1]
		}
		if i < n-1 {
			peers[ids[i+1]] = addrs[i+1]
		}
		cfg := Config{ID: ids[i], Listen: addrs[i], Peers: peers, Fast: true}
		if gatewayLast && i == n-1 {
			cfg.Gateway = true
			cfg.Providers = []ProviderSpec{{Domain: "voicehoc.ch", Accounts: []string{"alice", "bob"}}}
		}
		d, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		daemons[i] = d
	}
	return daemons
}

// TestMultiDaemonCallOverUDP is the deployment-mode proof: three SIPHoc
// nodes as separate UDP endpoints on loopback (the in-process equivalent of
// three siphocd processes), with a multihop call between the ends.
func TestMultiDaemonCallOverUDP(t *testing.T) {
	daemons := startChainDaemons(t, 3, false)
	alice, err := daemons[0].NewPhone("alice", "voicehoc.ch", true)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := daemons[2].NewPhone("bob", "voicehoc.ch", true)
	if err != nil {
		t.Fatal(err)
	}
	registerRetry := func(ph interface{ Register() error }) {
		var err error
		for range 10 {
			if err = ph.Register(); err == nil {
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Fatal(err)
	}
	registerRetry(alice)
	registerRetry(bob)

	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(30 * time.Second); err != nil {
		t.Fatalf("call over real UDP: %v", err)
	}
	if n := call.SendVoice(10); n != 10 {
		t.Fatalf("sent %d frames", n)
	}
	if err := call.Hangup(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonGatewayAttachment(t *testing.T) {
	daemons := startChainDaemons(t, 2, true)
	node := daemons[0]
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !node.Attached() {
		time.Sleep(50 * time.Millisecond)
	}
	if !node.Attached() {
		t.Fatal("daemon never attached via the gateway daemon")
	}
	if !daemons[1].Attached() {
		t.Fatal("gateway daemon reports not attached")
	}
}

func TestDaemonStatusReport(t *testing.T) {
	daemons := startChainDaemons(t, 2, false)
	ph, err := daemons[0].NewPhone("alice", "voicehoc.ch", true)
	if err != nil {
		t.Fatal(err)
	}
	var regErr error
	for range 10 {
		if regErr = ph.Register(); regErr == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if regErr != nil {
		t.Fatal(regErr)
	}
	status := daemons[0].Status()
	for _, want := range []string{"node 10.0.0.1", "AODV", "sip/alice@voicehoc.ch"} {
		if !strings.Contains(status, want) {
			t.Fatalf("status missing %q:\n%s", want, status)
		}
	}
}

func TestDaemonConfigValidation(t *testing.T) {
	if _, err := Start(Config{Listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("missing ID accepted")
	}
	if _, err := Start(Config{ID: "x", Listen: "127.0.0.1:0", Routing: "ospf"}); err == nil {
		t.Fatal("unknown routing accepted")
	}
	if _, err := Start(Config{ID: "x", Listen: "256.0.0.1:99999"}); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

// TestDaemonGoroutinesFlatInCalls pins that a daemon takes its timers from
// its UDP-backed network's scheduler like any simulated node: a call placed
// and cleared leaves no goroutine behind, neither for good nor for the 64×T1
// a server transaction lingers, so the count after ten calls is the count
// after one. Close then settles to where the process started.
func TestDaemonGoroutinesFlatInCalls(t *testing.T) {
	baseline := runtime.NumGoroutine()
	daemons := startChainDaemons(t, 2, false)
	alice, err := daemons[0].NewPhone("alice", "voicehoc.ch", true)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := daemons[1].NewPhone("bob", "voicehoc.ch", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []*voip.Phone{alice, bob} {
		var err error
		for range 10 {
			if err = ph.Register(); err == nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	placeAndClear := func(n int) {
		t.Helper()
		for range n {
			call, err := alice.Dial("bob@voicehoc.ch")
			if err != nil {
				t.Fatal(err)
			}
			if err := call.WaitEstablished(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := call.Hangup(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// settled waits out the request handlers of the last BYE (not the
	// transactions' timers, which are nobody's goroutine) and reports the
	// count they leave.
	settled := func() int {
		n := runtime.NumGoroutine()
		for range 40 {
			time.Sleep(5 * time.Millisecond)
			cur := runtime.NumGoroutine()
			if cur == n {
				break
			}
			n = cur
		}
		return n
	}
	placeAndClear(1)
	one := settled()
	placeAndClear(10)
	if ten := settled(); ten > one+2 {
		t.Fatalf("goroutines grew with calls placed: %d after one call, %d after eleven", one, ten)
	}
	for _, d := range daemons {
		d.Close()
	}
	if err := testutil.SettleGoroutines(baseline, 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
