package slp

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/testutil"
)

// direct routes every destination as a 1-hop neighbour.
type direct struct{}

func (direct) NextHop(dst netem.NodeID) (netem.NodeID, bool)  { return dst, true }
func (direct) RequestRoute(dst netem.NodeID, done func(bool)) { done(true) }

// TestStopDropsReplies pins what Stop means for the unicast reply path, now
// that no receive goroutine stands between the port and the table. A reply
// is installed while the agent runs; one that arrives once Stop has begun is
// dropped, not processed; replies racing Stop leave nothing behind; and the
// refresh beat is gone from the scheduler.
func TestStopDropsReplies(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fake := clock.NewFake(time.Unix(6_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1})
	ha, err := net.AddHost("a", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := net.AddHost("b", netem.Position{X: 10})
	if err != nil {
		t.Fatal(err)
	}
	hb.SetRouteProvider(direct{})
	a := NewAgent(ha, Config{})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	sender, err := hb.Listen(Port)
	if err != nil {
		t.Fatal(err)
	}

	reply := func(key string) []byte {
		svc := Service{Type: "sip", Key: key, URL: ServiceURL("sip", "b:5060"), Origin: "b", Seq: 1,
			Expires: fake.Now().Add(time.Minute)}
		return (&Payload{Adverts: []Advert{advertOf(&svc, fake.Now())}}).Marshal()
	}
	known := func(key string) bool {
		_, ok := a.cache.get("sip", key, fake.Now())
		return ok
	}

	// Running: a reply over the medium is installed.
	if err := sender.WriteTo(reply("early@x"), "a", Port); err != nil {
		t.Fatal(err)
	}
	fake.Sleep(20 * time.Millisecond)
	if !known("early@x") {
		t.Fatal("reply to a running agent never installed")
	}

	// Replies keep reaching the port's handler while Stop runs, under -race.
	var wg sync.WaitGroup
	stop, racing := make(chan struct{}), make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a.onDatagram(&netem.Datagram{SrcNode: "b", DstNode: "a", SrcPort: Port, DstPort: Port, Data: reply("racing@x")})
			if i == 10 {
				close(racing)
			}
		}
	}()
	<-racing
	a.Stop()
	close(stop)
	wg.Wait()

	// Stopped: the port's handler drops what still reaches it.
	accepted := a.Stats().AdvertsAccepted
	a.onDatagram(&netem.Datagram{SrcNode: "b", DstNode: "a", SrcPort: Port, DstPort: Port, Data: reply("late@x")})
	if known("late@x") || a.Stats().AdvertsAccepted != accepted {
		t.Fatal("reply arriving after Stop was processed")
	}

	// The refresh beat's last deadline passes and the scheduler is empty.
	fake.Sleep(10 * a.refreshInterval())
	if ha.Sched().Pending() != 0 {
		t.Fatalf("%d tasks still queued for a stopped agent", ha.Sched().Pending())
	}
	net.Close()
	if err := testutil.SettleGoroutines(baseline, 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestStopEndsLookups pins the other half of Stop: every lookup waiting on the
// network ends with ErrNotFound, whichever form started it, its tasks leave
// the scheduler, and a lookup of a stopped agent ends at once.
func TestStopEndsLookups(t *testing.T) {
	for name, look := range lookupForms {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			fake := clock.NewFake(time.Unix(6_000_000, 0))
			net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1})
			h, err := net.AddHost("a", netem.Position{})
			if err != nil {
				t.Fatal(err)
			}
			a := NewAgent(h, Config{})
			if err := a.Start(); err != nil {
				t.Fatal(err)
			}
			const n = 4
			out := lookupAsync(t, look, a, n, "sip", "nobody@x", time.Minute)
			a.Stop()
			for i := 0; i < n; i++ {
				if r := result(t, out); !errors.Is(r.err, ErrNotFound) || !strings.Contains(r.err.Error(), "agent stopped") {
					t.Fatalf("lookup %d ended %v, want ErrNotFound from the stopped agent", i, r.err)
				}
			}
			if _, err := lookupOnce(t, look, a, "sip", "nobody@x", time.Minute); !errors.Is(err, ErrNotFound) {
				t.Fatalf("lookup of a stopped agent = %v, want ErrNotFound", err)
			}
			if a.waiting() != 0 || len(a.pendingQ) != 0 {
				t.Fatalf("%d lookups, %d queries left behind", a.waiting(), len(a.pendingQ))
			}
			fake.Sleep(10 * time.Minute)
			if h.Sched().Pending() != 0 {
				t.Fatalf("%d tasks still queued for a stopped agent", h.Sched().Pending())
			}
			net.Close()
			if err := testutil.SettleGoroutines(baseline, 0, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}
