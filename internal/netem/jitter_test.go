package netem

import (
	"testing"
	"time"
)

// TestDelayJitterSpreadsArrivals sends a burst of frames over a jittery
// link and verifies arrival spacing varies (and that everything arrives).
func TestDelayJitterSpreadsArrivals(t *testing.T) {
	n := NewNetwork(Config{
		BaseDelay:   200 * time.Microsecond,
		DelayJitter: 30 * time.Millisecond,
		Seed:        5,
	})
	defer n.Close()
	ha, err := n.AddHost("a", Position{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := n.AddHost("b", Position{X: 10})
	if err != nil {
		t.Fatal(err)
	}
	ha.SetRouteProvider(staticRoutes{"b": "b"})
	ca, err := ha.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := hb.Listen(2)
	if err != nil {
		t.Fatal(err)
	}
	cbIn := inbox(cb)
	defer ca.Close()
	defer cb.Close()

	const frames = 30
	for range frames {
		if err := ca.WriteTo([]byte("x"), "b", 2); err != nil {
			t.Fatal(err)
		}
	}
	var arrivals []time.Time
	deadline := time.After(10 * time.Second)
	for len(arrivals) < frames {
		if arrived(cbIn) {
			arrivals = append(arrivals, time.Now())
			continue
		}
		select {
		case <-deadline:
			t.Fatalf("only %d/%d frames arrived", len(arrivals), frames)
		case <-time.After(100 * time.Microsecond):
		}
	}
	// With 30ms of jitter on a burst sent back-to-back, the arrival window
	// must span at least ~10ms (no jitter would deliver within ~base delay
	// of each other). The scale is the host's, not the medium's: the
	// deliveries run within tens of microseconds of their deadlines (a
	// system-clock shard on Linux waits on a timerfd), but this loop sees them
	// through time.After, and a goroutine asleep on a Go timer — as are
	// clock.System's NewTimer, After and Sleep — wakes a millisecond late as a
	// rule and several now and then, which is the whole window at a tenth of
	// these figures.
	span := arrivals[len(arrivals)-1].Sub(arrivals[0])
	if span < 10*time.Millisecond {
		t.Fatalf("arrival span %v too tight for 30ms jitter", span)
	}
}
