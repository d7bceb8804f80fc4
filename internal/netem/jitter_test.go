package netem

import (
	"testing"
	"time"

	"siphoc/internal/clock"
)

// TestDelayJitterSpreadsArrivals sends a burst of frames over a jittery
// link and verifies arrival spacing varies (and that everything arrives).
// The arrivals are stamped in virtual time, so the span is the medium's
// seeded jitter and nothing of the host's.
func TestDelayJitterSpreadsArrivals(t *testing.T) {
	clk := clock.NewFake(time.Unix(6_000_000, 0))
	n := NewNetwork(Config{
		BaseDelay:   200 * time.Microsecond,
		DelayJitter: 30 * time.Millisecond,
		Seed:        5,
		Clock:       clk,
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
	defer ca.Close()
	defer cb.Close()
	var arrivals []time.Time
	cb.Handle(func(*Datagram) { arrivals = append(arrivals, clk.Now()) })

	const frames = 30
	for range frames {
		if err := ca.WriteTo([]byte("x"), "b", 2); err != nil {
			t.Fatal(err)
		}
	}
	clk.Sleep(100 * time.Millisecond)
	if len(arrivals) != frames {
		t.Fatalf("only %d/%d frames arrived", len(arrivals), frames)
	}
	// With 30ms of jitter on a burst sent back-to-back, the arrival window
	// must span at least ~10ms (no jitter would deliver within ~base delay
	// of each other).
	span := arrivals[len(arrivals)-1].Sub(arrivals[0])
	if span < 10*time.Millisecond {
		t.Fatalf("arrival span %v too tight for 30ms jitter", span)
	}
}
