// Campus: the paper's motivating "free voice communication within a
// university campus" scenario — a 5×5 grid of 25 devices, pedestrians
// walking around under random-waypoint mobility, calls between random pairs
// resolved entirely through MANET SLP, including one mid-mobility call that
// must survive topology change.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"siphoc"
	"siphoc/internal/netem"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Proactive routing suits a dense campus.
	sc, err := siphoc.NewScenarioWith(siphoc.WithRoutingKind(siphoc.RoutingOLSR))
	if err != nil {
		return err
	}
	defer sc.Close()

	nodes, err := sc.Grid(5, 5, 80)
	if err != nil {
		return err
	}
	fmt.Printf("campus MANET: %d devices on a 5x5 grid (OLSR routing)\n", len(nodes))

	phones := make([]*siphoc.Phone, len(nodes))
	for i, n := range nodes {
		ph, err := n.NewPhone(fmt.Sprintf("student%d", i+1), "campus.edu")
		if err != nil {
			return err
		}
		if err := registerWithRetry(ph); err != nil {
			return err
		}
		phones[i] = ph
	}
	fmt.Printf("all %d students registered with their local proxies\n\n", len(phones))

	// Static calls between far-apart pairs.
	rng := rand.New(rand.NewSource(7))
	for k := range 5 {
		i, j := rng.Intn(len(phones)), rng.Intn(len(phones))
		if i == j {
			continue
		}
		call, err := phones[i].Dial(phones[j].AOR())
		if err != nil {
			return err
		}
		if err := call.WaitEstablished(20 * time.Second); err != nil {
			return fmt.Errorf("call %d: %w", k+1, err)
		}
		call.SendVoice(25)
		fmt.Printf("call %d: %s -> %s ok (setup %v)\n",
			k+1, phones[i].AOR(), phones[j].AOR(), call.SetupDuration().Round(time.Millisecond))
		_ = call.Hangup()
	}

	// Mobility: students start walking; calls must still go through.
	fmt.Println("\nstudents start walking (random waypoint, 1-2 m/s)...")
	mover := netem.NewWaypoint(sc.Network(), 400, 400, 1, 2, 11)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				mover.Step(0.5) // 10x accelerated walking
			}
		}
	}()
	time.Sleep(time.Second) // let the topology actually change
	call, err := phones[0].Dial(phones[len(phones)-1].AOR())
	if err != nil {
		return err
	}
	if err := call.WaitEstablished(30 * time.Second); err != nil {
		return fmt.Errorf("mid-mobility call: %w", err)
	}
	call.SendVoice(50)
	fmt.Printf("mid-mobility call ok (setup %v)\n", call.SetupDuration().Round(time.Millisecond))
	return call.Hangup()
}

func registerWithRetry(ph *siphoc.Phone) error {
	var err error
	for range 5 {
		if err = ph.Register(); err == nil {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return err
}
