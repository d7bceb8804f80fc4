// Emergency response: the paper's disaster scenario — fixed infrastructure
// is down, responders form an ad hoc network, and a truck with a satellite
// uplink acts as the gateway. Responders call each other locally, reach
// headquarters on the Internet through the gateway, and keep working when
// the truck moves away and a second uplink takes over.
package main

import (
	"fmt"
	"log"
	"time"

	"siphoc"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sc, err := siphoc.NewScenarioWith(siphoc.WithInternet(0))
	if err != nil {
		return err
	}
	defer sc.Close()

	// Headquarters' SIP provider and operator on the intact Internet.
	prov, err := sc.AddProvider(siphoc.ProviderConfig{Domain: "rescue.org"})
	if err != nil {
		return err
	}
	for _, u := range []string{"medic1", "medic2", "firechief", "hq"} {
		prov.AddAccount(u)
	}
	hq, err := sc.AddInternetPhone("hq", "rescue.org", "ops.rescue.org")
	if err != nil {
		return err
	}
	if err := hq.Register(); err != nil {
		return err
	}

	// The incident site: three responders in a line plus the uplink truck
	// at the end.
	medic1N, err := sc.AddNode("10.0.0.1", siphoc.Position{X: 0})
	if err != nil {
		return err
	}
	if _, err := sc.AddNode("10.0.0.2", siphoc.Position{X: 90}); err != nil {
		return err
	}
	chiefN, err := sc.AddNode("10.0.0.3", siphoc.Position{X: 180})
	if err != nil {
		return err
	}
	truck, err := sc.AddNode("10.0.0.9", siphoc.Position{X: 250}, siphoc.WithGateway())
	if err != nil {
		return err
	}
	fmt.Println("incident site: medic1 -- medic2 -- firechief -- uplink truck (gateway)")

	medic1, err := medic1N.NewPhone("medic1", "rescue.org")
	if err != nil {
		return err
	}
	chief, err := chiefN.NewPhone("firechief", "rescue.org")
	if err != nil {
		return err
	}
	if err := registerWithRetry(medic1); err != nil {
		return err
	}
	if err := registerWithRetry(chief); err != nil {
		return err
	}

	// Local coordination call: works even with zero Internet.
	call, err := medic1.Dial("firechief@rescue.org")
	if err != nil {
		return err
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		return fmt.Errorf("site-local call: %w", err)
	}
	fmt.Printf("site-local call medic1 -> firechief ok (%v, no infrastructure used)\n",
		call.SetupDuration().Round(time.Millisecond))
	_ = call.Hangup()

	// Reach headquarters through the truck.
	if err := sc.WaitAttached(medic1N, 30*time.Second); err != nil {
		return err
	}
	fmt.Println("uplink found via MANET SLP; site is attached to the Internet")
	call, err = medic1.Dial("hq@rescue.org")
	if err != nil {
		return err
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		return fmt.Errorf("call to HQ: %w", err)
	}
	call.SendVoice(25)
	fmt.Printf("medic1 -> hq@rescue.org ok (%v, via gateway tunnel)\n",
		call.SetupDuration().Round(time.Millisecond))
	_ = call.Hangup()

	// HQ calls back into the field at the medic's official address.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := prov.Binding("medic1@rescue.org"); ok {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	call, err = hq.Dial("medic1@rescue.org")
	if err != nil {
		return err
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		return fmt.Errorf("HQ -> field call: %w", err)
	}
	fmt.Printf("hq -> medic1@rescue.org ok (%v, Internet into the MANET)\n",
		call.SetupDuration().Round(time.Millisecond))
	_ = call.Hangup()

	// The truck leaves; a helicopter uplink replaces it.
	sc.RemoveNode(truck.ID())
	fmt.Println("\nuplink truck departed; site lost Internet connectivity")
	deadline = time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && medic1N.InternetAttached() {
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := sc.AddNode("10.0.0.10", siphoc.Position{X: 240}, siphoc.WithGateway()); err != nil {
		return err
	}
	if err := sc.WaitAttached(medic1N, 60*time.Second); err != nil {
		return fmt.Errorf("helicopter failover: %w", err)
	}
	fmt.Println("helicopter uplink arrived; site re-attached automatically")
	call, err = medic1.Dial("hq@rescue.org")
	if err != nil {
		return err
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		return fmt.Errorf("call to HQ after failover: %w", err)
	}
	fmt.Printf("medic1 -> hq ok again (%v) - connectivity churn was transparent\n",
		call.SetupDuration().Round(time.Millisecond))
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
