package siphoc_test

import (
	"fmt"
	"time"

	"siphoc"
)

// Example reproduces the paper's headline scenario: two users on opposite
// ends of a multihop MANET chain call each other with no centralized SIP
// server anywhere.
func Example() {
	sc, err := siphoc.NewScenarioWith()
	if err != nil {
		fmt.Println("scenario:", err)
		return
	}
	defer sc.Close()
	nodes, err := sc.Chain(3, 90)
	if err != nil {
		fmt.Println("chain:", err)
		return
	}
	alice, _ := nodes[0].NewPhone("alice", "voicehoc.ch")
	bob, _ := nodes[2].NewPhone("bob", "voicehoc.ch")
	for _, ph := range []*siphoc.Phone{alice, bob} {
		for range 5 {
			if err = ph.Register(); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			fmt.Println("register:", err)
			return
		}
	}
	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		fmt.Println("setup:", err)
		return
	}
	fmt.Println("call established:", call.State() == siphoc.CallEstablished)
	fmt.Println("voice frames sent:", call.SendVoice(10))
	_ = call.Hangup()
	fmt.Println("call ended:", call.State() == siphoc.CallEnded)
	// Output:
	// call established: true
	// voice frames sent: 10
	// call ended: true
}

// ExampleScenario_internet shows transparent Internet calling: once a
// gateway node exists, a MANET user's official SIP address reaches an
// Internet subscriber through the layer-2 tunnel.
func ExampleScenario_internet() {
	sc, err := siphoc.NewScenarioWith(siphoc.WithInternet(0))
	if err != nil {
		fmt.Println("scenario:", err)
		return
	}
	defer sc.Close()
	prov, _ := sc.AddProvider(siphoc.ProviderConfig{Domain: "voicehoc.ch"})
	prov.AddAccount("alice")
	prov.AddAccount("carol")
	if _, err := sc.AddNode("10.0.0.1", siphoc.Position{X: 50}, siphoc.WithGateway()); err != nil {
		fmt.Println("gateway:", err)
		return
	}
	node, _ := sc.AddNode("10.0.0.2", siphoc.Position{})
	carol, _ := sc.AddInternetPhone("carol", "voicehoc.ch", "ua.carol.net")
	_ = carol.Register()
	if err := sc.WaitAttached(node, 30*time.Second); err != nil {
		fmt.Println("attach:", err)
		return
	}
	alice, _ := node.NewPhone("alice", "voicehoc.ch")
	for range 5 {
		if err = alice.Register(); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	call, err := alice.Dial("carol@voicehoc.ch")
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		fmt.Println("setup:", err)
		return
	}
	fmt.Println("MANET to Internet call established:", call.State() == siphoc.CallEstablished)
	_ = call.Hangup()
	// Output:
	// MANET to Internet call established: true
}
