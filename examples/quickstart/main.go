// Quickstart: the paper's headline scenario in ~40 lines. Two users on
// opposite ends of a three-node MANET chain register with their local
// SIPHoc proxies and call each other — no centralized SIP server exists
// anywhere (paper Figure 3).
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
	sc, err := siphoc.NewScenarioWith()
	if err != nil {
		return err
	}
	defer sc.Close()

	// Three nodes in a line, 90 m apart with 100 m radio range: Alice and
	// Bob cannot hear each other directly and must relay via the middle.
	nodes, err := sc.Chain(3, 90)
	if err != nil {
		return err
	}
	alice, err := nodes[0].NewPhone("alice", "voicehoc.ch")
	if err != nil {
		return err
	}
	bob, err := nodes[2].NewPhone("bob", "voicehoc.ch")
	if err != nil {
		return err
	}
	if err := alice.Register(); err != nil {
		return err
	}
	if err := bob.Register(); err != nil {
		return err
	}
	fmt.Println("registered", alice.AOR(), "and", bob.AOR(), "with their local proxies")

	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		return err
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		return err
	}
	fmt.Printf("call established in %v over 2 hops\n", call.SetupDuration().Round(time.Millisecond))

	call.SendVoice(50) // one second of voice
	time.Sleep(200 * time.Millisecond)
	bobCall := <-bob.Incoming()
	st := bobCall.MediaStats()
	fmt.Printf("bob received %d/%d frames, MOS %.2f\n", st.Received, st.Expected, st.MOS)

	return call.Hangup()
}
