package siphoc

import (
	"runtime"
	"testing"
	"time"
)

// Scenario-level fault matrix: every case builds a live call mesh, runs a
// seeded FaultScenario against it, and then holds the harness to its own
// contract — CheckInvariants (faults all injected, no stuck calls, traces
// tile-complete) plus a zero-goroutine-leak check after teardown.

// establishCall dials bob from alice and returns both call legs established.
func establishCall(t *testing.T, alice, bob *Phone) (caller, callee *Call) {
	t.Helper()
	call, err := alice.Dial("bob@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		t.Fatalf("call setup: %v", err)
	}
	select {
	case callee = <-bob.Incoming():
	case <-time.After(time.Second):
		t.Fatal("no callee leg")
	}
	return call, callee
}

// pumpUntilReceived keeps streaming short voice bursts until the callee's
// received-frame count exceeds floor, proving the media path works (again).
func pumpUntilReceived(t *testing.T, caller, callee *Call, floor int64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		caller.SendVoice(5)
		time.Sleep(100 * time.Millisecond)
		if callee.MediaStats().Received > floor {
			return
		}
	}
	t.Fatalf("media never recovered: received=%d, want >%d", callee.MediaStats().Received, floor)
}

func TestFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, sc *Scenario, nodes []*Node, fs *FaultScenario)
	}{
		{
			// An established call survives a network partition that cuts the
			// caller off: media blackholes, the partition heals, AODV
			// re-discovers the path and the same session flows again.
			name: "mid-call partition heals",
			run: func(t *testing.T, sc *Scenario, nodes []*Node, fs *FaultScenario) {
				alice := registerPhone(t, nodes[0], "alice")
				bob := registerPhone(t, nodes[2], "bob")
				caller, callee := establishCall(t, alice, bob)
				fs.Track(caller)
				caller.SendVoice(5)
				time.Sleep(150 * time.Millisecond)
				before := callee.MediaStats().Received
				if before == 0 {
					t.Fatal("no media before the fault")
				}
				west := []NodeID{nodes[0].ID()}
				east := []NodeID{nodes[1].ID(), nodes[2].ID()}
				fs.Plan().
					Partition(50*time.Millisecond, west, east).
					HealPartition(650*time.Millisecond, west, east)
				if err := fs.Run(); err != nil {
					t.Fatal(err)
				}
				fs.Wait()
				pumpUntilReceived(t, caller, callee, before+5, 30*time.Second)
				if caller.State() != CallEstablished {
					t.Fatalf("call state after heal = %v", caller.State())
				}
			},
		},
		{
			// The only relay crashes mid-call and a replacement appears in
			// the same spot: the route re-forms through it and media
			// recovers without the session wedging.
			name: "relay crash then restart recovers media",
			run: func(t *testing.T, sc *Scenario, nodes []*Node, fs *FaultScenario) {
				alice := registerPhone(t, nodes[0], "alice")
				bob := registerPhone(t, nodes[2], "bob")
				caller, callee := establishCall(t, alice, bob)
				fs.Track(caller)
				caller.SendVoice(5)
				time.Sleep(150 * time.Millisecond)
				before := callee.MediaStats().Received
				if before == 0 {
					t.Fatal("no media before the fault")
				}
				fs.CrashNode(50*time.Millisecond, nodes[1].ID())
				fs.RestartNode(450*time.Millisecond, "10.0.0.99", Position{X: 90})
				if err := fs.Run(); err != nil {
					t.Fatal(err)
				}
				fs.Wait()
				pumpUntilReceived(t, caller, callee, before+5, 30*time.Second)
			},
		},
		{
			// The callee's node crashes; the invalidation hook purges its
			// SLP binding everywhere, so the next call fails fast with a
			// clean terminal status instead of chasing the stale advert
			// until a transaction timeout.
			name: "callee crash fails next call fast",
			run: func(t *testing.T, sc *Scenario, nodes []*Node, fs *FaultScenario) {
				alice := registerPhone(t, nodes[0], "alice")
				registerPhone(t, nodes[2], "bob")
				// Let the binding disseminate before the crash.
				if _, err := nodes[0].SLP().Lookup("sip", "bob@"+domain, 10*time.Second); err != nil {
					t.Fatal(err)
				}
				fs.CrashNode(10*time.Millisecond, nodes[2].ID())
				if err := fs.Run(); err != nil {
					t.Fatal(err)
				}
				fs.Wait()
				call, err := alice.Dial("bob@" + domain)
				if err != nil {
					t.Fatal(err)
				}
				fs.Track(call)
				if err := call.WaitEstablished(15 * time.Second); err == nil {
					t.Fatal("call to a crashed node established")
				}
				if call.State() != CallFailed {
					t.Fatalf("state = %v", call.State())
				}
				switch call.FailCode() {
				case 404, 408, 480, 500:
				default:
					t.Fatalf("unexpected fail code %d", call.FailCode())
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			sc, err := NewScenarioWith()
			if err != nil {
				t.Fatal(err)
			}
			nodes, err := sc.Chain(3, 90)
			if err != nil {
				sc.Close()
				t.Fatal(err)
			}
			fs := NewFaultScenario(sc, 42)
			func() {
				defer fs.Stop()
				tc.run(t, sc, nodes, fs)
			}()
			if err := fs.CheckInvariants(10 * time.Second); err != nil {
				t.Error(err)
			}
			sc.Close()
			if err := SettleGoroutines(base, 0, 5*time.Second); err != nil {
				t.Error(err)
			}
		})
	}
}
