package experiments

import (
	"strings"
	"testing"

	"siphoc"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("registry has %d experiments, want 14", len(all))
	}
	if all[0].ID != "E1" || all[len(all)-1].ID != "E14" {
		t.Fatalf("ordering: first=%s last=%s", all[0].ID, all[len(all)-1].ID)
	}
	for _, e := range all {
		if e.Run == nil || e.Title == "" || e.Paper == "" {
			t.Fatalf("incomplete registry entry %+v", e)
		}
	}
	if _, ok := Find("E3"); !ok {
		t.Fatal("Find(E3) failed")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("Find(E99) succeeded")
	}
}

// runnable is every experiment but E7, whose binary sizes and live heap are
// properties of the host and its toolchain.
func runnable() []Experiment {
	var out []Experiment
	for _, e := range All() {
		if e.ID != "E7" {
			out = append(out, e)
		}
	}
	return out
}

// wants holds, per experiment, substrings its report must contain.
var wants = map[string][]string{
	"E1": {"step 1", "step 8", "call established"},
	"E2": {"loaded routing plugin: AODV"},
	// The reply is addressed to one neighbour, so it carries Bob's node's own
	// registrations whole, behind the digest every extension starts with.
	"E3": {"AODV Route Reply", "table digest:", "service advert: sip/bob@voicehoc.ch"},
	"E4": {"Outbound proxy"},
}

func TestExperimentsRun(t *testing.T) {
	for _, e := range runnable() {
		t.Run(e.ID, func(t *testing.T) {
			var b strings.Builder
			if err := e.Run(&b); err != nil {
				t.Fatalf("%s: %v\n%s", e.ID, err, b.String())
			}
			for _, want := range wants[e.ID] {
				if !strings.Contains(b.String(), want) {
					t.Fatalf("%s output missing %q:\n%s", e.ID, want, b.String())
				}
			}
		})
	}
}

// TestExperimentsDeterministic runs every experiment twice: in virtual time
// a report is exact for its seeds (E13 and E14's federation legs, on one
// shard per core, for the host's core count too) and must replay byte for
// byte.
func TestExperimentsDeterministic(t *testing.T) {
	for _, e := range runnable() {
		t.Run(e.ID, func(t *testing.T) {
			var out [2]strings.Builder
			for i := range out {
				if err := e.Run(&out[i]); err != nil {
					t.Fatalf("run %d: %v\n%s", i+1, err, out[i].String())
				}
			}
			if a, b := out[0].String(), out[1].String(); a != b {
				t.Fatalf("two runs differ:\n--- first\n%s\n--- second\n%s", a, b)
			}
		})
	}
}

// TestE6TwoOfThreeProviders: the two providers whose proxy runs on their
// domain register upstream, the one that needs an outbound proxy does not.
func TestE6TwoOfThreeProviders(t *testing.T) {
	var b strings.Builder
	if err := E6(&b); err != nil {
		t.Fatalf("E6: %v\n%s", err, b.String())
	}
	if ok, failed := strings.Count(b.String(), "OK (200)"), strings.Count(b.String(), "FAILED"); ok != 2 || failed != 1 {
		t.Fatalf("%d providers OK and %d failed, want 2 and 1:\n%s", ok, failed, b.String())
	}
}

// TestE8Shape: set-up delay grows with every hop for each variant, and a cold
// AODV call is slower than a warm one wherever its trace shows a route
// discovery.
func TestE8Shape(t *testing.T) {
	rows, err := RunE8([]int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	columns := map[string]func(E8Result) float64{
		"AODV cold": func(r E8Result) float64 { return float64(r.AODVCold) },
		"AODV warm": func(r E8Result) float64 { return float64(r.AODVWarm) },
		"OLSR":      func(r E8Result) float64 { return float64(r.OLSR) },
	}
	for name, col := range columns {
		if col(rows[0]) <= 0 {
			t.Errorf("%s: non-positive delay at %d hop: %+v", name, rows[0].Hops, rows[0])
		}
		for i := 1; i < len(rows); i++ {
			if col(rows[i]) <= col(rows[i-1]) {
				t.Errorf("%s: %d hops (%v) not slower than %d hops (%v)", name,
					rows[i].Hops, col(rows[i]), rows[i-1].Hops, col(rows[i-1]))
			}
		}
	}
	for _, r := range rows {
		// The cold call carries a trace-derived breakdown with a SIP share.
		if r.ColdPhases[siphoc.PhaseSIPTransaction] <= 0 {
			t.Errorf("%d hops: cold breakdown has no SIP share: %+v", r.Hops, r.ColdPhases)
		}
		if r.ColdPhases[siphoc.PhaseRouteDiscovery] > 0 && r.AODVCold <= r.AODVWarm {
			t.Errorf("%d hops: cold (%v) not slower than warm (%v) after a discovery", r.Hops, r.AODVCold, r.AODVWarm)
		}
	}
}

// TestE9PiggybackSendsNoFrames: at every size E9 sweeps, piggybacked MANET
// SLP puts no dedicated discovery frame on the air and its far lookup
// succeeds; on a 4-node chain every scheme's lookup does.
func TestE9PiggybackSendsNoFrames(t *testing.T) {
	for _, n := range []int{4, 8, 16, 30, 64} {
		rows, err := RunE9(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("%d nodes: rows = %d", n, len(rows))
		}
		for _, r := range rows {
			pig := r.Scheme == "manet-slp piggyback"
			if !r.LookupOK && (pig || n == 4) {
				t.Errorf("%d nodes: %s lookup failed", n, r.Scheme)
			}
			if pig && r.ServiceFrames != 0 {
				t.Errorf("%d nodes: piggyback sent %d service frames", n, r.ServiceFrames)
			}
		}
	}
}

func TestHexdump(t *testing.T) {
	var b strings.Builder
	hexdump(&b, []byte("SIP/2.0 200 OK\x00\x01"))
	out := b.String()
	if !strings.Contains(out, "53 49 50") || !strings.Contains(out, "|SIP/2.0 200 OK..|") {
		t.Fatalf("hexdump output:\n%s", out)
	}
}
