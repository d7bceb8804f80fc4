package experiments

import (
	"strings"
	"testing"
	"time"

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

// The fast experiments run end to end as tests; the slow sweeps (E5-E10)
// are exercised by cmd/experiments and the benchmarks.
func TestE1FlowRuns(t *testing.T) {
	var b strings.Builder
	if err := E1(&b); err != nil {
		t.Fatalf("E1: %v\n%s", err, b.String())
	}
	for _, want := range []string{"step 1", "step 8", "call established"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("E1 output missing %q:\n%s", want, b.String())
		}
	}
}

func TestE2StateRuns(t *testing.T) {
	var b strings.Builder
	if err := E2(&b); err != nil {
		t.Fatalf("E2: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "loaded routing plugin: AODV") {
		t.Fatalf("E2 output:\n%s", b.String())
	}
}

func TestE3CaptureRuns(t *testing.T) {
	var b strings.Builder
	if err := E3(&b); err != nil {
		t.Fatalf("E3: %v\n%s", err, b.String())
	}
	// The reply is addressed to one neighbour, so it carries Bob's node's own
	// registrations whole, behind the digest every extension starts with.
	for _, want := range []string{"AODV Route Reply", "table digest:", "service advert: sip/bob@voicehoc.ch"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("E3 output missing %q:\n%s", want, b.String())
		}
	}
}

func TestE4ConfigRuns(t *testing.T) {
	var b strings.Builder
	if err := E4(&b); err != nil {
		t.Fatalf("E4: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "Outbound proxy") {
		t.Fatalf("E4 output:\n%s", b.String())
	}
}

func TestRunE8SinglePoint(t *testing.T) {
	if testing.Short() {
		t.Skip("E8 point takes a few seconds")
	}
	rows, err := RunE8(1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Hops != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].AODVWarm <= 0 || rows[0].OLSR <= 0 {
		t.Fatalf("non-positive delays: %+v", rows[0])
	}
	// The cold call must carry a trace-derived breakdown with the SIP
	// transaction share dominating a warm-SLP in-MANET call.
	if rows[0].ColdPhases[siphoc.PhaseSIPTransaction] <= 0 {
		t.Fatalf("cold breakdown has no SIP share: %+v", rows[0].ColdPhases)
	}
}

func TestRunE9Short(t *testing.T) {
	if testing.Short() {
		t.Skip("E9 runs four schemes")
	}
	rows, err := RunE9(4, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.LookupOK {
			t.Fatalf("%s lookup failed", r.Scheme)
		}
		if r.Scheme == "manet-slp piggyback" && r.ServiceFrames != 0 {
			t.Fatalf("piggyback sent %d service frames", r.ServiceFrames)
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
