package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"siphoc"
	"siphoc/internal/netem"
	"siphoc/internal/rtp"
)

// E12Row is one mobility level's measurements.
type E12Row struct {
	Speed    float64 // m/s (simulation-accelerated 20x)
	SetupOK  bool
	Sent     int64
	Received int64
	LossRate float64
	MOS      float64
}

// E12 stresses the system under the mobility that defines MANETs: a long
// voice call runs between two users while every node walks random-waypoint
// at increasing speed. Call setup is quick enough to dodge mobility in a
// connected network; an ongoing media stream is not — every route break
// costs frames until AODV re-discovers a path, degrading loss and MOS with
// speed. The paper's testbed was static; this probes the regime its title
// promises.
func E12(w io.Writer) error {
	header(w, "E12: media quality under mobility (random waypoint)")
	rows, err := RunE12([]float64{0, 5, 20, 40})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "16 nodes, 350x350m, AODV, one 5s call (250 voice frames), movement 20x\n\n")
	fmt.Fprintf(w, "%-12s %10s %12s %8s\n", "speed (m/s)", "delivered", "delivery", "MOS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12.0f %6d/250 %11.1f%% %8.2f\n",
			r.Speed, r.Received, 100*(1-r.LossRate), r.MOS)
	}
	if rows[0].LossRate > 0.02 {
		return fmt.Errorf("static network lost %.1f%% of media", 100*rows[0].LossRate)
	}
	for _, r := range rows[1:] {
		if r.LossRate <= rows[0].LossRate {
			return fmt.Errorf("mobility at %.0f m/s did not cost any media: %+v", r.Speed, r)
		}
	}
	fmt.Fprintf(w, "\nshape: the static call is loss-free; every mobile run loses frames in the\n")
	fmt.Fprintf(w, "re-discovery windows after route breaks. Note the classic MANET non-\n")
	fmt.Fprintf(w, "monotonicity: slow movement creates long-lived breaks (a relay drifts out\n")
	fmt.Fprintf(w, "of range and stays there), while fast movement brings replacement relays\n")
	fmt.Fprintf(w, "quickly, so moderate speeds can hurt more than high ones.\n")
	return nil
}

// RunE12 measures the given waypoint speeds.
func RunE12(speeds []float64) ([]E12Row, error) {
	rows := make([]E12Row, 0, len(speeds))
	for _, speed := range speeds {
		row, err := runE12Point(speed)
		if err != nil {
			return nil, fmt.Errorf("speed %.0f: %w", speed, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE12Point(speed float64) (E12Row, error) {
	row := E12Row{Speed: speed}
	sc, err := newScenario()
	if err != nil {
		return row, err
	}
	defer sc.Close()
	const area = 350.0
	nodes := make([]*siphoc.Node, 0, 16)
	rng := rand.New(rand.NewSource(17))
	for i := range 16 {
		// A loose 4x4 jittered grid keeps the starting topology connected.
		base := siphoc.Position{
			X: float64(i%4)*90 + rng.Float64()*20,
			Y: float64(i/4)*90 + rng.Float64()*20,
		}
		n, err := sc.AddNode(netem.NodeName("10.0.0", i+1), base)
		if err != nil {
			return row, err
		}
		nodes = append(nodes, n)
	}
	// Call between opposite corners, pinned in place so only the relays
	// between them churn.
	alice, err := nodes[0].NewPhone("alice", "voicehoc.ch")
	if err != nil {
		return row, err
	}
	bob, err := nodes[15].NewPhone("bob", "voicehoc.ch")
	if err != nil {
		return row, err
	}
	if err := alice.Register(); err != nil {
		return row, err
	}
	if err := bob.Register(); err != nil {
		return row, err
	}
	if _, err := nodes[0].SLP().Lookup("sip", "bob@voicehoc.ch", waitLong); err != nil {
		return row, err
	}
	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		return row, err
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		return row, fmt.Errorf("setup: %w", err)
	}
	row.SetupOK = true
	// Movement starts once the call is up: the measurement is how the
	// established media path endures churn.
	if speed > 0 {
		mover := netem.NewWaypoint(sc.Network(), area, area, speed, speed, 23)
		mover.Pin(nodes[0].ID())
		mover.Pin(nodes[15].ID())
		// One second of movement every 50 ms: 20x real time.
		defer sc.Network().Sched().Every("mobility", 50*time.Millisecond, func(time.Time) { mover.Step(1) }).Stop()
	}
	const frames = 250 // 5 seconds of G.711
	row.Sent = int64(call.SendVoice(frames))
	sc.Clock().Sleep(300 * time.Millisecond) // drain in-flight frames
	var bobCall *siphoc.Call
	select {
	case bobCall = <-bob.Incoming():
	default:
		return row, fmt.Errorf("callee leg not observable")
	}
	st := bobCall.MediaStats()
	row.Received = st.Received
	// Loss over the whole attempted stream: frames that never left the
	// source (no route) count as lost too — that is what the listener
	// hears.
	row.LossRate = 1 - float64(st.Received)/float64(frames)
	if row.LossRate < 0 {
		row.LossRate = 0
	}
	_, row.MOS = rtp.EModel(st.AvgDelay, row.LossRate)
	_ = call.Hangup()
	return row, nil
}
