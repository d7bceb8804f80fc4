package siphoc

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"siphoc/internal/rtp"
)

// CallGenConfig shapes a federation call workload: phones are provisioned
// across the islands, then calls arrive in rate-ramped stages, each call is
// held open with two-way voice until the whole target population is up
// concurrently, and finally everything drains.
type CallGenConfig struct {
	// Concurrent is the number of simultaneously established calls the
	// workload ramps to and holds (default 50).
	Concurrent int
	// VoiceFrames is how many 20 ms voice frames each side streams while
	// the call is held (default 25, half a second of audio).
	VoiceFrames int
}

// The arrival ramp: rampStages stages, stage s launching its share of the
// calls at (s+1)× the rate of the first, whose inter-arrival gap is
// rampInterval. callGenSeed drives caller/callee pairing. establishTimeout
// bounds each call's setup, and the wait for every callee's binding.
const (
	rampStages       = 4
	rampInterval     = 20 * time.Millisecond
	callGenSeed      = 1
	establishTimeout = 30 * time.Second
)

func (c CallGenConfig) withDefaults() CallGenConfig {
	if c.Concurrent == 0 {
		c.Concurrent = 50
	}
	if c.VoiceFrames == 0 {
		c.VoiceFrames = 25
	}
	return c
}

// CallGenReport is the workload's outcome: counts, setup-latency and MOS
// percentiles (from the federation's obs histograms), and the trunk's
// packet-rate evidence.
type CallGenReport struct {
	Attempted      int
	Established    int
	Failed         int
	PeakConcurrent int

	SetupP50, SetupP90, SetupP99 time.Duration
	MOSMean, MOSP10, MOSP50      float64

	// InternetDataFrames counts inter-gateway datagrams on the Internet
	// during the workload; with trunking the same payload count crosses in
	// far fewer frames.
	InternetDataFrames int64
	Trunk              TrunkStats

	// FailureReasons counts failed setups by error text — the first stop
	// when a workload run reports Failed > 0.
	FailureReasons map[string]int
}

// mosHistBounds buckets MOS (a 1.0–4.5 score) recorded as microseconds ×100,
// giving ~0.1-MOS resolution to the quantile interpolation.
var mosHistBounds = func() []time.Duration {
	var b []time.Duration
	for v := 10; v <= 45; v++ { // 1.0 … 4.5 step 0.1
		b = append(b, time.Duration(v)*10*time.Microsecond)
	}
	return b
}()

const mosUnit = 100 * time.Microsecond // 1.0 MOS on the histogram scale

// CallGenerator drives cross-island calls over a federation.
type CallGenerator struct {
	fed *FederationScenario
	cfg CallGenConfig
}

// NewCallGenerator builds a workload for the federation.
func (f *FederationScenario) NewCallGenerator(cfg CallGenConfig) *CallGenerator {
	return &CallGenerator{fed: f, cfg: cfg.withDefaults()}
}

// Run provisions phones, ramps the call arrivals, holds the full population
// open with two-way voice, drains, and reports. It is synchronous, and it
// drives every call from the calling goroutine, which must be the one that
// built the federation: the owner of its virtual clock.
func (g *CallGenerator) Run() (CallGenReport, error) {
	cfg := g.cfg
	fed := g.fed
	clients := fed.Clients()
	if len(clients) < 2 {
		return CallGenReport{}, fmt.Errorf("siphoc: callgen needs at least two client nodes")
	}
	clk := fed.Clock()
	observer := fed.Observer()
	setupHist := observer.Histogram("fed.setup.delay", nil)
	mosHist := observer.Histogram("fed.mos", mosHistBounds)

	// Provision one caller and one callee phone per call slot. Callees are
	// deliberately placed on a different island than their caller so every
	// call crosses gateways and the provider tier.
	rng := rand.New(rand.NewSource(callGenSeed))
	// phone provisions user on n and registers it upstream, retrying a few
	// times: with hundreds of phones registering through freshly attached
	// tunnels, the first attempt can race the gateway handshake.
	phone := func(n *Node, user string) (*Phone, error) {
		fed.Pool().AddAccount(user)
		ph, err := n.NewPhone(user, fed.cfg.Domain)
		if err == nil {
			for range 3 {
				if err = ph.Register(); err == nil {
					return ph, nil
				}
			}
		}
		return nil, fmt.Errorf("siphoc: callgen phone %s: %w", user, err)
	}
	calls := make([]genCall, cfg.Concurrent)
	for k := range calls {
		callerNode := clients[rng.Intn(len(clients))]
		calleeNode := clients[rng.Intn(len(clients))]
		for calleeNode.scenario == callerNode.scenario {
			calleeNode = clients[rng.Intn(len(clients))]
		}
		g := &calls[k]
		var err error
		if g.caller, err = phone(callerNode, fmt.Sprintf("c%d", k)); err != nil {
			return CallGenReport{}, err
		}
		if g.callee, err = phone(calleeNode, fmt.Sprintf("e%d", k)); err != nil {
			return CallGenReport{}, err
		}
		g.calleeAOR = g.callee.AOR()
	}

	// Registrations propagate to the provider tier asynchronously through
	// the gateway tunnels; don't start dialing before every callee is
	// routable at the pool, or the earliest calls 404. With the overlay
	// registrar up, callers resolve through the DHT before the provider
	// tier — and its publish path (REGISTER → island client → STOREs on the
	// K closest nodes) is just as asynchronous, so every callee must be
	// resolvable in the overlay too, or the earliest calls fall through to
	// DNS and skew the backend-comparison counters.
	bindDeadline := clk.Now().Add(establishTimeout)
	routable := func(tier string, ok func(aor string) bool) error {
		for _, g := range calls {
			for !ok(g.calleeAOR) {
				if clk.Now().After(bindDeadline) {
					return fmt.Errorf("siphoc: callgen: %s never reached the %s", g.calleeAOR, tier)
				}
				clk.Sleep(5 * time.Millisecond)
			}
		}
		return nil
	}
	err := routable("provider tier", func(aor string) bool {
		_, ok := fed.Pool().Binding(aor)
		return ok
	})
	if oc := fed.OverlayClient(0); oc != nil && err == nil {
		err = routable("overlay registrar", func(aor string) bool {
			_, err := oc.Lookup(aor, time.Second)
			return err == nil
		})
	}
	if err != nil {
		return CallGenReport{}, err
	}

	// Calls are dialled on the ramp schedule and each is resolved through
	// its own gates, in a wait that ends at the next arrival at the latest.
	// A call that resolves out of turn is seen when the oldest pending one
	// resolves or the next call arrives; its setup delay comes from its own
	// timestamps all the same.
	var (
		established, failed int
		failures            = make(map[string]int)
		pending             []*genCall
	)
	// resolve moves g on from the outcome of the call it waits on, and
	// reports whether g is finished.
	resolve := func(g *genCall, err error) bool {
		now := clk.Now()
		if g.inc != nil { // the callee's side: its voice starts once it is up
			if err == nil {
				g.inc.StartVoice(cfg.VoiceFrames)
			}
			return true
		}
		if err == nil {
			setupHist.Observe(g.dialAt.Sub(g.t0) + g.call.SetupDuration())
			established++
			g.up = true
			// The callee's side: a cancelled first attempt's is passed over.
			for g.inc == nil && len(g.callee.Incoming()) > 0 {
				if c := <-g.callee.Incoming(); c.ID() == g.call.ID() {
					g.inc = c
				}
			}
			g.deadline = now.Add(establishTimeout)
			return g.inc == nil
		}
		if g.call != nil {
			_ = g.call.Cancel()
		}
		// A failed setup gets one redial — what a human caller does, and
		// what keeps transient congestion during the ramp from deflating
		// the held population.
		if g.dials < 2 {
			if err = g.dial(now); err == nil {
				return false
			}
		}
		failed++
		failures[err.Error()]++
		return true
	}

	dataBefore := fed.Internet().Network().Stats().DataFrames
	// Arrival-rate ramp: stage s dials its share at (s+1)× the first
	// stage's rate.
	perStage := (len(calls) + rampStages - 1) / rampStages
	next, arrival := 0, clk.Now()
	for next < len(calls) || len(pending) > 0 {
		now := clk.Now()
		if next < len(calls) && !now.Before(arrival) {
			g := &calls[next]
			arrival = arrival.Add(rampInterval / time.Duration(next/perStage+1))
			next++
			g.t0 = now
			if err := g.dial(now); err == nil || !resolve(g, err) {
				pending = append(pending, g)
			}
			continue
		}
		pending = slices.DeleteFunc(pending, func(g *genCall) bool {
			c := g.waited()
			if s := c.State(); (s == CallSetup || s == CallRinging) && now.Before(g.deadline) {
				return false
			}
			return resolve(g, c.WaitEstablished(0))
		})
		switch {
		case len(pending) > 0:
			until := pending[0].deadline
			if next < len(calls) && arrival.Before(until) {
				until = arrival
			}
			_ = pending[0].waited().WaitEstablished(max(until.Sub(clk.Now()), 0))
		case next < len(calls):
			clk.Sleep(arrival.Sub(clk.Now()))
		}
	}

	// Hold: every setup has resolved, so the established population is up
	// at once. Callers stream now and score their receive side; a callee's
	// stream, as long and started at its establishment, ends before theirs.
	var held []*Call
	for _, g := range calls {
		if g.up && g.call.State() == CallEstablished {
			held = append(held, g.call)
		}
	}
	voice := make([]*rtp.Stream, len(held))
	for i, c := range held {
		voice[i] = c.StartVoice(cfg.VoiceFrames)
	}
	// Then every caller hangs up, and the BYEs complete before the drain.
	for i, c := range held {
		voice[i].Wait()
		if stats := c.MediaStats(); stats.Received > 0 {
			mosHist.Observe(time.Duration(stats.MOS * float64(mosUnit)))
		}
		_ = c.StartHangup()
	}
	for _, c := range held {
		_ = c.WaitEnded(establishTimeout)
	}

	// Drain in-flight trunk flushes before snapshotting: a call's last media
	// frames can still sit in a paced flush window when it ends, which would
	// otherwise read as batched-but-undelivered payloads.
	prevTrunk := fed.TrunkStats()
	for range 50 {
		clk.Sleep(rtp.FrameDuration)
		cur := fed.TrunkStats()
		if cur == prevTrunk {
			break
		}
		prevTrunk = cur
	}

	report := CallGenReport{
		Attempted:          len(calls),
		Established:        established,
		Failed:             failed,
		PeakConcurrent:     len(held),
		InternetDataFrames: fed.Internet().Network().Stats().DataFrames - dataBefore,
		Trunk:              fed.TrunkStats(),
	}
	if len(failures) > 0 {
		report.FailureReasons = failures
	}
	snap := observer.Snapshot()
	if h, ok := snap.Histograms["fed.setup.delay"]; ok {
		report.SetupP50 = h.Quantile(0.50)
		report.SetupP90 = h.Quantile(0.90)
		report.SetupP99 = h.Quantile(0.99)
	}
	if h, ok := snap.Histograms["fed.mos"]; ok && h.Count > 0 {
		report.MOSMean = float64(h.Mean()) / float64(mosUnit)
		report.MOSP10 = float64(h.Quantile(0.10)) / float64(mosUnit)
		report.MOSP50 = float64(h.Quantile(0.50)) / float64(mosUnit)
	}
	return report, nil
}

// genCall is one call of the workload: the caller's current attempt until
// it is established, then the callee's side until that is.
type genCall struct {
	caller, callee *Phone
	calleeAOR      string
	call           *Call     // the caller's current attempt
	inc            *Call     // the callee's side, once the caller is up
	t0, dialAt     time.Time // the first dial and the current attempt's
	deadline       time.Time // when the current wait gives up
	dials          int
	up             bool // the caller's side was established
}

// dial places the call's next attempt.
func (g *genCall) dial(now time.Time) error {
	g.dials++
	c, err := g.caller.Dial(g.calleeAOR)
	g.call, g.dialAt, g.deadline = c, now, now.Add(establishTimeout)
	return err
}

// waited returns the call g waits on.
func (g *genCall) waited() *Call {
	if g.inc != nil {
		return g.inc
	}
	return g.call
}
