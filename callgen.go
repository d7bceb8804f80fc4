package siphoc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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
	// EstablishTimeout bounds each call's setup (default 30s).
	EstablishTimeout time.Duration
}

// The arrival ramp: rampStages stages, stage s launching its share of the
// calls at (s+1)× the rate of the first, whose inter-arrival gap is
// rampInterval. callGenSeed drives caller/callee pairing.
const (
	rampStages   = 4
	rampInterval = 20 * time.Millisecond
	callGenSeed  = 1
)

func (c CallGenConfig) withDefaults() CallGenConfig {
	if c.Concurrent == 0 {
		c.Concurrent = 50
	}
	if c.VoiceFrames == 0 {
		c.VoiceFrames = 25
	}
	if c.EstablishTimeout == 0 {
		c.EstablishTimeout = 30 * time.Second
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
// open with two-way voice, drains, and reports. It is synchronous.
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
	islandOf := func(n *Node) int {
		for i, sc := range fed.Islands() {
			if sc.Node(n.ID()) != nil {
				return i
			}
		}
		return -1
	}
	type pair struct {
		caller, callee *Phone
		calleeAOR      string
	}
	pairs := make([]pair, 0, cfg.Concurrent)
	for k := range cfg.Concurrent {
		callerNode := clients[rng.Intn(len(clients))]
		var calleeNode *Node
		for {
			calleeNode = clients[rng.Intn(len(clients))]
			if islandOf(calleeNode) != islandOf(callerNode) {
				break
			}
		}
		cu, eu := fmt.Sprintf("c%d", k), fmt.Sprintf("e%d", k)
		fed.Pool().AddAccount(cu)
		fed.Pool().AddAccount(eu)
		caller, err := callerNode.NewPhone(cu, fed.cfg.Domain)
		if err != nil {
			return CallGenReport{}, fmt.Errorf("siphoc: callgen caller %d: %w", k, err)
		}
		callee, err := calleeNode.NewPhone(eu, fed.cfg.Domain)
		if err != nil {
			return CallGenReport{}, fmt.Errorf("siphoc: callgen callee %d: %w", k, err)
		}
		if err := retryRegister(caller); err != nil {
			return CallGenReport{}, fmt.Errorf("siphoc: callgen register %s: %w", caller.AOR(), err)
		}
		if err := retryRegister(callee); err != nil {
			return CallGenReport{}, fmt.Errorf("siphoc: callgen register %s: %w", callee.AOR(), err)
		}
		pairs = append(pairs, pair{caller: caller, callee: callee, calleeAOR: callee.AOR()})
	}

	// Upstream registrations propagate to the provider tier asynchronously
	// through the gateway tunnels; don't start dialing before every callee
	// is routable at the pool, or the earliest calls 404.
	bindDeadline := clk.Now().Add(cfg.EstablishTimeout)
	for _, p := range pairs {
		for {
			if _, ok := fed.Pool().Binding(p.calleeAOR); ok {
				break
			}
			if clk.Now().After(bindDeadline) {
				return CallGenReport{}, fmt.Errorf("siphoc: callgen: %s never reached the provider tier", p.calleeAOR)
			}
			clk.Sleep(5 * time.Millisecond)
		}
	}
	// With the overlay registrar up, callers resolve through the DHT before
	// the provider tier — and its publish path (REGISTER → island client →
	// STOREs on the K closest nodes) is just as asynchronous, so the same
	// pre-dial barrier applies: every callee must be resolvable in the
	// overlay or the earliest calls fall through to DNS and skew the
	// backend-comparison counters.
	if oc := fed.OverlayClient(0); oc != nil {
		for _, p := range pairs {
			for {
				if _, err := oc.Lookup(p.calleeAOR, time.Second); err == nil {
					break
				}
				if clk.Now().After(bindDeadline) {
					return CallGenReport{}, fmt.Errorf("siphoc: callgen: %s never reached the overlay registrar", p.calleeAOR)
				}
				clk.Sleep(5 * time.Millisecond)
			}
		}
	}

	// Callee side: answer (auto-answer is on) and stream voice back so the
	// caller's receive path has media to score. callersDone closes once every
	// caller goroutine has returned — past that point no INVITE (including
	// redials) can arrive, so waiting callees exit immediately instead of
	// serving out an arbitrary timeout.
	callersDone := make(chan struct{})
	var calleeWG sync.WaitGroup
	for _, p := range pairs {
		calleeWG.Add(1)
		go func(ph *Phone) {
			defer calleeWG.Done()
			// Loop: a cancelled first attempt (caller redial) must not eat
			// the one incoming slot this goroutine serves.
			for {
				select {
				case inc := <-ph.Incoming():
					if inc.WaitEstablished(cfg.EstablishTimeout) == nil {
						inc.StartVoice(cfg.VoiceFrames).Wait()
						return
					}
				case <-callersDone:
					return
				}
			}
		}(p.callee)
	}

	var (
		established atomic.Int64
		failed      atomic.Int64
		concurrent  atomic.Int64
		peak        atomic.Int64
		holdMu      sync.Mutex
		holdCond    = sync.NewCond(&holdMu)
		failuresMu  sync.Mutex
		failures    = make(map[string]int)
	)
	// wake runs whenever a call's setup resolves so holders re-check the
	// barrier below.
	wake := func() {
		holdMu.Lock()
		holdCond.Broadcast()
		holdMu.Unlock()
	}
	setupResolved := func() bool {
		return established.Load()+failed.Load() >= int64(len(pairs))
	}
	recordFailure := func(err error) {
		failed.Add(1)
		failuresMu.Lock()
		failures[err.Error()]++
		failuresMu.Unlock()
		wake()
	}

	dataBefore := fed.Internet().Network().Stats().DataFrames
	var callWG sync.WaitGroup
	runCall := func(p pair) {
		defer callWG.Done()
		t0 := clk.Now()
		// A failed setup gets one redial — what a human caller does, and
		// what keeps transient congestion during the ramp from deflating
		// the held population.
		var call *Call
		var lastErr error
		for attempt := 0; attempt < 2 && call == nil; attempt++ {
			c, err := p.caller.Dial(p.calleeAOR)
			if err != nil {
				lastErr = err
				continue
			}
			if err := c.WaitEstablished(cfg.EstablishTimeout); err != nil {
				_ = c.Cancel()
				lastErr = err
				continue
			}
			call = c
		}
		if call == nil {
			recordFailure(lastErr)
			return
		}
		setup := clk.Now().Sub(t0)
		setupHist.Observe(setup)
		established.Add(1)
		cur := concurrent.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		wake()
		// Hold the call open until every call's setup has resolved: the
		// workload's concurrency target is met with the whole established
		// population up at once.
		holdMu.Lock()
		for !setupResolved() {
			holdCond.Wait()
		}
		holdMu.Unlock()
		// Two-way voice while held; the caller scores its receive side.
		call.StartVoice(cfg.VoiceFrames).Wait()
		stats := call.MediaStats()
		if stats.Received > 0 {
			mosHist.Observe(time.Duration(stats.MOS * float64(mosUnit)))
		}
		_ = call.Hangup()
		concurrent.Add(-1)
	}

	// Arrival-rate ramp: later stages launch their share at a higher rate.
	next := 0
	perStage := (len(pairs) + rampStages - 1) / rampStages
	for s := 0; s < rampStages && next < len(pairs); s++ {
		interval := rampInterval / time.Duration(s+1)
		for i := 0; i < perStage && next < len(pairs); i++ {
			callWG.Add(1)
			go runCall(pairs[next])
			next++
			clk.Sleep(interval)
		}
	}
	callWG.Wait()
	close(callersDone)
	calleeWG.Wait()

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
		Attempted:          len(pairs),
		Established:        int(established.Load()),
		Failed:             int(failed.Load()),
		PeakConcurrent:     int(peak.Load()),
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

// retryRegister retries a phone's upstream registration a few times: with
// hundreds of phones registering through freshly attached tunnels, the
// first attempt can race the gateway handshake.
func retryRegister(ph *Phone) error {
	var err error
	for range 3 {
		if err = ph.Register(); err == nil {
			return nil
		}
	}
	return err
}
