package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"siphoc"
	"siphoc/internal/core"
	"siphoc/internal/internet"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/routing/olsr"
)

const (
	// callTimeout bounds call set-up, measured from the due time; a failed
	// call enters every delay distribution at this value.
	callTimeout = 5 * time.Second
	// mediaDrain lets the last voice frames cross the network before the
	// receive statistics are read and the call is torn down.
	mediaDrain = 200 * time.Millisecond
	// warmupGap spaces the set-up's one warm-up call per pair.
	warmupGap = 20 * time.Millisecond
)

// procStart approximates process start: package initialisation runs within a
// millisecond of exec, and set-up times are seconds.
var procStart = time.Now()

// inbox drains a phone's Incoming channel (8 deep, and a full channel drops
// the notification) and hands each callee-side call to the goroutine driving
// that Call-ID.
type inbox struct {
	mu    sync.Mutex
	calls map[string]chan *siphoc.Call
	quit  chan struct{}
	done  chan struct{}
}

func newInbox(ph *siphoc.Phone) *inbox {
	b := &inbox{calls: make(map[string]chan *siphoc.Call), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		for {
			select {
			case c := <-ph.Incoming():
				select {
				case b.slot(c.ID()) <- c:
				default: // a Call-ID reported twice; the first one stands
				}
			case <-b.quit:
				return
			}
		}
	}()
	return b
}

// slot returns the one-element mailbox of a Call-ID, made by whichever side
// asks first.
func (b *inbox) slot(id string) chan *siphoc.Call {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch, ok := b.calls[id]
	if !ok {
		ch = make(chan *siphoc.Call, 1)
		b.calls[id] = ch
	}
	return ch
}

// take waits for the callee-side call with the given Call-ID.
func (b *inbox) take(id string, timeout time.Duration) (*siphoc.Call, bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case c := <-b.slot(id):
		b.mu.Lock()
		delete(b.calls, id)
		b.mu.Unlock()
		return c, true
	case <-timer.C:
		return nil, false
	}
}

func (b *inbox) stop() {
	close(b.quit)
	<-b.done
}

// callRecord is the outcome of one op: dial → established → two-way voice →
// hangup → callee saw the end.
type callRecord struct {
	pair     int
	failure  string        // empty for a successful call
	setup    time.Duration // due time → established; callTimeout when failed
	teardown time.Duration // Hangup → callee ended
	media    [2]siphoc.MediaStats
	// unconfirmed: the callee never saw the ACK. The phones send it once and
	// never retransmit the 200, so a lost ACK leaves the callee ringing while
	// voice flows; the call still counts as a success.
	unconfirmed bool
	// From Call.Trace(); zero with observability off.
	spans          int
	sipTransaction time.Duration
	resolve        time.Duration
}

// placeCall runs one op for a call that was due at due.
func (d *deployment) placeCall(pi int, due time.Time, frames int) (rec callRecord) {
	p := d.pairs[pi]
	rec = callRecord{pair: pi, setup: callTimeout}
	fail := func(format string, args ...any) callRecord {
		rec.failure = fmt.Sprintf(format, args...)
		rec.setup = callTimeout
		return rec
	}
	call, err := p.caller.phone.Dial(p.callee.phone.AOR())
	if err != nil {
		return fail("dial: %v", err)
	}
	if err := call.WaitEstablished(time.Until(due.Add(callTimeout))); err != nil {
		_ = call.Cancel() // best effort: the call is already counted as failed
		return fail("establish: %v", err)
	}
	rec.setup = time.Since(due)
	peer, ok := p.callee.inbox.take(call.ID(), time.Second)
	if !ok {
		_ = call.Hangup()
		return fail("callee never reported the call")
	}
	out, back := call.StartVoice(frames), peer.StartVoice(frames)
	if out == nil || back == nil {
		_ = call.Hangup()
		return fail("no media endpoint")
	}
	out.Wait()
	back.Wait()
	time.Sleep(mediaDrain)
	rec.media = [2]siphoc.MediaStats{call.MediaStats(), peer.MediaStats()}
	rec.unconfirmed = peer.State() != siphoc.CallEstablished
	hangup := time.Now()
	if err := call.Hangup(); err != nil {
		return fail("hangup: %v", err)
	}
	if err := peer.WaitEnded(callTimeout); err != nil {
		return fail("callee teardown: %v", err)
	}
	rec.teardown = time.Since(hangup)
	for _, m := range rec.media {
		if m.Received == 0 {
			return fail("a direction received no voice")
		}
	}
	if tr := call.Trace(); !tr.Empty() {
		rec.spans = len(tr.Spans)
		for _, ph := range tr.SetupBreakdown() {
			switch ph.Phase {
			case siphoc.PhaseSIPTransaction:
				rec.sipTransaction = ph.Duration
			case siphoc.PhaseSLPResolve:
				rec.resolve = ph.Duration
			}
		}
	}
	return rec
}

// setupReport times the phases of one set-up.
type setupReport struct {
	build, converge, resolve, warmup time.Duration
	total                            time.Duration // process start → ready for the first scheduled call
	coldLookups                      []time.Duration
	warmups                          []callRecord
}

// setUp builds the workload's deployment and brings it to the state the
// window starts from: routes in place, every phone registered, every pair's
// callee resolvable from the caller, and one warm-up call per pair done.
func setUp(w *workload, seed int64, traced bool) (*deployment, setupReport, error) {
	var rep setupReport
	var opts []siphoc.ScenarioOption
	if !traced {
		opts = append(opts, siphoc.WithoutObservability())
	}
	t0 := time.Now()
	d, err := w.build(seed, opts...)
	if err != nil {
		return nil, rep, fmt.Errorf("build: %w", err)
	}
	fail := func(err error) (*deployment, setupReport, error) {
		d.close()
		return nil, rep, err
	}
	t1 := time.Now()
	if err := w.converge(d); err != nil {
		return fail(fmt.Errorf("converge: %w", err))
	}
	t2 := time.Now()
	if rep.coldLookups, err = d.resolveAll(); err != nil {
		return fail(fmt.Errorf("resolve: %w", err))
	}
	t3 := time.Now()
	if rep.warmups, err = d.warmUp(w.frames); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	t4 := time.Now()
	rep.build, rep.converge, rep.resolve, rep.warmup = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	rep.total = t4.Sub(procStart)
	return d, rep, nil
}

// resolveAll registers every phone, then makes every pair's callee
// resolvable from its caller and returns how long each pair's MANET SLP
// lookup took. Between two MANET phones that lookup is for the callee's SIP
// binding, from the caller's node. A call through the gateway is resolved by
// the provider instead, so the lookup is for the gateway service the MANET
// end's node reaches the provider through, and the pair then waits for the
// callee's binding to appear at the provider.
func (d *deployment) resolveAll() ([]time.Duration, error) {
	for _, e := range d.ends {
		var err error
		for range 5 {
			if err = e.phone.Register(); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", e.phone.AOR(), err)
		}
	}
	lookups := make([]time.Duration, len(d.pairs))
	errs := make([]error, len(d.pairs))
	var wg sync.WaitGroup
	for i, p := range d.pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			aor := p.callee.phone.AOR()
			crossing := p.caller.node == nil || p.callee.node == nil
			from, stype, key := p.caller.node, core.SIPServiceType, aor
			if crossing {
				stype, key = core.GatewayServiceType, ""
				if from == nil {
					from = p.callee.node
				}
			}
			start := time.Now()
			_, errs[i] = from.SLP().Lookup(stype, key, 30*time.Second)
			lookups[i] = time.Since(start)
			if !crossing || errs[i] != nil {
				return
			}
			for deadline := start.Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if _, ok := d.provider.Binding(aor); ok {
					return
				}
				if time.Now().After(deadline) {
					errs[i] = fmt.Errorf("%s never reached the provider", aor)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return lookups, nil
}

// warmUp places one short call per pair, so the window never pays for a
// first-use route discovery or lazily built state.
func (d *deployment) warmUp(frames int) ([]callRecord, error) {
	frames = min(frames, 5)
	recs := make([]callRecord, len(d.pairs))
	var wg sync.WaitGroup
	for i := range d.pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = d.placeCall(i, time.Now(), frames)
		}()
		time.Sleep(warmupGap)
	}
	wg.Wait()
	for _, r := range recs {
		if r.failure != "" {
			p := d.pairs[r.pair]
			return nil, fmt.Errorf("%s -> %s: %s", p.caller.phone.AOR(), p.callee.phone.AOR(), r.failure)
		}
	}
	return recs, nil
}

// snapshot is every counter the ledger takes deltas of, read at one instant.
type snapshot struct {
	wall, sim    time.Time
	cpu, cpuUser time.Duration // of this process: user+sys, and user alone
	mem          runtime.MemStats
	air          siphoc.NetworkStats
	hosts        hostTotals
	proxy        siphoc.ProxyStats
	slp          siphoc.SLPStats
	gateway      siphoc.GatewayStats
	conn         siphoc.ConnStats
	aodv         aodv.Stats
	olsr         olsr.Stats
	provider     internet.ProviderStats
	registry     map[string]int64
}

type hostTotals struct{ forwarded, dropped int64 }

func (d *deployment) snapshot() snapshot {
	s := snapshot{wall: time.Now(), sim: d.sc.Clock().Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	s.cpuUser = time.Duration(ru.Utime.Nano())
	s.cpu = s.cpuUser + time.Duration(ru.Stime.Nano())
	runtime.ReadMemStats(&s.mem)
	m := d.sc.Metrics()
	s.air, s.registry = m.Network, m.Registry.Counters
	for _, p := range m.Proxies {
		s.proxy.RequestsRouted += p.RequestsRouted
		s.proxy.SLPResolutions += p.SLPResolutions
		s.proxy.InternetRouted += p.InternetRouted
		s.proxy.Unresolved += p.Unresolved
		s.proxy.SLPEvictions += p.SLPEvictions
	}
	for _, a := range m.SLP {
		s.slp.Lookups += a.Lookups
		s.slp.CacheHits += a.CacheHits
		s.slp.AdvertsAccepted += a.AdvertsAccepted
		s.slp.QueriesRelayed += a.QueriesRelayed
	}
	for _, g := range m.Gateways {
		s.gateway.FramesIn += g.FramesIn
		s.gateway.FramesOut += g.FramesOut
	}
	for _, c := range m.ConnProviders {
		s.conn.Failovers += c.Failovers
	}
	for _, n := range d.nodes {
		h := n.Host().Stats()
		s.hosts.forwarded += h.Forwarded
		s.hosts.dropped += h.NoRoute + h.TTLExpired + h.PortDrops
		switch r := n.Routing().(type) {
		case *aodv.Protocol:
			st := r.Stats()
			s.aodv.RREQSent += st.RREQSent + st.RREQFwd
			s.aodv.Discovered += st.Discovered
			s.aodv.Failed += st.Failed
			s.aodv.HelloSent += st.HelloSent
		case *olsr.Protocol:
			st := r.Stats()
			s.olsr.HelloSent += st.HelloSent
			s.olsr.TCSent += st.TCSent
			s.olsr.TCFwd += st.TCFwd
			s.olsr.Recompute += st.Recompute
			s.olsr.RecomputeSkipped += st.RecomputeSkipped
		}
	}
	if d.provider != nil {
		s.provider = d.provider.Stats()
	}
	return s
}

// windowReport is one measured window: per-call records plus the counter
// snapshots that bracket it.
type windowReport struct {
	calls         []callRecord    // dispatched calls; fewer than planned when aborted
	late          []time.Duration // generator lateness per dispatched call
	aborted       bool            // dispatch stopped early because a call had failed
	before, after snapshot
	peak          int64   // most calls in flight at once
	liveHeapMB    float64 // see liveHeap
}

// runWindow offers calls in open loop: call i is due at start + i/rate and is
// dispatched by this goroutine at that time whatever the earlier calls are
// doing; each call runs on its own goroutine. The window ends when the last
// call has ended. Once a call has failed no further calls are dispatched: the
// window is void either way (see maxAttempts) and the sooner it ends the
// sooner it is repeated.
func (d *deployment) runWindow(w *workload, seq []int) windowReport {
	rep := windowReport{calls: make([]callRecord, len(seq)), late: make([]time.Duration, len(seq))}
	var inFlight, peak atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	rep.before = d.snapshot()
	start := time.Now().Add(10 * time.Millisecond)
	for i, pi := range seq {
		due := start.Add(time.Duration(float64(i) / w.rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		if failed.Load() {
			rep.calls, rep.late, rep.aborted = rep.calls[:i], rep.late[:i], true
			break
		}
		rep.late[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := inFlight.Add(1)
			for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
			}
			rep.calls[i] = d.placeCall(pi, due, w.frames)
			if rep.calls[i].failure != "" {
				failed.Store(true)
			}
			inFlight.Add(-1)
		}()
	}
	wg.Wait()
	rep.after = d.snapshot()
	rep.peak = peak.Load()
	rep.liveHeapMB = liveHeap()
	return rep
}

// liveHeap is the smallest of five post-GC heap sizes 100 ms apart, taken
// with the scenario still up: a single sample also counts whatever the
// background protocols allocated while that collection ran.
func liveHeap() float64 {
	least := math.MaxFloat64
	var m runtime.MemStats
	for range 5 {
		runtime.GC()
		runtime.ReadMemStats(&m)
		least = min(least, float64(m.HeapAlloc)/(1<<20))
		time.Sleep(100 * time.Millisecond)
	}
	return least
}
