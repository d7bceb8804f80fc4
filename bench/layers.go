package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/routing"
	"siphoc/internal/rtp"
	"siphoc/internal/sdp"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
)

// measureLayers fills m with the numbers that do not depend on which workload
// is being traced: the layer timings of three reference scenarios (the
// set-ups of chain_signalling, voice_media and gateway_calls, which the
// workload's own measurement replaces where it has one) and the isolated
// drivers, each timing one layer's public functions at a fixed iteration
// count on inputs captured from the live chain.
func measureLayers(m map[string]float64, seed int64) error {
	wire, err := referenceScenarios(m, seed)
	if err != nil {
		return err
	}
	for _, drv := range []func() error{
		func() error { return driveNetem(m) },
		func() error { return driveRouting(m, wire.hello) },
		func() error { return driveSLP(m) },
		func() error { return driveSIP(m, wire.invite) },
		func() error { return driveRTP(m, wire.voice) },
		func() error { return driveObs(m) },
		func() error { return driveClock(m) },
	} {
		if err := drv(); err != nil {
			return err
		}
	}
	return nil
}

// capture keeps the first frame of each kind the drivers replay, copied off
// the medium by a Network tap.
type capture struct {
	mu     sync.Mutex
	invite []byte // SIP INVITE carrying an SDP offer, as a phone emitted it
	hello  []byte // routing envelope with an SLP piggyback extension
	voice  []byte // RTP voice frame
}

func (c *capture) tap(f netem.Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch f.Kind {
	case netem.KindRouting:
		var env routing.Envelope
		if c.hello == nil && routing.ParseEnvelopeInto(&env, f.Payload) == nil && len(env.Ext) > 0 {
			c.hello = bytes.Clone(f.Payload)
		}
	case netem.KindData:
		var dg netem.Datagram
		if netem.UnmarshalDatagramInto(&dg, f.Payload) != nil {
			return
		}
		var pkt rtp.Packet
		switch {
		case c.invite == nil && bytes.HasPrefix(dg.Data, []byte(sip.MethodInvite+" ")) && bytes.Contains(dg.Data, []byte(sdp.ContentType)):
			c.invite = bytes.Clone(dg.Data)
		case c.voice == nil && rtp.ParseInto(&pkt, dg.Data) == nil && len(pkt.Payload) >= rtp.PayloadBytes:
			c.voice = bytes.Clone(dg.Data)
		}
	}
}

func referenceScenarios(m map[string]float64, seed int64) (*capture, error) {
	wire, err := referenceChain(m, seed)
	if err != nil {
		return nil, fmt.Errorf("reference chain: %w", err)
	}
	if err := referenceGrid(m, seed); err != nil {
		return nil, fmt.Errorf("reference grid: %w", err)
	}
	if err := referenceGateway(m, seed); err != nil {
		return nil, fmt.Errorf("reference gateway: %w", err)
	}
	return wire, nil
}

// referenceChain is chain_signalling's set-up with a tap on the medium.
func referenceChain(m map[string]float64, seed int64) (*capture, error) {
	d, err := buildChain(seed)
	if err != nil {
		return nil, err
	}
	defer d.close()
	wire := &capture{}
	d.sc.Network().SetTap(wire.tap)
	defer d.sc.Network().SetTap(nil)
	if err := coldDiscovery(d); err != nil {
		return nil, err
	}
	if _, err := d.resolveAll(); err != nil {
		return nil, err
	}
	if _, err := d.warmUp(5); err != nil {
		return nil, err
	}
	if wire.invite == nil || wire.hello == nil || wire.voice == nil {
		return nil, fmt.Errorf("tap saw invite=%t piggyback=%t voice=%t", wire.invite != nil, wire.hello != nil, wire.voice != nil)
	}
	m["aodv.cold_discovery_ms"] = d.own["aodv.cold_discovery_ms"]
	return wire, nil
}

// referenceGrid is voice_media's grid up to convergence.
func referenceGrid(m map[string]float64, seed int64) error {
	d, err := buildVoice(seed)
	if err != nil {
		return err
	}
	defer d.close()
	if err := awaitFullTables(d); err != nil {
		return err
	}
	m["olsr.convergence_ms"] = d.own["olsr.convergence_ms"]
	return nil
}

// referenceGateway is gateway_calls' set-up; its warm-up calls include three
// inbound ones per MANET phone.
func referenceGateway(m map[string]float64, seed int64) error {
	w, err := workloadByName("gateway_calls")
	if err != nil {
		return err
	}
	d, set, err := setUp(w, seed, false)
	if err != nil {
		return err
	}
	defer d.close()
	m["core.connp.attach_ms"] = d.own["core.connp.attach_ms"]
	m["voip.inbound_setup_p50_ms"] = median(setupDelays(set.warmups, func(c callRecord) bool { return d.pairs[c.pair].inbound }))
	return nil
}

// drive times iters calls of fn, five rounds over, and returns the median
// round's nanoseconds and heap allocations per call.
func drive(iters int, fn func()) (ns, allocs float64) {
	fn()
	var nss, allocss []float64
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for range iters {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		nss = append(nss, float64(elapsed.Nanoseconds())/float64(iters))
		allocss = append(allocss, float64(after.Mallocs-before.Mallocs)/float64(iters))
	}
	return median(nss), median(allocss)
}

// direct is the routing of a network whose hosts are all neighbours.
type direct struct{}

func (direct) NextHop(dst netem.NodeID) (netem.NodeID, bool) { return dst, true }
func (direct) RequestRoute(_ netem.NodeID, done func(bool))  { done(true) }

// driveNetem times the medium alone: a unicast datagram from WriteTo to the
// receiving port's handler at a voice-frame and a SIP-message size, and a
// link broadcast to four neighbours.
func driveNetem(m map[string]float64) error {
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	centre, err := net.AddHost("c", netem.Position{})
	if err != nil {
		return err
	}
	centre.SetRouteProvider(direct{})
	// The medium delivers asynchronously, so a batch is timed from the first
	// send to the last delivery: each counter signals when it reaches a
	// multiple of its batch, and batches never overlap.
	const batch = 200 // well inside the 1024-frame receive queue
	var datagrams, frames atomic.Int64
	delivered := make(chan struct{}, 1)
	for i, pos := range []netem.Position{{X: 50}, {X: -50}, {Y: 50}, {Y: -50}} {
		h, err := net.AddHost(netem.NodeName("n", i), pos)
		if err != nil {
			return err
		}
		if err := h.HandleFrames(netem.KindRouting, func(netem.Frame) {
			if frames.Add(1)%(4*batch) == 0 {
				delivered <- struct{}{}
			}
		}); err != nil {
			return err
		}
		conn, err := h.Listen(9)
		if err != nil {
			return err
		}
		conn.Handle(func(*netem.Datagram) {
			if datagrams.Add(1)%batch == 0 {
				delivered <- struct{}{}
			}
		})
	}
	src, err := centre.Listen(9)
	if err != nil {
		return err
	}
	for _, size := range []int{172, 900} {
		payload := make([]byte, size)
		ns, allocs := drive(20, func() {
			for range batch {
				if err := src.WriteTo(payload, "n.0", 9); err != nil {
					panic(err) // both hosts are up and adjacent
				}
			}
			<-delivered
		})
		m[fmt.Sprintf("netem.unicast_ns_%d", size)] = ns / batch
		m[fmt.Sprintf("netem.unicast_allocs_%d", size)] = allocs / batch
	}
	hello := make([]byte, 120)
	ns, _ := drive(20, func() {
		for range batch {
			if err := centre.SendFrame(netem.Broadcast, netem.KindRouting, hello); err != nil {
				panic(err)
			}
		}
		<-delivered
	})
	m["netem.broadcast_ns_per_delivery"] = ns / (4 * batch)
	return nil
}

func driveRouting(m map[string]float64, hello []byte) error {
	var env routing.Envelope
	var parseErr error
	m["routing.envelope_parse_ns"], m["routing.envelope_parse_allocs"] = drive(200000, func() {
		parseErr = routing.ParseEnvelopeInto(&env, hello)
	})
	if parseErr != nil {
		return parseErr
	}
	entries := make([]routing.Entry, 64)
	for i := range entries {
		entries[i] = routing.Entry{Dst: netem.NodeName("10.0.0", i+1), NextHop: netem.NodeName("10.0.0", i%4+1), Hops: i%8 + 1}
	}
	table := routing.NewTable()
	m["routing.table_replace_ns"], _ = drive(5000, func() { table.Replace(entries) })
	now := time.Now()
	i := 0
	m["routing.table_lookup_ns"], _ = drive(500000, func() {
		table.Lookup(entries[i%len(entries)].Dst, now)
		i++
	})
	return nil
}

// driveSLP times the piggyback handler both ways with 16 services: a source
// agent that registered them encodes the extension (Outgoing), a second
// agent decodes and installs it (Incoming), then answers from its cache.
func driveSLP(m map[string]float64) error {
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	agents := make([]*slp.Agent, 2)
	for i := range agents {
		h, err := net.AddHost(netem.NodeName("s", i), netem.Position{X: float64(50 * i)})
		if err != nil {
			return err
		}
		agents[i] = slp.NewAgent(h, slp.Config{})
	}
	source, sink := agents[0], agents[1]
	for i := range 16 {
		aor := fmt.Sprintf("u%d@%s", i, domain)
		if err := source.Register(slp.Service{Type: "sip", Key: aor, URL: slp.ServiceURL("sip", fmt.Sprintf("s.0:%d", 5060+i))}); err != nil {
			return err
		}
	}
	var ext []byte
	m["slp.outgoing_ns"], m["slp.outgoing_allocs"] = drive(20000, func() {
		ext = source.Outgoing(routing.Outgoing{Proto: routing.ProtoOLSR, Budget: netem.MTU})
	})
	in := routing.Incoming{From: "s.0", Proto: routing.ProtoOLSR, Ext: ext}
	m["slp.incoming_ns"], m["slp.incoming_allocs"] = drive(20000, func() { sink.Incoming(in) })
	var lookupErr error
	m["slp.lookup_cached_ns"], _ = drive(200000, func() {
		_, lookupErr = sink.Lookup("sip", "u7@"+domain, time.Second)
	})
	return lookupErr
}

func driveSIP(m map[string]float64, invite []byte) error {
	msg, err := sip.Parse(invite)
	if err != nil {
		return fmt.Errorf("captured INVITE: %w", err)
	}
	m["sip.parse_invite_ns"], m["sip.parse_invite_allocs"] = drive(20000, func() { _, err = sip.Parse(invite) })
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 2*len(invite))
	m["sip.append_invite_ns"], m["sip.append_invite_allocs"] = drive(50000, func() { buf = msg.AppendTo(buf[:0]) })
	var clone *sip.Message
	m["sip.clone_invite_ns"], m["sip.clone_invite_allocs"] = drive(50000, func() { clone = msg.Clone() })
	if clone.CallID != msg.CallID {
		return fmt.Errorf("sip clone lost the Call-ID")
	}
	offer, err := sdp.Parse(msg.Body)
	if err != nil {
		return fmt.Errorf("captured SDP: %w", err)
	}
	m["sdp.parse_ns"], _ = drive(50000, func() { _, err = sdp.Parse(msg.Body) })
	if err != nil {
		return err
	}
	var body []byte
	m["sdp.marshal_ns"], _ = drive(50000, func() { body = offer.Marshal() })
	if len(body) == 0 {
		return fmt.Errorf("sdp marshal produced nothing")
	}
	return nil
}

func driveRTP(m map[string]float64, voice []byte) error {
	var pkt rtp.Packet
	var err error
	m["rtp.parse_ns"], m["rtp.parse_allocs"] = drive(1000000, func() { err = rtp.ParseInto(&pkt, voice) })
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 2*len(voice))
	m["rtp.append_ns"], m["rtp.append_allocs"] = drive(1000000, func() { buf = pkt.AppendTo(buf[:0]) })
	if !bytes.Equal(buf, voice) {
		return fmt.Errorf("rtp append does not reproduce the captured frame")
	}

	// One frame in, one frame out, 20 ms apart, as a receiving call does.
	jb := rtp.NewJitterBuffer(0)
	now := time.Now()
	played := 0
	const jbIters = 200000
	m["rtp.jitterbuf_put_pop_ns"], m["rtp.jitterbuf_put_pop_allocs"] = drive(jbIters, func() {
		jb.Put(&pkt, now)
		pkt.Seq++
		now = now.Add(20 * time.Millisecond)
		played += jb.FlushDue(now)
	})
	if played < 4*jbIters {
		return fmt.Errorf("jitter buffer played %d of %d frames", played, 5*jbIters)
	}

	// 64 streams' worth of 20 ms tasks on one pacer: how late each fires.
	pacer := rtp.NewPacer(clock.New())
	defer pacer.Close()
	const tasks, fires = 64, 50
	late := make([][]float64, tasks)
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i := range tasks {
		due := start.Add(time.Duration(i) * 20 * time.Millisecond / tasks)
		wg.Add(1)
		pacer.Schedule(rtp.NewTask(func() (time.Duration, bool) {
			late[i] = append(late[i], float64(time.Since(due).Microseconds()))
			due = due.Add(20 * time.Millisecond)
			return time.Until(due), len(late[i]) < fires
		}, wg.Done), due)
	}
	wg.Wait()
	var all []float64
	for _, l := range late {
		all = append(all, l...)
	}
	m["rtp.pacer_late_p99_us"] = percentile(all, 99)
	return nil
}

func driveObs(m map[string]float64) error {
	o := obs.New(clock.New())
	// A fresh Call-ID every 8 spans, like a call's own handful, so the
	// tracer's eviction of old calls is part of the cost.
	i := 0
	m["obs.span_ns"], _ = drive(200000, func() {
		o.StartSpan(fmt.Sprintf("call-%d", i/8), obs.PhaseSIPLeg, "10.0.0.1").End("")
		i++
	})
	c := o.Counter("bench.counter")
	m["obs.counter_inc_ns"], _ = drive(2000000, c.Inc)
	if c.Value() == 0 {
		return fmt.Errorf("obs counter did not count")
	}
	return nil
}

func driveClock(m map[string]float64) error {
	sched := clock.NewScheduler(clock.New(), 1)
	defer sched.Close()
	m["clock.sched_after_ns"], m["clock.sched_after_allocs"] = drive(100000, func() {
		sched.After("10.0.0.1", time.Hour, func(time.Time) {}).Stop()
	})

	// 500 one-shot timers 2 ms apart: how late each fires.
	const timers = 500
	late := make([]float64, timers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range timers {
		due := start.Add(time.Duration(i+5) * 2 * time.Millisecond)
		wg.Add(1)
		sched.After(fmt.Sprint(i), time.Until(due), func(now time.Time) {
			late[i] = float64(now.Sub(due).Microseconds())
			wg.Done()
		})
	}
	wg.Wait()
	m["clock.sched_late_p99_us"] = percentile(late, 99)
	return nil
}
