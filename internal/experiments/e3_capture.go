package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"siphoc"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/slp"
)

const waitLong = 10 * time.Second

// E3 reproduces the paper's Figure 5: a packet-analyzer capture of an AODV
// route reply augmented with piggybacked SIP contact information. We attach
// a tap to the radio medium (our Wireshark), trigger a route discovery
// toward the node hosting Bob's proxy, and decode the RREP that carries his
// SIP binding in its extension.
func E3(w io.Writer) error {
	header(w, "E3: AODV RREP with encapsulated SIP contact (paper Figure 5)")
	sc, err := siphoc.NewScenarioWith()
	if err != nil {
		return err
	}
	defer sc.Close()
	nodes, err := sc.Chain(3, 90)
	if err != nil {
		return err
	}
	bob, err := nodes[2].NewPhone("bob", "voicehoc.ch")
	if err != nil {
		return err
	}
	if err := retry(3, bob.Register); err != nil {
		return err
	}

	type capture struct {
		frame netem.Frame
		env   routing.Envelope
	}
	var (
		mu  sync.Mutex
		got *capture
	)
	sc.Network().SetTap(func(f netem.Frame) {
		if f.Kind != netem.KindRouting {
			return
		}
		var env routing.Envelope
		if err := routing.ParseEnvelopeInto(&env, f.Payload); err != nil || env.Proto != routing.ProtoAODV || env.Kind != aodv.KindRREP {
			return
		}
		if len(env.Ext) == 0 || !strings.Contains(string(env.Ext), "bob@voicehoc.ch") {
			return
		}
		mu.Lock()
		if got == nil {
			// Kept past the tap's return, so a copy (see netem.Frame), and an
			// envelope that aliases the copy; these bytes parsed just above.
			f.Payload = append([]byte(nil), f.Payload...)
			_ = routing.ParseEnvelopeInto(&env, f.Payload)
			got = &capture{frame: f, env: env}
		}
		mu.Unlock()
	})

	// Trigger route discovery from node 1 toward Bob's node: the RREQ
	// floods, Bob's node answers with an RREP, and the SLP plugin rides
	// Bob's SIP binding on it.
	probe, err := nodes[0].Host().Listen(0)
	if err != nil {
		return err
	}
	defer probe.Close()
	deadline := time.Now().Add(waitLong)
	for {
		_ = probe.WriteTo([]byte("probe"), nodes[2].ID(), 9)
		time.Sleep(100 * time.Millisecond)
		mu.Lock()
		done := got != nil
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no RREP with piggybacked SIP contact captured")
		}
	}
	sc.Network().SetTap(nil)

	mu.Lock()
	c := got
	mu.Unlock()
	fmt.Fprintf(w, "captured routing frame %s -> %s (%d bytes):\n\n",
		c.frame.Src, c.frame.Dst, len(c.frame.Payload))
	hexdump(w, c.frame.Payload)

	rrep, err := aodv.ParseRREP(c.env.Body)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndecoded:\n")
	fmt.Fprintf(w, "  AODV Route Reply\n")
	fmt.Fprintf(w, "    originator : %s\n", rrep.Orig)
	fmt.Fprintf(w, "    destination: %s (hop count %d, dest seq %d)\n", rrep.Dst, rrep.HopCount, rrep.DstSeq)
	payload, err := slp.ParsePayload(c.env.Ext)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Piggybacked MANET SLP extension (%d bytes)\n", len(c.env.Ext))
	if d := payload.Digest; d != nil {
		fmt.Fprintf(w, "    table digest: %d entries, hash %016x\n", d.Count, d.Hash)
	}
	for _, adv := range payload.Adverts {
		fmt.Fprintf(w, "    service advert: %s/%s -> %s (origin %s, seq %d, ttl %v)\n",
			adv.Type, adv.Key, adv.URL, adv.Origin, adv.Seq, adv.TTL)
	}
	for _, q := range payload.Queries {
		fmt.Fprintf(w, "    query: %s/%s from %s (id %d, hops %d)\n", q.Type, q.Key, q.Origin, q.ID, q.Hops)
	}
	return nil
}

// hexdump prints a classic offset/hex/ASCII dump like a packet analyzer.
func hexdump(w io.Writer, b []byte) {
	for off := 0; off < len(b); off += 16 {
		end := min(off+16, len(b))
		row := b[off:end]
		fmt.Fprintf(w, "  %04x  ", off)
		for i := range 16 {
			if i < len(row) {
				fmt.Fprintf(w, "%02x ", row[i])
			} else {
				fmt.Fprint(w, "   ")
			}
			if i == 7 {
				fmt.Fprint(w, " ")
			}
		}
		fmt.Fprint(w, " |")
		for _, c := range row {
			if c >= 32 && c < 127 {
				fmt.Fprintf(w, "%c", c)
			} else {
				fmt.Fprint(w, ".")
			}
		}
		fmt.Fprintln(w, "|")
	}
}
