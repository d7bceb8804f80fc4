package netem

import (
	"fmt"
	"math/rand"
)

// NodeName builds the conventional node ID used by topology helpers:
// prefix + "." + index, e.g. "10.0.0.3".
func NodeName(prefix string, i int) NodeID {
	return NodeID(fmt.Sprintf("%s.%d", prefix, i))
}

// Chain lays out count nodes in a straight line with the given spacing,
// producing a (count-1)-hop path when spacing is within radio range. This is
// the canonical topology for the setup-delay-vs-hops experiment (E8) and
// mirrors the paper's firewall-forced multihop testbed.
func Chain(n *Network, count int, spacing float64, prefix string) ([]*Host, error) {
	hosts := make([]*Host, 0, count)
	for i := range count {
		h, err := n.AddHost(NodeName(prefix, i+1), Position{X: float64(i) * spacing})
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

// Grid lays out rows*cols nodes on a regular grid (the campus scenario).
func Grid(n *Network, rows, cols int, spacing float64, prefix string) ([]*Host, error) {
	hosts := make([]*Host, 0, rows*cols)
	for r := range rows {
		for c := range cols {
			id := NodeName(prefix, r*cols+c+1)
			h, err := n.AddHost(id, Position{X: float64(c) * spacing, Y: float64(r) * spacing})
			if err != nil {
				return nil, err
			}
			hosts = append(hosts, h)
		}
	}
	return hosts, nil
}

// RandomLayout scatters count nodes uniformly over a width×height area using
// a deterministic seed.
func RandomLayout(n *Network, count int, width, height float64, seed int64, prefix string) ([]*Host, error) {
	rng := rand.New(rand.NewSource(seed))
	hosts := make([]*Host, 0, count)
	for i := range count {
		pos := Position{X: rng.Float64() * width, Y: rng.Float64() * height}
		h, err := n.AddHost(NodeName(prefix, i+1), pos)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

// Waypoint implements the random-waypoint mobility model: each node walks
// toward a random target at a random speed, then picks a new target.
type Waypoint struct {
	net           *Network
	rng           *rand.Rand
	width, height float64
	minSpeed      float64 // m/s
	maxSpeed      float64 // m/s
	targets       map[NodeID]Position
	speeds        map[NodeID]float64
	pinned        map[NodeID]bool
}

// NewWaypoint creates a mobility controller over the given area. Speeds are
// in metres per second; pedestrian VoIP users are ~1-2 m/s.
func NewWaypoint(n *Network, width, height, minSpeed, maxSpeed float64, seed int64) *Waypoint {
	return &Waypoint{
		net:      n,
		rng:      rand.New(rand.NewSource(seed)),
		width:    width,
		height:   height,
		minSpeed: minSpeed,
		maxSpeed: maxSpeed,
		targets:  make(map[NodeID]Position),
		speeds:   make(map[NodeID]float64),
		pinned:   make(map[NodeID]bool),
	}
}

// Step advances every node by dt seconds of movement.
func (w *Waypoint) Step(dt float64) {
	for _, id := range w.net.Nodes() {
		if w.pinned[id] {
			continue
		}
		pos, ok := w.net.PositionOf(id)
		if !ok {
			continue
		}
		target, hasT := w.targets[id]
		if !hasT || pos.Distance(target) < 1 {
			target = Position{X: w.rng.Float64() * w.width, Y: w.rng.Float64() * w.height}
			w.targets[id] = target
			w.speeds[id] = w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
		}
		speed := w.speeds[id]
		dist := pos.Distance(target)
		step := speed * dt
		if step >= dist {
			w.net.SetPosition(id, target)
			continue
		}
		frac := step / dist
		w.net.SetPosition(id, Position{
			X: pos.X + (target.X-pos.X)*frac,
			Y: pos.Y + (target.Y-pos.Y)*frac,
		})
	}
}

// Pin fixes a node in place (e.g. the gateway); Step skips pinned nodes.
func (w *Waypoint) Pin(id NodeID) { w.pinned[id] = true }
