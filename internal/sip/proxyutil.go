package sip

import (
	"errors"
	"fmt"
)

// ErrTooManyHops is returned by PrepareForward when Max-Forwards reaches 0;
// the proxy answers the request with 483.
var ErrTooManyHops = errors.New("sip: max-forwards exhausted")

// PrepareForward copies req for forwarding by a proxy: it decrements
// Max-Forwards and strips the Route header entry pointing at this proxy, if
// any. The caller then sends the copy with Stack.SendRequest, which pushes
// the proxy's Via.
func PrepareForward(req *Message, self Addr) (*Message, error) {
	if req.MaxForwards == 0 {
		return nil, ErrTooManyHops
	}
	fwd := req.Clone()
	if fwd.MaxForwards < 0 {
		fwd.MaxForwards = 70
	}
	fwd.MaxForwards--
	// Remove a top Route entry addressed to us (loose routing).
	if len(fwd.Route) > 0 {
		top := fwd.Route[0].URI
		if top.Host == string(self.Node) && top.PortOrDefault() == self.Port {
			fwd.Route = fwd.Route[1:]
		}
	}
	return fwd, nil
}

// PrepareResponseForward copies resp for forwarding upstream: it pops this
// proxy's Via and returns the next hop taken from the new top Via's sent-by.
func PrepareResponseForward(resp *Message, self Addr) (*Message, Addr, error) {
	if len(resp.Via) < 2 {
		return nil, Addr{}, fmt.Errorf("sip: response has no upstream Via")
	}
	top := resp.Via[0]
	if top.Host != string(self.Node) || top.SentBy().Port != self.Port {
		return nil, Addr{}, fmt.Errorf("sip: top Via %s is not this proxy (%s)", top.SentBy(), self)
	}
	fwd := resp.Clone()
	fwd.Via = fwd.Via[1:]
	return fwd, fwd.Via[0].SentBy(), nil
}

// HasLoop reports whether the request already passed through the given
// proxy address, by scanning Via (RFC 3261 loop detection, simplified).
func HasLoop(req *Message, self Addr) bool {
	for _, v := range req.Via {
		if v.Host == string(self.Node) && v.SentBy().Port == self.Port {
			return true
		}
	}
	return false
}
