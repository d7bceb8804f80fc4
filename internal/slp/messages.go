package slp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/wire"
)

// Port is the well-known SLP port the agents bind (RFC 2608).
const Port uint16 = 427

// Service is one service registration, e.g. a SIP binding
// (Type "sip", Key "alice@voicehoc.ch", URL "service:sip://10.0.0.1:5060")
// or a gateway announcement (Type "gateway").
type Service struct {
	Type    string            // service type, e.g. "sip", "gateway"
	Key     string            // lookup key within the type, e.g. the AOR
	URL     string            // service URL, "service:<type>://host:port"
	Attrs   map[string]string // free-form attributes
	Origin  netem.NodeID      // node that registered the service
	Seq     uint32            // per-origin freshness counter
	Expires time.Time         // local expiry (computed from the TTL)
}

// ServiceURL builds the canonical service URL string.
func ServiceURL(stype string, addr string) string {
	return "service:" + stype + "://" + addr
}

// ParseServiceURL splits "service:<type>://<addr>".
func ParseServiceURL(url string) (stype, addr string, err error) {
	rest, ok := strings.CutPrefix(url, "service:")
	if !ok {
		return "", "", fmt.Errorf("slp: url %q: missing service: prefix", url)
	}
	stype, addr, ok = strings.Cut(rest, "://")
	if !ok {
		return "", "", fmt.Errorf("slp: url %q: missing ://", url)
	}
	return stype, addr, nil
}

// Item kinds. A payload (piggyback extension or service datagram) is a plain
// sequence of items to the end of the buffer, each led by its kind byte.
const (
	itemAdvert uint8 = 1
	itemQuery  uint8 = 2
	itemDigest uint8 = 3
)

// ttlUnit is the wire resolution of an advert's remaining lifetime: a u16
// of tenths of a second, rounded down. Rounding down means a relayed advert
// can only lose lifetime, never gain it, so a withdrawn registration cannot
// be kept alive by nodes passing it round; a tenth of a second per hop is
// what that costs (whole seconds cost a 30 s advert half its life across
// the 8×8 grid). The longest lifetime it carries is 109 minutes.
const ttlUnit = 100 * time.Millisecond

// maxAdvertSize bounds one encoded advert. Every routing message leaves
// more extension room than this next to the digest, so an accepted advert
// can always be passed on; larger ones are refused at Register and ignored
// off the wire.
const maxAdvertSize = 512

// digestSize is the encoded size of the digest item.
const digestSize = 1 + 2 + 8

// Advert is the wire form of a disseminated service registration.
type Advert struct {
	Type   string
	Key    string
	URL    string
	Attrs  map[string]string
	Origin netem.NodeID
	Seq    uint32
	TTL    time.Duration // remaining lifetime, carried in ttlUnit steps
}

// Query asks the network for services of a type/key.
type Query struct {
	Type   string
	Key    string // empty matches every service of the type
	Origin netem.NodeID
	ID     uint32
	Hops   uint8 // remaining epidemic relay budget
}

// Digest summarises a node's live service table in fixed size: how many
// entries it holds and the wrapping sum of a hash of each entry's (type,
// key, origin). Seq is left out on purpose: every origin raises it each
// refresh interval, and a digest that moved with it would read every
// refresh wave in flight as a disagreement. Two neighbours whose digests
// are equal hold the same registrations and exchange nothing else.
type Digest struct {
	Count uint16
	Hash  uint64
}

// Payload is the content of one SLP extension or datagram: the sender's
// table digest (piggyback extensions only) and a batch of adverts and
// queries.
type Payload struct {
	Digest  *Digest
	Adverts []Advert
	Queries []Query
}

// Marshal encodes the payload into a slice of its own.
func (p *Payload) Marshal() []byte { return p.AppendTo(make([]byte, 0, 64)) }

// AppendTo appends the payload's encoding to b and returns the extended
// slice. The encoding is canonical: digest, then adverts, then queries,
// attributes in key order, so equal payloads are equal bytes.
func (p *Payload) AppendTo(b []byte) []byte {
	if p.Digest != nil {
		b = appendDigest(b, p.Digest)
	}
	for i := range p.Adverts {
		b = appendAdvert(b, &p.Adverts[i])
	}
	for i := range p.Queries {
		b = appendQuery(b, &p.Queries[i])
	}
	return b
}

func appendDigest(b []byte, d *Digest) []byte {
	b = append(b, itemDigest)
	b = binary.BigEndian.AppendUint16(b, d.Count)
	return binary.BigEndian.AppendUint64(b, d.Hash)
}

func appendAdvert(b []byte, a *Advert) []byte {
	b = append(b, itemAdvert)
	b = wire.AppendString(b, a.Type)
	b = wire.AppendString(b, a.Key)
	b = wire.AppendString(b, a.URL)
	b = binary.BigEndian.AppendUint16(b, uint16(len(a.Attrs)))
	if len(a.Attrs) > 0 {
		keys := make([]string, 0, len(a.Attrs))
		for k := range a.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b = wire.AppendString(b, k)
			b = wire.AppendString(b, a.Attrs[k])
		}
	}
	b = wire.AppendString(b, string(a.Origin))
	b = binary.BigEndian.AppendUint32(b, a.Seq)
	return binary.BigEndian.AppendUint16(b, ttlUnits(a.TTL))
}

func appendQuery(b []byte, q *Query) []byte {
	b = append(b, itemQuery)
	b = wire.AppendString(b, q.Type)
	b = wire.AppendString(b, q.Key)
	b = wire.AppendString(b, string(q.Origin))
	b = binary.BigEndian.AppendUint32(b, q.ID)
	return append(b, q.Hops)
}

// ttlUnits is d on the wire: whole ttlUnits, rounded down.
func ttlUnits(d time.Duration) uint16 {
	return uint16(min(max(d/ttlUnit, 0), 0xffff))
}

// sizeOfAdvert returns the encoded size, used for budget packing.
func sizeOfAdvert(a *Advert) int {
	n := 1 + 2 + len(a.Type) + 2 + len(a.Key) + 2 + len(a.URL) + 2
	for k, v := range a.Attrs {
		n += 4 + len(k) + len(v)
	}
	n += 2 + len(a.Origin) + 4 + 2
	return n
}

func sizeOfQuery(q *Query) int {
	return 1 + 2 + len(q.Type) + 2 + len(q.Key) + 2 + len(q.Origin) + 4 + 1
}

// item is one decoded payload item. Its byte fields alias the input, so the
// receive path can probe its tables with them and copy only what it keeps.
type item struct {
	kind uint8
	size int // encoded length, kind byte included

	stype, key, origin []byte // advert and query
	url                []byte // advert
	attrs              []byte // advert: the nattrs encoded (name, value) pairs
	nattrs             int
	seq                uint32 // advert sequence number or query ID
	ttl                uint16 // advert, in ttlUnits
	hops               uint8  // query
	digest             Digest
}

// decoder walks the items of a payload in place. It is the one reader of
// the wire format: ParsePayload materialises what it yields, Agent.receive
// installs straight from it.
type decoder struct {
	r   wire.Reader
	err error
}

func newDecoder(b []byte) decoder { return decoder{r: *wire.NewReader(b)} }

// next decodes the item at the front of the input into it. It returns false
// at the end of the input or at the first malformed item, which sets d.err.
func (d *decoder) next(it *item) bool {
	r := &d.r
	before := len(r.Remaining())
	if d.err != nil || before == 0 {
		return false
	}
	switch it.kind = r.U8(); it.kind {
	case itemAdvert:
		it.stype, it.key, it.url = r.StringBytes(), r.StringBytes(), r.StringBytes()
		it.nattrs = int(r.U16())
		it.attrs = r.Remaining()
		for range it.nattrs {
			r.StringBytes()
			r.StringBytes()
		}
		it.attrs = it.attrs[:len(it.attrs)-len(r.Remaining())]
		it.origin, it.seq, it.ttl = r.StringBytes(), r.U32(), r.U16()
	case itemQuery:
		it.stype, it.key, it.origin = r.StringBytes(), r.StringBytes(), r.StringBytes()
		it.seq, it.hops = r.U32(), r.U8()
	case itemDigest:
		it.digest = Digest{Count: r.U16(), Hash: r.U64()}
	default:
		d.err = fmt.Errorf("unknown item kind %d", it.kind)
		return false
	}
	if d.err = r.Err(); d.err != nil {
		return false
	}
	it.size = before - len(r.Remaining())
	return true
}

// checkPayload walks b once without keeping anything, so that a receiver
// which installs as it decodes never acts on the head of a malformed payload.
func checkPayload(b []byte) error {
	d := newDecoder(b)
	var it item
	for d.next(&it) {
	}
	return d.err
}

func (it *item) attrMap() map[string]string {
	if it.nattrs == 0 {
		return nil
	}
	m := make(map[string]string, it.nattrs)
	r := wire.NewReader(it.attrs)
	for range it.nattrs {
		k := r.String()
		m[k] = r.String()
	}
	return m
}

func (it *item) advert() Advert {
	return Advert{
		Type: string(it.stype), Key: string(it.key), URL: string(it.url), Attrs: it.attrMap(),
		Origin: netem.NodeID(it.origin), Seq: it.seq, TTL: time.Duration(it.ttl) * ttlUnit,
	}
}

func (it *item) query() Query {
	return Query{Type: string(it.stype), Key: string(it.key), Origin: netem.NodeID(it.origin), ID: it.seq, Hops: it.hops}
}

// ParsePayload decodes a payload.
func ParsePayload(b []byte) (*Payload, error) {
	p := &Payload{}
	d := newDecoder(b)
	var it item
	for d.next(&it) {
		switch it.kind {
		case itemAdvert:
			p.Adverts = append(p.Adverts, it.advert())
		case itemQuery:
			p.Queries = append(p.Queries, it.query())
		case itemDigest:
			dg := it.digest
			p.Digest = &dg
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("slp: parse payload: %w", d.err)
	}
	return p, nil
}
