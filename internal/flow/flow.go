// Package flow defines the network flow data model consumed by the
// LLMPrism pipeline.
//
// A flow record is what an ERSPAN-style switch-level collector exports:
// start time, duration, source and destination NIC addresses, byte count
// and the list of switches the flow traversed (§II-B of the paper). The
// analysis side treats addresses as opaque identifiers — mapping an address
// to its physical server is the topology's job, mirroring the provider's
// black-box view of tenant workloads.
package flow

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Addr is an opaque NIC endpoint address on the training fabric. It renders
// as a 10.x.y.z management address. One GPU has exactly one NIC in
// rail-optimized RoCE fabrics, so an Addr identifies a GPU for analysis
// purposes.
type Addr uint32

// String renders the address in dotted form, e.g. "10.0.3.5".
func (a Addr) String() string {
	buf := make([]byte, 0, len("10.255.255.255"))
	buf = append(buf, '1', '0')
	for _, oct := range [3]uint32{uint32(a>>16) & 0xff, uint32(a>>8) & 0xff, uint32(a) & 0xff} {
		buf = append(buf, '.')
		buf = strconv.AppendUint(buf, uint64(oct), 10)
	}
	return string(buf)
}

// ParseAddr parses the dotted form produced by Addr.String: exactly
// "10.x.y.z" with each octet a decimal in [0, 255] and nothing trailing.
func ParseAddr(s string) (Addr, error) {
	rest, ok := strings.CutPrefix(s, "10.")
	if !ok {
		return 0, fmt.Errorf("flow: parse addr %q: want 10.x.y.z form", s)
	}
	var v uint32
	for oct := 0; oct < 3; oct++ {
		if oct > 0 {
			if rest, ok = strings.CutPrefix(rest, "."); !ok {
				return 0, fmt.Errorf("flow: parse addr %q: want 4 octets", s)
			}
		}
		n := 0
		var part uint32
		for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
			part = part*10 + uint32(rest[n]-'0')
			if part > 255 {
				return 0, fmt.Errorf("flow: parse addr %q: octet out of range", s)
			}
			n++
		}
		if n == 0 || n > 3 {
			return 0, fmt.Errorf("flow: parse addr %q: bad octet", s)
		}
		v = v<<8 | part
		rest = rest[n:]
	}
	if rest != "" {
		return 0, fmt.Errorf("flow: parse addr %q: trailing garbage %q", s, rest)
	}
	return Addr(v), nil
}

// SwitchID identifies a fabric switch in collected flow records. Production
// collectors derive these from exporter identifiers that do not fit 32 bits
// (SNMP engine IDs, chassis MACs), so the type is a full int64; valid IDs
// are non-negative, and the text codecs reject anything else on decode.
type SwitchID int64

// String renders the switch identifier, e.g. "sw-12".
func (s SwitchID) String() string { return "sw-" + strconv.FormatInt(int64(s), 10) }

// Record is one collected network flow.
type Record struct {
	// ID is a collector-assigned unique identifier.
	ID uint64
	// Start is the flow start time.
	Start time.Time
	// Duration is the flow duration (first to last packet).
	Duration time.Duration
	// Src and Dst are the endpoint NIC addresses.
	Src, Dst Addr
	// Bytes is the flow size in bytes.
	Bytes int64
	// Switches lists the switches the flow traversed, in path order.
	Switches []SwitchID
}

// End returns the flow end time.
func (r Record) End() time.Time { return r.Start.Add(r.Duration) }

// Gbps returns the average flow bandwidth in gigabits per second
// (0 if the duration is zero).
func (r Record) Gbps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Duration.Seconds() / 1e9
}

// Pair returns the canonical (unordered) endpoint pair of the flow.
func (r Record) Pair() Pair { return MakePair(r.Src, r.Dst) }

// Pair is an unordered pair of endpoints with A <= B.
type Pair struct {
	A, B Addr
}

// MakePair returns the canonical pair for two endpoints.
func MakePair(x, y Addr) Pair {
	if x <= y {
		return Pair{A: x, B: y}
	}
	return Pair{A: y, B: x}
}

// String renders the pair as "src<->dst".
func (p Pair) String() string { return p.A.String() + "<->" + p.B.String() }

// Other returns the endpoint of p that is not a. If a is not part of the
// pair it returns p.A.
func (p Pair) Other(a Addr) Addr {
	if p.A == a {
		return p.B
	}
	if p.B == a {
		return p.A
	}
	return p.A
}

// SortByStart sorts records by start time ascending (stable on ID for
// deterministic ordering of simultaneous flows).
func SortByStart(records []Record) {
	sort.Slice(records, func(i, j int) bool {
		if !records[i].Start.Equal(records[j].Start) {
			return records[i].Start.Before(records[j].Start)
		}
		return records[i].ID < records[j].ID
	})
}

// Window returns the records whose start time falls in [from, to).
// The input must be sorted by start time; the result aliases the input.
func Window(records []Record, from, to time.Time) []Record {
	lo := sort.Search(len(records), func(i int) bool {
		return !records[i].Start.Before(from)
	})
	hi := sort.Search(len(records), func(i int) bool {
		return !records[i].Start.Before(to)
	})
	return records[lo:hi]
}

// GroupByPair buckets records by their canonical endpoint pair, preserving
// input order inside each bucket.
func GroupByPair(records []Record) map[Pair][]Record {
	groups := make(map[Pair][]Record)
	for _, r := range records {
		p := r.Pair()
		groups[p] = append(groups[p], r)
	}
	return groups
}

// Endpoints returns the distinct endpoint addresses appearing in records,
// sorted ascending.
func Endpoints(records []Record) []Addr {
	seen := make(map[Addr]struct{}, len(records)*2)
	for _, r := range records {
		seen[r.Src] = struct{}{}
		seen[r.Dst] = struct{}{}
	}
	out := make([]Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ByEndpoint buckets records by endpoint: each record appears in the bucket
// of both its source and destination. Input order is preserved per bucket.
func ByEndpoint(records []Record) map[Addr][]Record {
	buckets := make(map[Addr][]Record)
	for _, r := range records {
		buckets[r.Src] = append(buckets[r.Src], r)
		if r.Dst != r.Src {
			buckets[r.Dst] = append(buckets[r.Dst], r)
		}
	}
	return buckets
}
