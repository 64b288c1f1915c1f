// Package erspan models the switch-level flow collection pipeline
// (ERSPAN-style port mirroring plus a netflow aggregation server, §II-B of
// the paper). It converts simulated network transmissions into the flow
// records the LLMPrism analysis consumes, injecting the collection
// imperfections that production systems exhibit: lost records, duplicated
// records from retransmission, timestamp jitter, and active-timeout record
// splitting. Intra-node (NVLink) traffic never reaches a switch and is
// silently invisible, exactly as in production.
//
// A Collector's output is columnar: Frame builds everything collected as
// one flow.Frame — the form a monitor stream ingests — and Records and
// WriteArchive are a materialized copy and a persisted copy of that frame.
// A caller that streams cuts the collected records into batches itself.
package erspan

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/netsim"
)

// Config parameterizes collection noise. The zero value collects perfectly.
type Config struct {
	// LossProb is the probability a flow record is lost entirely
	// (mirroring drop or collector overload).
	LossProb float64
	// DuplicateProb is the probability a record is exported twice
	// (retransmitted export datagrams).
	DuplicateProb float64
	// TimeJitter is the standard deviation of collector timestamp noise.
	TimeJitter time.Duration
	// ActiveTimeout splits flows longer than this into multiple records,
	// as netflow-style exporters do. Zero disables splitting.
	ActiveTimeout time.Duration
	// AggregateGap merges back-to-back transmissions of the same endpoint
	// pair and switch path into one flow record when the idle gap between
	// them is below this value — how real collectors see a queue pair's
	// chunk stream (one record per collective phase, not one per chunk).
	// Zero disables aggregation. Loss applies to aggregated records
	// (export datagrams carry whole records).
	AggregateGap time.Duration
	// Seed drives the noise randomness.
	Seed int64
	// Blackouts model per-switch mirror outages (a mirror session torn
	// down, a collector losing one switch's export stream): every record
	// whose path crosses the switch during the interval is dropped,
	// deterministically — no RNG draw, so an empty list leaves the noise
	// stream byte-identical.
	Blackouts []Blackout
}

// Blackout is one switch mirror outage: records whose path crosses Switch
// and whose flow starts in [From, Until) — sim-time offsets from the
// collector epoch — are lost.
type Blackout struct {
	Switch      flow.SwitchID
	From, Until time.Duration
}

// pendingKey identifies an aggregation stream: endpoint pair + path. The
// path component stays a content hash (not the interned PathID) so the
// deterministic flush order — and with it every downstream RNG draw — is
// identical to the historical record-slice collector's.
type pendingKey struct {
	src, dst flow.Addr
	path     uint64
}

// pending is a flow record being assembled from consecutive transmissions.
type pending struct {
	start, end time.Duration
	bytes      int64
	path       flow.PathID
}

// Collector accumulates flow records from network completions. Records are
// emitted straight into a columnar flow.FrameBuilder: each distinct switch
// path is interned exactly once, so per-record path copies — previously one
// heap slice per exported record — no longer exist.
type Collector struct {
	cfg    Config
	epoch  time.Time
	rng    *rand.Rand
	nextID uint64
	fb     *flow.FrameBuilder
	agg    map[pendingKey]*pending

	observed uint64
	lost     uint64
	blacked  uint64
}

// New returns a Collector anchoring sim-time offsets at epoch.
func New(epoch time.Time, cfg Config) *Collector {
	return &Collector{
		cfg:   cfg,
		epoch: epoch,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ 0x3ade68b1)),
		fb:    flow.NewFrameBuilder(),
		agg:   make(map[pendingKey]*pending),
	}
}

// Observe ingests one completed transmission.
func (c *Collector) Observe(comp netsim.Completion) {
	if comp.IntraNode {
		return // invisible to switches
	}
	c.observed++
	if c.cfg.AggregateGap <= 0 {
		c.export(comp.Src, comp.Dst, c.fb.InternPath(comp.Switches), comp.Start, comp.End, comp.Bytes)
		return
	}
	key := pendingKey{src: comp.Src, dst: comp.Dst, path: pathKey(comp.Switches)}
	p, ok := c.agg[key]
	if ok && comp.Start-p.end <= c.cfg.AggregateGap {
		p.bytes += comp.Bytes
		if comp.End > p.end {
			p.end = comp.End
		}
		return
	}
	if ok {
		c.export(comp.Src, comp.Dst, p.path, p.start, p.end, p.bytes)
	}
	c.agg[key] = &pending{
		start: comp.Start, end: comp.End,
		bytes: comp.Bytes, path: c.fb.InternPath(comp.Switches),
	}
}

func pathKey(switches []flow.SwitchID) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, s := range switches {
		h = (h ^ uint64(s)) * prime
	}
	return h
}

// export runs the per-record noise pipeline (blackout, loss, splitting,
// duplication) on one assembled flow record. The blackout check precedes
// the loss draw and consumes no randomness, so enabling blackouts does
// not shift the RNG stream of the other knobs.
func (c *Collector) export(src, dst flow.Addr, path flow.PathID, start, end time.Duration, bytes int64) {
	if len(c.cfg.Blackouts) > 0 && c.inBlackout(path, start) {
		c.lost++
		c.blacked++
		return
	}
	if c.cfg.LossProb > 0 && c.rng.Float64() < c.cfg.LossProb {
		c.lost++
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	if c.cfg.ActiveTimeout > 0 && dur > c.cfg.ActiveTimeout {
		c.emitSplit(src, dst, path, start, dur, bytes)
	} else {
		c.emit(src, dst, path, start, dur, bytes)
	}
	if c.cfg.DuplicateProb > 0 && c.rng.Float64() < c.cfg.DuplicateProb {
		c.emit(src, dst, path, start, dur, bytes)
	}
}

// emitSplit exports a long flow as consecutive records of at most
// ActiveTimeout each, with proportional byte counts.
func (c *Collector) emitSplit(src, dst flow.Addr, path flow.PathID, start, dur time.Duration, bytes int64) {
	timeout := c.cfg.ActiveTimeout
	remainingBytes := bytes
	for off := time.Duration(0); off < dur; off += timeout {
		sliceDur := timeout
		if off+sliceDur > dur {
			sliceDur = dur - off
		}
		sliceBytes := int64(float64(bytes) * float64(sliceDur) / float64(dur))
		if off+timeout >= dur {
			sliceBytes = remainingBytes // last slice takes the remainder
		}
		remainingBytes -= sliceBytes
		c.emit(src, dst, path, start+off, sliceDur, sliceBytes)
	}
}

func (c *Collector) emit(src, dst flow.Addr, path flow.PathID, start, dur time.Duration, bytes int64) {
	if c.cfg.TimeJitter > 0 {
		start += time.Duration(c.rng.NormFloat64() * float64(c.cfg.TimeJitter))
		if start < 0 {
			start = 0
		}
	}
	c.nextID++
	c.fb.Append(c.nextID, c.epoch.Add(start), dur, src, dst, bytes, path)
}

// flush exports every pending aggregation in deterministic key order.
func (c *Collector) flush() {
	keys := make([]pendingKey, 0, len(c.agg))
	for k := range c.agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		if keys[i].dst != keys[j].dst {
			return keys[i].dst < keys[j].dst
		}
		return keys[i].path < keys[j].path
	})
	for _, k := range keys {
		p := c.agg[k]
		c.export(k.src, k.dst, p.path, p.start, p.end, p.bytes)
		delete(c.agg, k)
	}
}

// Frame flushes any pending aggregations and builds the columnar frame of
// everything collected so far.
func (c *Collector) Frame() *flow.Frame {
	c.flush()
	return c.fb.Build()
}

// Records flushes any pending aggregations and returns the collected
// records sorted by start time. The records' switch paths alias the
// collector's interned path table and must be treated as read-only.
func (c *Collector) Records() []flow.Record {
	return c.Frame().RecordsByStart()
}

// WriteArchive is the collector → archive bridge: it flushes any pending
// aggregations and persists everything collected so far as a one-segment
// binary trace archive — the collector's columnar frame written directly,
// no text codec in between. The archive is marked as an unwindowed capture
// (zero window geometry, no grid anchor); replaying it through a monitor
// windows it like any live stream. The segment's bounds are the collected
// records' time span (an empty capture uses the collector's epoch, never
// the zero time — zero-time UnixNano is undefined and would bake garbage
// bounds into the file).
func (c *Collector) WriteArchive(w io.Writer) error {
	f := c.Frame()
	start, end := c.epoch, c.epoch
	if n := f.Len(); n > 0 {
		// Rows are sorted by (pair, start, id); scan for the span.
		start, end = f.Start(0), f.End(0)
		for i := 1; i < n; i++ {
			if s := f.Start(i); s.Before(start) {
				start = s
			}
			if e := f.End(i); e.After(end) {
				end = e
			}
		}
	}
	aw, err := archive.NewWriter(w, archive.Meta{})
	if err != nil {
		return fmt.Errorf("erspan: archive capture: %w", err)
	}
	if err := aw.Append(0, start, end, f); err != nil {
		return fmt.Errorf("erspan: archive capture: %w", err)
	}
	if err := aw.Close(); err != nil {
		return fmt.Errorf("erspan: archive capture: %w", err)
	}
	return nil
}

// inBlackout reports whether a record starting at start whose path is the
// interned id crosses any switch currently in a mirror blackout.
func (c *Collector) inBlackout(path flow.PathID, start time.Duration) bool {
	var switches []flow.SwitchID
	for _, b := range c.cfg.Blackouts {
		if start < b.From || start >= b.Until {
			continue
		}
		if switches == nil {
			switches = c.fb.Path(path)
		}
		for _, s := range switches {
			if s == b.Switch {
				return true
			}
		}
	}
	return false
}

// Observed returns how many fabric flows reached the collector
// (pre-noise, excluding intra-node traffic).
func (c *Collector) Observed() uint64 { return c.observed }

// Lost returns how many records the loss model dropped (blackout losses
// included).
func (c *Collector) Lost() uint64 { return c.lost }

// BlackedOut returns how many records a switch mirror blackout dropped.
func (c *Collector) BlackedOut() uint64 { return c.blacked }
