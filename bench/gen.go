package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/llmprism/llmprism/internal/faults"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/platform"
	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/stream"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/internal/truth"
)

// frameInterval is the collector's export period: every stream is cut
// into frames covering this much event time.
const frameInterval = time.Second

// seedStride spaces run seeds apart so that seed+salt of one run never
// lands on another run's trace.
const seedStride = 1_000_003

// traceSpec describes one simulated cluster trace. Everything the
// simulator draws derives from the run seed plus salt, so a seed fixes
// every byte the daemon sees.
type traceSpec struct {
	name string
	// jobs are the tenants' node counts, placed contiguously on the fabric.
	jobs []int
	// step is the tenants' target training-step duration.
	step time.Duration
	// spineFault degrades one spine switch over the middle third of the
	// horizon — the schedule of internal/experiments' switch-degrade
	// localization scenario.
	spineFault bool
	salt       int64
}

// perturb describes how a stream's arrival order departs from event-time
// order.
type perturb struct {
	// swapProb is the probability that a frame trades places with its
	// successor (arrival permuted within lateness). Frame 0 never moves:
	// the daemon anchors its window grid at the first frame it sees.
	swapProb float64
	// delayProb is the probability that a record is held back until every
	// window it belongs to has closed, so the daemon must drop it as late.
	delayProb float64
}

// trace is one simulated cluster's collected flows, cut into collector
// frames and encoded for the wire.
type trace struct {
	spec   traceSpec
	topo   *topology.Topology
	epoch  time.Time
	faults faults.Schedule
	// kept are the records the daemon must account for — everything
	// simulated except the deliberately delayed ones — in (start, id)
	// order; the brute-force scan oracle counts over them.
	kept []flow.Record
	// ref holds the frames in event-time order without the delayed
	// records: what an in-order offline session is fed.
	ref []*flow.Frame
	// msgs are the LPW1 frame messages in arrival order and maxStart the
	// largest record start each carries.
	msgs     [][]byte
	maxStart []int64
	// anchor is the window-grid origin the daemon will pick: the earliest
	// start in the first message.
	anchor int64
	// sent counts every record on the wire, delayed ones included.
	sent int
	// lateAssignments is the exact number of record-to-window assignments
	// the daemon must report dropped.
	lateAssignments uint64
	wireBytes       int64
	digest          [sha256.Size]byte
}

// geometry is the event-time window grid a daemon run uses; the generator
// needs it to know when a window closes.
type geometry struct {
	width, hop, lateness time.Duration
}

func (g geometry) stride() time.Duration {
	if g.hop > 0 {
		return g.hop
	}
	return g.width
}

// firstWindow is the grid index of the first window a session emits: the
// grid extends below the anchor until emission starts, so the earliest
// window is the first one covering the anchor itself.
func (g geometry) firstWindow() int64 {
	return stream.FloorDiv(-int64(g.width), int64(g.stride())) + 1
}

// lastClosed is the largest grid index the watermark has closed once a
// record starting at newest has been seen, on a grid anchored at anchor.
func (g geometry) lastClosed(anchor, newest int64) int64 {
	return stream.FloorDiv(newest-int64(g.lateness)-anchor-int64(g.width), int64(g.stride()))
}

// simulate runs the platform simulator for one trace.
func simulate(spec traceSpec, fabric topology.Spec, horizon time.Duration, seed int64) (*platform.Result, faults.Schedule, error) {
	plans := make([]platform.JobPlan, len(spec.jobs))
	for i, n := range spec.jobs {
		plans[i] = platform.JobPlan{Nodes: n, TargetStep: spec.step}
	}
	jobs, err := platform.PlanJobs(fabric, plans, seed*seedStride+spec.salt)
	if err != nil {
		return nil, faults.Schedule{}, err
	}
	var sched faults.Schedule
	if spec.spineFault {
		topo, err := topology.New(fabric)
		if err != nil {
			return nil, sched, err
		}
		sched.Faults = []faults.Fault{{
			Kind: faults.KindSwitchDegrade, Switch: topo.SpineSwitch(2),
			At: horizon / 3, Until: 2 * horizon / 3, Factor: 0.07,
		}}
	}
	res, err := platform.Run(platform.Scenario{
		Name: spec.name, Topo: fabric, Jobs: jobs, Faults: sched, Horizon: horizon,
	})
	return res, sched, err
}

// buildTrace simulates, chunks, perturbs and encodes one trace.
func buildTrace(spec traceSpec, fabric topology.Spec, horizon time.Duration, seed int64, geo geometry, p perturb) (*trace, error) {
	res, sched, err := simulate(spec, fabric, horizon, seed)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", spec.name, err)
	}
	recs := res.Records
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace %s: simulator produced no records", spec.name)
	}
	tr := &trace{spec: spec, topo: res.Topo, epoch: res.Truth.Epoch, faults: sched, sent: len(recs)}

	// Cut into collector frames on the epoch grid. chunks[i] holds the
	// records of frame i in (start, id) order.
	base := tr.epoch.UnixNano()
	var chunks [][]flow.Record
	for lo := 0; lo < len(recs); {
		idx := stream.FloorDiv(recs[lo].Start.UnixNano()-base, int64(frameInterval))
		hi := lo
		for hi < len(recs) && stream.FloorDiv(recs[hi].Start.UnixNano()-base, int64(frameInterval)) == idx {
			hi++
		}
		chunks = append(chunks, recs[lo:hi])
		lo = hi
	}
	n := len(chunks)
	tr.anchor = chunks[0][0].Start.UnixNano()

	// Arrival order: adjacent swaps, never touching frame 0.
	rng := rand.New(rand.NewSource(seed*seedStride + spec.salt + 1))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i+1 < n; i++ {
		if p.swapProb > 0 && rng.Float64() < p.swapProb {
			order[i], order[i+1] = order[i+1], order[i]
			i++
		}
	}
	pos := make([]int, n) // chunk index → arrival position
	for at, c := range order {
		pos[c] = at
	}

	// The watermark before each arrival position, from the chunks' own
	// maxima (a delayed record is older than anything around it, so it
	// never moves a maximum unless it was its chunk's newest — those are
	// never picked).
	cumMax := make([]int64, n)
	running := int64(math.MinInt64)
	for at, c := range order {
		running = max(running, chunks[c][len(chunks[c])-1].Start.UnixNano())
		cumMax[at] = running
	}

	// Delayed records ride a frame that arrives after every window they
	// belong to has closed: the engine then counts one late assignment per
	// window and the record appears in no report. A record that would be
	// late for only some of its windows is left alone, so the reference
	// (which omits delayed records entirely) stays exact.
	hop, width := int64(geo.stride()), int64(geo.width)
	holdFrames := int((geo.width+geo.lateness)/frameInterval) + 3
	extra := make([][]flow.Record, n) // arrival position → delayed records riding it
	delayed := make(map[uint64]bool)
	if p.delayProb > 0 {
		for c := 0; c+holdFrames < n; c++ {
			chunk := chunks[c]
			for i := 0; i < len(chunk)-1; i++ {
				if rng.Float64() >= p.delayProb {
					continue
				}
				at := pos[c] + holdFrames
				if at >= n {
					continue
				}
				d := chunk[i].Start.UnixNano() - tr.anchor
				kHi := stream.FloorDiv(d, hop)
				kLo := stream.FloorDiv(d-width, hop) + 1
				if kHi > geo.lastClosed(tr.anchor, cumMax[at-1]) {
					continue
				}
				delayed[chunk[i].ID] = true
				extra[at] = append(extra[at], chunk[i])
				tr.lateAssignments += uint64(kHi - kLo + 1)
			}
		}
	}

	without := func(chunk []flow.Record) []flow.Record {
		if len(delayed) == 0 {
			return chunk
		}
		out := make([]flow.Record, 0, len(chunk))
		for _, r := range chunk {
			if !delayed[r.ID] {
				out = append(out, r)
			}
		}
		return out
	}
	tr.ref = make([]*flow.Frame, n)
	tr.kept = make([]flow.Record, 0, len(recs))
	for c, chunk := range chunks {
		keep := without(chunk)
		tr.ref[c] = flow.NewFrame(keep)
		tr.kept = append(tr.kept, keep...)
	}

	h := sha256.New()
	var buf bytes.Buffer
	tr.msgs = make([][]byte, n)
	tr.maxStart = make([]int64, n)
	for at, c := range order {
		f := tr.ref[c]
		if len(extra[at]) > 0 {
			f = flow.NewFrame(append(append([]flow.Record(nil), without(chunks[c])...), extra[at]...))
		}
		buf.Reset()
		if err := session.WriteFrameMessage(&buf, f); err != nil {
			return nil, fmt.Errorf("trace %s: %w", spec.name, err)
		}
		tr.msgs[at] = append([]byte(nil), buf.Bytes()...)
		tr.maxStart[at] = f.MaxStartNanos()
		tr.wireBytes += int64(buf.Len())
		h.Write(tr.msgs[at])
	}
	h.Sum(tr.digest[:0])
	return tr, nil
}

// windowsPerRecord is how many windows every record of a trace lands in
// (the grid extends below the anchor until emission starts, so even the
// earliest records are fully covered).
func (g geometry) windowsPerRecord() int {
	return int((g.width + g.stride() - 1) / g.stride())
}

// gridWindows is how many windows a session over the trace releases once
// flushed: every grid slot from the first window covering the anchor to
// the one holding the newest record.
func (tr *trace) gridWindows(geo geometry) int {
	newest := tr.kept[len(tr.kept)-1].Start.UnixNano() - tr.anchor
	return int(stream.FloorDiv(newest, int64(geo.stride())) - geo.firstWindow() + 1)
}

// closingMessage returns, for every window seq released by the watermark,
// the arrival position of the message whose push closes it.
func (tr *trace) closingMessage(geo geometry) []int {
	first := geo.firstWindow()
	var out []int
	running := int64(math.MinInt64)
	for at, m := range tr.maxStart {
		running = max(running, m)
		for int64(len(out))+first <= geo.lastClosed(tr.anchor, running) {
			out = append(out, at)
		}
	}
	return out
}

// faultComponent names the injected component as report text prints it,
// and reports whether the trace has one.
func (tr *trace) faultComponent() (string, bool) {
	if len(tr.faults.Faults) == 0 {
		return "", false
	}
	comp, ok := truth.FaultComponent(tr.topo, tr.faults.Faults[0])
	return comp.String(), ok
}

func (tr *trace) digestHex() string { return hex.EncodeToString(tr.digest[:]) }
