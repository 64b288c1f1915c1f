// Package checkpoint serializes a streaming monitor session's continuity
// state — the window grid position plus the cross-window trackers (job
// registry, incident tracker, suspect tracker, coverage baseline) — so a
// killed-and-restarted monitor resumes emitting the next window with the
// same JobIDs, incident first-seen times and fused suspect scores the
// uninterrupted session would have produced.
//
// # File layout (version 1)
//
// All integers are little-endian; times are UnixNano with math.MinInt64
// marking the zero time; floats are IEEE-754 bits.
//
//	magic "LPK1" | version u32 (1)
//	geometry: width i64 | hop i64 | lateness i64
//	engine:   anchor i64 | maxEvent i64 | nextK i64 | seq i64 |
//	          late u64 | skipped u64
//	registry: next i64 | njobs u32, then per job:
//	          id i64 | firstSeen i64 | lastSeq i64 | nend u32 | addr u32 ...
//	incidents: seq i64 | firstAlertSeq i64 | n u32, then per incident:
//	          job i64 | kind u8 | rank u32 | switch i64 | firstSeen i64 |
//	          lastSeen i64 | windows i64 | flags u8 (bit0 StillFiring,
//	          bit1 Chronic) | openedSeq i64 | detail (u32 len + bytes)
//	suspects: present u8, then when present: n u32, then per track:
//	          component | firstSeen i64 | windows i64 | fused f64 |
//	          missed i64 | last suspect (component | score f64 |
//	          coverage f64 | contrast f64 | implicated i64 | healthy i64 |
//	          firstSeen i64 | windows i64 | fused f64)
//	          where component = kind u8 | switch i64 | a i64 | b i64 |
//	          host u32
//	coverage: present u8, then when present: n u32 | rows i64 ...
//	crc32 (IEEE) over all preceding bytes
//
// # Compatibility policy
//
// The decoder is strict: unknown version, bad checksum, truncation,
// implausible counts and trailing bytes are all rejected with precise
// errors — the strict-decoder bar every wire surface in this codebase
// meets. A layout change bumps the version; old versions are not migrated
// (a checkpoint is a crash-recovery artifact of one deployed binary, not
// an interchange format — on version skew the monitor starts a fresh
// session and only continuity, not correctness, is lost).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"github.com/llmprism/llmprism/internal/binfmt"
	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/localize"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/stream"
)

var magic = [4]byte{'L', 'P', 'K', '1'}

// Version is the current checkpoint layout version.
const Version = 1

// zeroTime marks time.Time{} on the wire (no real timestamp collides:
// UnixNano of the zero time is not representable anyway).
const zeroTime = math.MinInt64

// Checkpoint is one session's continuity state as of a window boundary.
type Checkpoint struct {
	// Width, Hop and Lateness pin the window geometry; a resumed session
	// must use them (a different grid would misalign every window).
	Width, Hop, Lateness time.Duration
	// Engine is the window-grid position (see stream.State).
	Engine stream.State
	// Registry is the job registry's tracked jobs and id counter.
	Registry jobrec.Snapshot
	// Incidents is the incident tracker's open incidents and baseline
	// bookkeeping.
	Incidents diagnose.TrackerSnapshot
	// Suspects is the suspect tracker's state; nil when the session ran
	// without localization.
	Suspects *localize.TrackerSnapshot
	// Coverage is the coverage guard's rolling baseline; nil when the
	// session ran without a coverage guard.
	Coverage *CoverageState
}

// CoverageState is the coverage guard's rolling baseline: the row counts
// of the most recent healthy windows.
type CoverageState struct {
	Recent []int64
}

// ResumeFrom returns the start of the first window the resumed session
// will emit. Records before it belong to already-emitted windows; the
// feeder replays everything at or after it.
func (c *Checkpoint) ResumeFrom() time.Time {
	return time.Unix(0, c.Engine.Anchor+c.Engine.NextK*int64(c.Hop)).UTC()
}

func putI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func putTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return putI64(b, zeroTime)
	}
	return putI64(b, t.UnixNano())
}

func putF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func putComponent(b []byte, c localize.Component) []byte {
	b = append(b, byte(c.Kind))
	b = putI64(b, int64(c.Switch))
	b = putI64(b, int64(c.A))
	b = putI64(b, int64(c.B))
	return binary.LittleEndian.AppendUint32(b, uint32(c.Host))
}

// Write serializes the checkpoint to w.
func Write(w io.Writer, c *Checkpoint) error {
	b := make([]byte, 0, 512)
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = putI64(b, int64(c.Width))
	b = putI64(b, int64(c.Hop))
	b = putI64(b, int64(c.Lateness))

	e := c.Engine
	b = putI64(b, e.Anchor)
	b = putI64(b, e.MaxEvent)
	b = putI64(b, e.NextK)
	b = putI64(b, int64(e.Seq))
	b = binary.LittleEndian.AppendUint64(b, e.Late)
	b = binary.LittleEndian.AppendUint64(b, e.Skipped)

	b = putI64(b, int64(c.Registry.Next))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Registry.Jobs)))
	for _, j := range c.Registry.Jobs {
		b = putI64(b, int64(j.ID))
		b = putTime(b, j.FirstSeen)
		b = putI64(b, int64(j.LastSeq))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(j.Endpoints)))
		for _, a := range j.Endpoints {
			b = binary.LittleEndian.AppendUint32(b, uint32(a))
		}
	}

	b = putI64(b, int64(c.Incidents.Seq))
	b = putI64(b, int64(c.Incidents.FirstAlertSeq))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Incidents.Open)))
	for _, o := range c.Incidents.Open {
		inc := o.Incident
		b = putI64(b, int64(inc.Key.Job))
		b = append(b, byte(inc.Key.Kind))
		b = binary.LittleEndian.AppendUint32(b, uint32(inc.Key.Rank))
		b = putI64(b, int64(inc.Key.Switch))
		b = putTime(b, inc.FirstSeen)
		b = putTime(b, inc.LastSeen)
		b = putI64(b, int64(inc.Windows))
		var flags byte
		if inc.StillFiring {
			flags |= 1
		}
		if inc.Chronic {
			flags |= 2
		}
		b = append(b, flags)
		b = putI64(b, int64(o.OpenedSeq))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(inc.Detail)))
		b = append(b, inc.Detail...)
	}

	if c.Suspects == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Suspects.Tracks)))
		for _, tr := range c.Suspects.Tracks {
			b = putComponent(b, tr.Component)
			b = putTime(b, tr.FirstSeen)
			b = putI64(b, int64(tr.Windows))
			b = putF64(b, tr.Fused)
			b = putI64(b, int64(tr.Missed))
			s := tr.Last
			b = putComponent(b, s.Component)
			b = putF64(b, s.Score)
			b = putF64(b, s.Coverage)
			b = putF64(b, s.Contrast)
			b = putI64(b, int64(s.Implicated))
			b = putI64(b, int64(s.Healthy))
			b = putTime(b, s.FirstSeen)
			b = putI64(b, int64(s.Windows))
			b = putF64(b, s.Fused)
		}
	}

	if c.Coverage == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Coverage.Recent)))
		for _, v := range c.Coverage.Recent {
			b = putI64(b, v)
		}
	}

	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	_, err := w.Write(b)
	return err
}

// readTime is putTime's inverse.
func readTime(c *binfmt.Cursor) time.Time {
	v := c.I64()
	if v == zeroTime {
		return time.Time{}
	}
	return time.Unix(0, v).UTC()
}

// readComponent is putComponent's inverse.
func readComponent(c *binfmt.Cursor) localize.Component {
	return localize.Component{
		Kind:   localize.ComponentKind(c.U8()),
		Switch: flow.SwitchID(c.I64()),
		A:      flow.SwitchID(c.I64()),
		B:      flow.SwitchID(c.I64()),
		Host:   flow.Addr(c.U32()),
	}
}

// Read parses and validates a checkpoint. The reader must yield exactly
// one checkpoint; trailing bytes are rejected.
func Read(r io.Reader) (*Checkpoint, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	cur, err := binfmt.Open("checkpoint", b, magic)
	if err != nil {
		return nil, err
	}
	if v := cur.U32(); v != Version {
		cur.Fail("unsupported version %d (want %d)", v, Version)
	}

	c := &Checkpoint{}
	c.Width = time.Duration(cur.I64())
	c.Hop = time.Duration(cur.I64())
	c.Lateness = time.Duration(cur.I64())
	if cur.Err() == nil && (c.Width <= 0 || c.Hop <= 0 || c.Lateness < 0 || c.Hop > c.Width) {
		cur.Fail("invalid window geometry width=%v hop=%v lateness=%v", c.Width, c.Hop, c.Lateness)
	}

	c.Engine = stream.State{
		Anchor:   cur.I64(),
		MaxEvent: cur.I64(),
		NextK:    cur.I64(),
		Seq:      int(cur.I64()),
		Late:     cur.U64(),
		Skipped:  cur.U64(),
	}
	if cur.Err() == nil && c.Engine.Seq < 0 {
		cur.Fail("negative emission index %d", c.Engine.Seq)
	}

	c.Registry.Next = jobrec.JobID(cur.I64())
	njobs := cur.Count(8+8+8+4, "job")
	for i := 0; i < njobs && cur.Err() == nil; i++ {
		j := jobrec.JobSnapshot{
			ID:        jobrec.JobID(cur.I64()),
			FirstSeen: readTime(cur),
			LastSeq:   int(cur.I64()),
		}
		nend := cur.Count(4, "endpoint")
		for k := 0; k < nend && cur.Err() == nil; k++ {
			j.Endpoints = append(j.Endpoints, flow.Addr(cur.U32()))
		}
		c.Registry.Jobs = append(c.Registry.Jobs, j)
	}

	c.Incidents.Seq = int(cur.I64())
	c.Incidents.FirstAlertSeq = int(cur.I64())
	nincs := cur.Count(8+1+4+8+8+8+8+1+8+4, "incident")
	for i := 0; i < nincs && cur.Err() == nil; i++ {
		var o diagnose.OpenIncident
		o.Incident.Key = diagnose.IncidentKey{
			Job:    int(cur.I64()),
			Kind:   diagnose.AlertKind(cur.U8()),
			Rank:   flow.Addr(cur.U32()),
			Switch: flow.SwitchID(cur.I64()),
		}
		o.Incident.FirstSeen = readTime(cur)
		o.Incident.LastSeen = readTime(cur)
		o.Incident.Windows = int(cur.I64())
		flags := cur.U8()
		o.Incident.StillFiring = flags&1 != 0
		o.Incident.Chronic = flags&2 != 0
		if cur.Err() == nil && flags&^byte(3) != 0 {
			cur.Fail("unknown incident flags %#x", flags)
		}
		o.OpenedSeq = int(cur.I64())
		ndetail := cur.Count(1, "detail byte")
		if p := cur.Take(ndetail); p != nil {
			o.Incident.Detail = string(p)
		}
		c.Incidents.Open = append(c.Incidents.Open, o)
	}

	const componentSize = 1 + 8 + 8 + 8 + 4
	switch cur.U8() {
	case 0:
	case 1:
		c.Suspects = &localize.TrackerSnapshot{}
		n := cur.Count(componentSize*2+8*13, "suspect track")
		for i := 0; i < n && cur.Err() == nil; i++ {
			tr := localize.TrackSnapshot{
				Component: readComponent(cur),
				FirstSeen: readTime(cur),
				Windows:   int(cur.I64()),
				Fused:     cur.F64(),
				Missed:    int(cur.I64()),
			}
			tr.Last = localize.Suspect{
				Component:  readComponent(cur),
				Score:      cur.F64(),
				Coverage:   cur.F64(),
				Contrast:   cur.F64(),
				Implicated: int(cur.I64()),
				Healthy:    int(cur.I64()),
				FirstSeen:  readTime(cur),
				Windows:    int(cur.I64()),
				Fused:      cur.F64(),
			}
			c.Suspects.Tracks = append(c.Suspects.Tracks, tr)
		}
	default:
		cur.Fail("invalid suspects presence byte")
	}

	switch cur.U8() {
	case 0:
	case 1:
		c.Coverage = &CoverageState{}
		n := cur.Count(8, "coverage window")
		for i := 0; i < n && cur.Err() == nil; i++ {
			c.Coverage.Recent = append(c.Coverage.Recent, cur.I64())
		}
	default:
		cur.Fail("invalid coverage presence byte")
	}

	if err := cur.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// Save replaces the checkpoint at path atomically (binfmt.WriteFile: the
// bytes go to path+".tmp", which binfmt.Commit fsyncs and renames over the
// target) — a crash mid-write leaves the previous checkpoint or none, never
// a torn one, and at most one stray temporary. The directory is not
// fsynced: after a power loss the previous checkpoint may be the one that
// survives.
func Save(path string, c *Checkpoint) error {
	err := binfmt.WriteFile(path, false, func(w io.Writer) error { return Write(w, c) })
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
