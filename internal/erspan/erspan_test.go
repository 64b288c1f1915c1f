package erspan

import (
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/netsim"
)

var epoch = time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)

func comp(src, dst flow.Addr, bytes int64, start, end time.Duration) netsim.Completion {
	return netsim.Completion{
		Src: src, Dst: dst, Bytes: bytes,
		Start: start, End: end,
		Switches: []flow.SwitchID{1, 9, 2},
	}
}

func TestPerfectCollection(t *testing.T) {
	c := New(epoch, Config{})
	c.Observe(comp(1, 2, 1000, 0, time.Millisecond))
	c.Observe(comp(3, 4, 2000, time.Second, time.Second+time.Millisecond))
	recs := c.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	r := recs[0]
	if !r.Start.Equal(epoch) || r.Duration != time.Millisecond || r.Bytes != 1000 {
		t.Errorf("record 0 wrong: %+v", r)
	}
	if len(r.Switches) != 3 {
		t.Errorf("switch path lost: %+v", r.Switches)
	}
	if recs[0].ID == recs[1].ID {
		t.Error("record IDs must be unique")
	}
	if c.Observed() != 2 || c.Lost() != 0 {
		t.Errorf("Observed/Lost = %d/%d", c.Observed(), c.Lost())
	}
}

func TestIntraNodeInvisible(t *testing.T) {
	c := New(epoch, Config{})
	ic := comp(1, 2, 1000, 0, time.Millisecond)
	ic.IntraNode = true
	ic.Switches = nil
	c.Observe(ic)
	if len(c.Records()) != 0 || c.Observed() != 0 {
		t.Error("intra-node flow should be invisible")
	}
}

func TestLoss(t *testing.T) {
	c := New(epoch, Config{LossProb: 0.5, Seed: 1})
	const n = 2000
	for i := 0; i < n; i++ {
		c.Observe(comp(1, 2, 1000, time.Duration(i)*time.Millisecond, time.Duration(i+1)*time.Millisecond))
	}
	got := len(c.Records())
	if got < n/2-150 || got > n/2+150 {
		t.Errorf("with 50%% loss, kept %d of %d", got, n)
	}
	if c.Lost()+uint64(got) != n {
		t.Errorf("Lost + kept = %d, want %d", c.Lost()+uint64(got), n)
	}
}

func TestDuplicates(t *testing.T) {
	c := New(epoch, Config{DuplicateProb: 1, Seed: 2})
	c.Observe(comp(1, 2, 1000, 0, time.Millisecond))
	recs := c.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records with certain duplication, want 2", len(recs))
	}
	if recs[0].Bytes != recs[1].Bytes {
		t.Error("duplicate must carry the same size")
	}
}

func TestTimeJitterBounded(t *testing.T) {
	c := New(epoch, Config{TimeJitter: time.Microsecond, Seed: 3})
	for i := 0; i < 100; i++ {
		c.Observe(comp(1, 2, 1000, time.Second, time.Second+time.Millisecond))
	}
	for _, r := range c.Records() {
		off := r.Start.Sub(epoch.Add(time.Second))
		if off < -10*time.Microsecond || off > 10*time.Microsecond {
			t.Fatalf("jitter too large: %v", off)
		}
	}
}

func TestActiveTimeoutSplitsConserveBytes(t *testing.T) {
	c := New(epoch, Config{ActiveTimeout: time.Second})
	const bytes = 10_000_000
	c.Observe(comp(1, 2, bytes, 0, 3500*time.Millisecond))
	recs := c.Records()
	if len(recs) != 4 {
		t.Fatalf("3.5s flow with 1s timeout: %d records, want 4", len(recs))
	}
	var total int64
	for i, r := range recs {
		total += r.Bytes
		if i < 3 && r.Duration != time.Second {
			t.Errorf("slice %d duration = %v, want 1s", i, r.Duration)
		}
	}
	if total != bytes {
		t.Errorf("split bytes = %d, want %d", total, bytes)
	}
	if recs[3].Duration != 500*time.Millisecond {
		t.Errorf("last slice duration = %v, want 500ms", recs[3].Duration)
	}
}

func TestShortFlowNotSplit(t *testing.T) {
	c := New(epoch, Config{ActiveTimeout: time.Second})
	c.Observe(comp(1, 2, 1000, 0, 900*time.Millisecond))
	if len(c.Records()) != 1 {
		t.Error("sub-timeout flow should not split")
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	build := func() []flow.Record {
		c := New(epoch, Config{LossProb: 0.3, DuplicateProb: 0.2, TimeJitter: time.Microsecond, Seed: 77})
		for i := 0; i < 500; i++ {
			c.Observe(comp(flow.Addr(i%8), flow.Addr(8+i%8), int64(1000+i),
				time.Duration(i)*time.Millisecond, time.Duration(i+2)*time.Millisecond))
		}
		return c.Records()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Start.Equal(b[i].Start) || a[i].Bytes != b[i].Bytes {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestRecordsSorted(t *testing.T) {
	c := New(epoch, Config{})
	c.Observe(comp(1, 2, 10, 5*time.Second, 6*time.Second))
	c.Observe(comp(1, 2, 10, time.Second, 2*time.Second))
	recs := c.Records()
	if !recs[0].Start.Before(recs[1].Start) {
		t.Error("records not sorted by start")
	}
}

func TestBlackoutDropsCrossingRecords(t *testing.T) {
	cfg := Config{Blackouts: []Blackout{{Switch: 9, From: time.Second, Until: 3 * time.Second}}}
	c := New(epoch, cfg)
	// Path {1, 9, 2} crosses the blacked-out switch 9.
	c.Observe(comp(1, 2, 1000, 500*time.Millisecond, 600*time.Millisecond))    // before: kept
	c.Observe(comp(1, 2, 1000, time.Second, time.Second+time.Millisecond))     // inside: dropped
	c.Observe(comp(1, 2, 1000, 2*time.Second, 2*time.Second+time.Millisecond)) // inside: dropped
	c.Observe(comp(1, 2, 1000, 3*time.Second, 3*time.Second+time.Millisecond)) // at Until: kept
	// A path avoiding switch 9 sails through the interval.
	c.Observe(netsim.Completion{
		Src: 5, Dst: 6, Bytes: 700,
		Start: 1500 * time.Millisecond, End: 1501 * time.Millisecond,
		Switches: []flow.SwitchID{3, 7, 4},
	})
	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if c.Lost() != 2 || c.BlackedOut() != 2 {
		t.Errorf("Lost/BlackedOut = %d/%d, want 2/2", c.Lost(), c.BlackedOut())
	}
}

// TestBlackoutDoesNotShiftNoiseRNG pins the determinism contract: the
// blackout check consumes no randomness, so a noisy collector with
// blackouts produces, for records outside the blackout, exactly the
// records the same collector produces without blackouts.
func TestBlackoutDoesNotShiftNoiseRNG(t *testing.T) {
	noisy := Config{LossProb: 0.3, DuplicateProb: 0.3, TimeJitter: time.Millisecond, Seed: 42}
	blk := noisy
	blk.Blackouts = []Blackout{{Switch: 9, From: 10 * time.Minute, Until: 11 * time.Minute}}

	feed := func(c *Collector) []flow.Record {
		for i := 0; i < 200; i++ {
			at := time.Duration(i) * 10 * time.Millisecond
			c.Observe(comp(flow.Addr(i%8), flow.Addr(i%8+8), 1000, at, at+time.Millisecond))
		}
		return c.Records()
	}
	a := feed(New(epoch, noisy))
	b := feed(New(epoch, blk)) // no record starts inside the blackout
	if !reflect.DeepEqual(a, b) {
		t.Error("an inert blackout changed the noise stream")
	}
}
