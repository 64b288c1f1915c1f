package localize

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/flow"
)

// shardTestJobs builds a window big enough to clear shardMinRows, with a
// degraded switch, a slow rank and plenty of healthy traffic over a small
// leaf/spine fabric — evidence of every component kind.
func shardTestJobs(n int) ([]Job, []diagnose.Alert) {
	rng := rand.New(rand.NewSource(42))
	spines := []flow.SwitchID{100, 101, 102, 103}
	records := make([]flow.Record, 0, n)
	for i := 0; i < n; i++ {
		src := flow.Addr(rng.Intn(32))
		dst := flow.Addr(rng.Intn(32))
		leafS := flow.SwitchID(int64(src)/8 + 1)
		leafD := flow.SwitchID(int64(dst)/8 + 1)
		spine := spines[rng.Intn(len(spines))]
		gbps := 100 + 50*rng.Float64()
		if spine == 100 || src == 3 {
			gbps /= 10 // degraded spine and slow rank
		}
		records = append(records, rec(uint64(i+1), src, dst, gbps, leafS, spine, leafD))
	}
	// Localize requires (start, id) order within a job.
	flow.SortByStart(records)
	jobs := []Job{{ID: 1, Records: records}}
	alerts := []diagnose.Alert{{Kind: diagnose.AlertSwitchBandwidth, Switch: 100}}
	jobs[0].Alerts = []diagnose.Alert{{Kind: diagnose.AlertCrossStep, Rank: 3, Step: 2}}
	return jobs, alerts
}

// TestLocalizeShardInvariance is the determinism gate for the sharded
// accumulators: every shard count must produce the exact ranking the
// serial reference path (one shard) produces — scores bit-identical, not
// just rankings — over the whole ranking before the maxSuspects cut, not
// just the suspects Localize returns.
func TestLocalizeShardInvariance(t *testing.T) {
	jobs, alerts := shardTestJobs(shardMinRows + 500)
	want := rank(jobs, alerts, Config{}, 1)
	if len(want) < 32 {
		t.Fatalf("reference ranking holds %d suspects, want at least 32", len(want))
	}
	for _, shards := range []int{0, 2, 3, 4, 7, 8} {
		got := rank(jobs, alerts, Config{}, shards)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d diverges from serial reference:\nwant %+v\ngot  %+v", shards, want, got)
		}
	}
}

// TestLocalizeSmallWindowStaysSerial: windows under shardMinRows take the
// serial path regardless of the shard count — and still match it exactly when
// forced through the sharded machinery sizes can't reach here. (The
// equivalence itself is what matters; the fallback is a perf guard.)
func TestLocalizeSmallWindowShardEquivalence(t *testing.T) {
	jobs, alerts := shardTestJobs(600)
	want := rank(jobs, alerts, Config{}, 1)
	for _, shards := range []int{0, 4} {
		if got := rank(jobs, alerts, Config{}, shards); !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d diverges on a small window", shards)
		}
	}
}

// TestComponentShardPartition: the hash must place every component in
// exactly one shard, stably.
func TestComponentShardPartition(t *testing.T) {
	comps := []Component{
		SwitchComponent(1), SwitchComponent(100),
		LinkComponent(1, 100), LinkComponent(100, 1),
		HostComponent(3), HostComponent(31),
	}
	for _, n := range []int{1, 2, 5, 8} {
		for _, c := range comps {
			s := componentShard(c, n)
			if s < 0 || s >= n {
				t.Fatalf("componentShard(%v, %d) = %d out of range", c, n, s)
			}
			if s2 := componentShard(c, n); s2 != s {
				t.Fatalf("componentShard(%v, %d) unstable: %d then %d", c, n, s, s2)
			}
		}
	}
}
