package session_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/testbed"
)

// managerTrace simulates a multi-job window once per test binary.
var (
	traceOnce    sync.Once
	traceRecords []flow.Record
	traceTopo    *topology.Topology
	traceErr     error
)

func managerTrace(t testing.TB) ([]flow.Record, *topology.Topology) {
	t.Helper()
	traceOnce.Do(func() {
		spec := llmprism.TopologySpec{Nodes: 24, NodesPerLeaf: 8, Spines: 4}
		jobs, err := testbed.PlanJobs(spec, []testbed.JobPlan{
			{Nodes: 8, TargetStep: 2 * time.Second},
			{Nodes: 8, TargetStep: 3 * time.Second},
		}, 41)
		if err != nil {
			traceErr = err
			return
		}
		res, err := testbed.Simulate(testbed.Scenario{
			Name: "manager", Topo: spec, Jobs: jobs, Horizon: 15 * time.Second,
		})
		if err != nil {
			traceErr = err
			return
		}
		records := make([]flow.Record, len(res.Records))
		copy(records, res.Records)
		flow.SortByStart(records)
		traceRecords, traceTopo = records, res.Topo
	})
	if traceErr != nil {
		t.Fatal(traceErr)
	}
	return traceRecords, traceTopo
}

// permuteWithinLateness shuffles records within consecutive time chunks of
// the given span, keeping the first record pinned so the event-time grid
// anchors identically — the same admissible disorder the monitor's
// permutation-invariance tests use.
func permuteWithinLateness(records []flow.Record, span time.Duration, seed int64) []flow.Record {
	out := make([]flow.Record, len(records))
	copy(out, records)
	if len(out) < 3 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	lo := 1
	for lo < len(out) {
		cut := out[lo].Start.Add(span)
		hi := lo
		for hi < len(out) && out[hi].Start.Before(cut) {
			hi++
		}
		rng.Shuffle(hi-lo, func(i, j int) {
			out[lo+i], out[lo+j] = out[lo+j], out[lo+i]
		})
		lo = hi
	}
	return out
}

func baseConfig(topo *topology.Topology) session.Config {
	return session.Config{
		Topo:     topo,
		Workers:  2,
		Localize: true,
		Suppress: true,
		Window:   5 * time.Second,
		Lateness: 2 * time.Second,
		Depth:    2,
	}
}

// directStreamReports runs the reference path the manager must match: a
// bare Monitor.Stream assembled by hand, no session or manager layer.
func directStreamReports(t testing.TB, cfg session.Config, records []flow.Record, batch int) []*llmprism.Report {
	t.Helper()
	opts := []llmprism.MonitorOption{
		llmprism.WithLateness(cfg.Lateness),
		llmprism.WithPipelineDepth(cfg.Depth),
	}
	if cfg.Suppress {
		opts = append(opts, llmprism.WithChronicSuppression())
	}
	mon, err := llmprism.NewMonitor(cfg.Analyzer(), cfg.Topo, cfg.Window, opts...)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := mon.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out []*llmprism.Report
	for lo := 0; lo < len(records); lo += batch {
		hi := min(lo+batch, len(records))
		reports, err := stream.Push(records[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, reports...)
	}
	reports, err := stream.Close()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, reports...)
}

// TestManagerConcurrentSessionsMatchDirectStream is the manager's
// determinism gate: N cluster sessions fed concurrently, each with its own
// permutation-within-lateness of the same trace, must all produce reports
// DeepEqual to a direct Monitor.Stream run — the manager adds multi-tenancy,
// never drift. Run under -race this also exercises the per-cluster
// serialization and concurrent OnReports delivery. Each session records an
// archive; after Close every archive must be finalized (no .tmp left) and
// replay bit-identically.
func TestManagerConcurrentSessionsMatchDirectStream(t *testing.T) {
	records, topo := managerTrace(t)
	cfg := baseConfig(topo)
	want := directStreamReports(t, cfg, records, 400)
	if len(want) == 0 {
		t.Fatal("reference run released no windows")
	}

	const n = 3
	dir := t.TempDir()
	got := make([][]*llmprism.Report, n)
	mgr, err := session.NewManager(session.ManagerConfig{
		Config: func(cluster string) (session.Config, error) {
			c := cfg
			c.ArchivePath = filepath.Join(dir, cluster+".llpa")
			c.CheckpointPath = filepath.Join(dir, cluster+".llpk")
			return c, nil
		},
		MaxSessions: n,
		OnReports: func(cluster string, reports []*llmprism.Report) {
			var i int
			fmt.Sscanf(cluster, "c%d", &i)
			got[i] = append(got[i], reports...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			perm := permuteWithinLateness(records, cfg.Lateness/2, int64(100+13*i))
			cs, err := mgr.Session(context.Background(), fmt.Sprintf("c%d", i))
			if err != nil {
				errs[i] = err
				return
			}
			for lo := 0; lo < len(perm); lo += 400 {
				hi := min(lo+400, len(perm))
				if err := cs.PushFrame(flow.NewFrame(perm[lo:hi])); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cluster %d: %v", i, err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("cluster %d: managed reports differ from direct Monitor.Stream (%d vs %d windows)",
				i, len(got[i]), len(want))
		}
	}

	// Every archive finalized, no temporaries, and a replay of each
	// reproduces the delivered reports line for line.
	var wantText strings.Builder
	session.PrintReports(&wantText, want)
	for i := 0; i < n; i++ {
		archivePath := filepath.Join(dir, fmt.Sprintf("c%d.llpa", i))
		if _, err := os.Stat(archivePath); err != nil {
			t.Fatalf("cluster %d archive not finalized: %v", i, err)
		}
		if _, err := os.Stat(archivePath + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("cluster %d archive temporary still present (err=%v)", i, err)
		}
		rep, err := session.OpenReplay(context.Background(), baseConfig(topo), archivePath, false)
		if err != nil {
			t.Fatal(err)
		}
		var gotText strings.Builder
		if err := rep.Run(func(reports []*llmprism.Report) {
			session.PrintReports(&gotText, reports)
		}); err != nil {
			t.Fatal(err)
		}
		if gotText.String() != wantText.String() {
			t.Errorf("cluster %d: replay of managed archive differs from direct stream text", i)
		}
	}
}

// TestNilFramePushIsEmpty: a nil frame is an empty push at every layer. On
// a live Session and a live ClusterSession, a nil push after every batch
// neither fails nor changes a report.
func TestNilFramePushIsEmpty(t *testing.T) {
	records, topo := managerTrace(t)
	cfg := baseConfig(topo)
	want := directStreamReports(t, cfg, records, 400)

	s, err := session.Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	var got []*llmprism.Report
	for lo := 0; lo < len(records); lo += 400 {
		for _, f := range []*flow.Frame{flow.NewFrame(records[lo:min(lo+400, len(records))]), nil} {
			reports, err := s.PushFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, reports...)
		}
	}
	tail, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, tail...); !reflect.DeepEqual(got, want) {
		t.Errorf("Session: nil pushes changed the reports (%d vs %d windows)", len(got), len(want))
	}

	var managed []*llmprism.Report
	mgr, err := session.NewManager(session.ManagerConfig{
		Config:    func(string) (session.Config, error) { return cfg, nil },
		OnReports: func(_ string, reports []*llmprism.Report) { managed = append(managed, reports...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := mgr.Session(context.Background(), "c")
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(records); lo += 400 {
		if err := cs.PushFrame(flow.NewFrame(records[lo:min(lo+400, len(records))])); err != nil {
			t.Fatal(err)
		}
		if err := cs.PushFrame(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(managed, want) {
		t.Errorf("ClusterSession: nil pushes changed the reports (%d vs %d windows)", len(managed), len(want))
	}
}

func TestManagerRejectsPathCollisions(t *testing.T) {
	_, topo := managerTrace(t)
	dir := t.TempDir()
	shared := filepath.Join(dir, "shared.llpa")
	mgr, err := session.NewManager(session.ManagerConfig{
		Config: func(cluster string) (session.Config, error) {
			c := baseConfig(topo)
			switch cluster {
			case "alpha", "beta":
				c.ArchivePath = shared // both claim the same archive
			case "gamma":
				c.ArchivePath = filepath.Join(dir, "gamma.llpa")
				c.CheckpointPath = shared // crosses roles with alpha's archive
			case "delta":
				c.ArchivePath = filepath.Join(dir, "delta.llpa")
				c.CheckpointPath = filepath.Join(dir, "sub", "..", "delta.llpa") // same file, uncleaned spelling
			}
			return c, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	ctx := context.Background()
	if _, err := mgr.Session(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Session(ctx, "beta"); err == nil || !strings.Contains(err.Error(), "already in use") {
		t.Fatalf("beta sharing alpha's archive: err = %v, want path-collision error", err)
	}
	if _, err := mgr.Session(ctx, "gamma"); err == nil || !strings.Contains(err.Error(), `cluster "alpha" archive`) {
		t.Fatalf("gamma checkpoint over alpha archive: err = %v, want cross-role collision naming alpha", err)
	}
	if _, err := mgr.Session(ctx, "delta"); err == nil || !strings.Contains(err.Error(), "already in use") {
		t.Fatalf("delta archive/checkpoint self-collision: err = %v, want path-collision error", err)
	}
	// A rejected cluster holds no claims: its non-colliding path must be
	// free for a later cluster.
	mgrClusters := mgr.Clusters()
	if len(mgrClusters) != 1 || mgrClusters[0] != "alpha" {
		t.Fatalf("clusters after rejections = %v, want [alpha]", mgrClusters)
	}
}

func TestManagerBoundsSessionsAndValidatesIDs(t *testing.T) {
	_, topo := managerTrace(t)
	mgr, err := session.NewManager(session.ManagerConfig{
		Config:      func(string) (session.Config, error) { return baseConfig(topo), nil },
		MaxSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := mgr.Session(ctx, "bad/cluster"); err == nil {
		t.Fatal("invalid cluster id accepted")
	}
	if _, err := mgr.Session(ctx, "one"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Session(ctx, "two"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Session(ctx, "three"); err == nil || !strings.Contains(err.Error(), "limit 2") {
		t.Fatalf("over-limit session: err = %v, want limit error", err)
	}
	// Existing sessions stay reachable at the bound.
	if _, err := mgr.Session(ctx, "one"); err != nil {
		t.Fatalf("existing session at bound: %v", err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Session(ctx, "one"); err == nil {
		t.Fatal("closed manager still creates sessions")
	}
	if _, ok := mgr.Lookup("one"); !ok {
		t.Fatal("Lookup lost sessions after Close")
	}
	if err := mgr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
