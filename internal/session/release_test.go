package session_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/checkpoint"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/session"
)

// releaseDeadline bounds every wait on the release goroutine: generous
// for -race on a loaded two-core runner, and only ever spent on a failure.
const releaseDeadline = time.Minute

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(releaseDeadline); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// pushAll feeds records to the session in 400-record batches, stopping at
// the first push error.
func pushAll(cs *session.ClusterSession, records []flow.Record) error {
	for lo := 0; lo < len(records); lo += 400 {
		if err := cs.PushFrame(flow.NewFrame(records[lo:min(lo+400, len(records))])); err != nil {
			return err
		}
	}
	return nil
}

// releaseGoroutines counts live ClusterSession release goroutines — the
// only goroutines Manager.Session starts — started or still runnable.
func releaseGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "created by github.com/llmprism/llmprism/internal/session.(*Manager).Session ")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestManagerReleaseQuietCollector: a window must leave its session when
// its analysis finishes, not when the cluster's next frame arrives. The
// collector pushes up to and including the batch that closes window 0 and
// then goes quiet; OnReports, the window counter, the checkpoint and the
// store's open segment must all carry window 0 while the session is still
// open and idle. (Before the release goroutine this hung until Close.)
func TestManagerReleaseQuietCollector(t *testing.T) {
	records, topo := managerTrace(t)
	dir := t.TempDir()
	cfg := baseConfig(topo)
	cfg.StoreDir = filepath.Join(dir, "quiet.llps")
	cfg.CheckpointPath = filepath.Join(dir, "quiet.llpk")

	delivered := make(chan []*llmprism.Report, 8)
	mgr, err := session.NewManager(session.ManagerConfig{
		Config:    func(string) (session.Config, error) { return cfg, nil },
		OnReports: func(_ string, reports []*llmprism.Report) { delivered <- reports },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	cs, err := mgr.Session(context.Background(), "quiet")
	if err != nil {
		t.Fatal(err)
	}

	// Window 0 is [t0, t0+Window) and closes at the first record at or
	// past its end plus the lateness; window 1 must stay open.
	closeAt := records[0].Start.Add(cfg.Window + cfg.Lateness)
	cut := 0
	for records[cut].Start.Before(closeAt) {
		cut++
	}
	if !records[cut].Start.Before(closeAt.Add(cfg.Window)) {
		t.Fatal("trace too sparse: the record closing window 0 also closes window 1")
	}
	if err := pushAll(cs, records[:cut+1]); err != nil {
		t.Fatal(err)
	}

	var got []*llmprism.Report
	select {
	case got = <-delivered:
	case <-time.After(releaseDeadline):
		t.Fatal("window 0 was analysed but never released: the quiet collector's next push is what releases it")
	}
	if len(got) != 1 || got[0].Window.Seq != 0 {
		t.Fatalf("released %d reports starting at seq %d, want exactly window 0", len(got), got[0].Window.Seq)
	}
	if windows, _ := cs.Stats(); windows != 1 {
		t.Errorf("Stats counts %d windows, want 1", windows)
	}

	// Archive append, then checkpoint, then OnReports: both are on disk by
	// the time the report was delivered.
	f, err := os.Open(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("checkpoint not written with the release: %v", err)
	}
	ck, err := checkpoint.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Engine.Seq != 1 {
		t.Errorf("checkpoint resumes at seq %d, want 1", ck.Engine.Seq)
	}
	if tmps, _ := filepath.Glob(filepath.Join(cfg.StoreDir, "*.tmp")); len(tmps) != 1 {
		t.Fatalf("open-segment temporaries = %v, want one", tmps)
	}
	rep, err := session.OpenReplay(context.Background(), baseConfig(topo), cfg.StoreDir, true)
	if err != nil {
		t.Fatalf("recovering open of the live store: %v", err)
	}
	if rep.Recovery == nil || rep.NumWindows() != 1 {
		t.Fatalf("salvaged %d windows (recovery %v), want window 0 from the open segment", rep.NumWindows(), rep.Recovery)
	}
	var want, replayed strings.Builder
	session.PrintReports(&want, got)
	if err := rep.Run(func(reports []*llmprism.Report) {
		session.PrintReports(&replayed, reports)
	}); err != nil {
		t.Fatal(err)
	}
	if replayed.String() != want.String() {
		t.Errorf("replay of the salvaged window differs from the released report:\n got %q\nwant %q", replayed.String(), want.String())
	}
	select {
	case extra := <-delivered:
		t.Errorf("a second batch (%d reports from seq %d) was released with window 1 still open", len(extra), extra[0].Window.Seq)
	default:
	}
}

// TestManagerReleaseGoroutinesBounded: one release goroutine per live
// session, none afterwards. A session that dies — here of a checkpoint
// error, the TestManagerCloseMixedHealthyAndDeadSessions setup — stops its
// goroutine at once, not at Close; Manager.Close joins the rest, whether
// the session was fed to the end or never pushed to; and managers opened
// and closed in a loop leave the process's goroutine count where it began.
func TestManagerReleaseGoroutinesBounded(t *testing.T) {
	records, topo := managerTrace(t)
	ctx := context.Background()
	// Earlier tests' analysis goroutines may still be unwinding.
	var baseline int
	waitFor(t, "a quiet baseline", func() bool {
		baseline = runtime.NumGoroutine()
		return releaseGoroutines() == 0
	})

	for round := 0; round < 4; round++ {
		dir := t.TempDir()
		mgr, err := session.NewManager(session.ManagerConfig{
			Config: func(cluster string) (session.Config, error) {
				c := storeConfig(topo)
				switch cluster {
				case "healthy":
					c.ArchivePath = filepath.Join(dir, "healthy.llpa")
				case "healthystore":
					c.StoreDir = filepath.Join(dir, "healthystore.llps")
					c.Rotate = archive.StorePolicy{RotateWindows: 2}
				case "dead":
					c.ArchivePath = filepath.Join(dir, "dead.llpa")
					c.CheckpointPath = filepath.Join(dir, "no-such-dir", "dead.llpk")
				}
				return c, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		clusters := []string{"healthy", "healthystore", "dead", "idle"}
		sessions := make(map[string]*session.ClusterSession)
		for _, cluster := range clusters {
			if sessions[cluster], err = mgr.Session(ctx, cluster); err != nil {
				t.Fatal(err)
			}
		}
		if n := releaseGoroutines(); n != len(clusters) {
			t.Fatalf("round %d: %d release goroutines for %d open sessions", round, n, len(clusters))
		}

		// The dead session's error surfaces on a push or on its release
		// goroutine's collect, whichever reaches the failing checkpoint
		// save first; either way its goroutine must be gone before Close.
		_ = pushAll(sessions["dead"], records) // the error is the point; asserted below
		waitFor(t, "the dead session's release goroutine to exit", func() bool {
			return releaseGoroutines() == len(clusters)-1
		})
		if err := sessions["dead"].PushFrame(flow.NewFrame(records[:1])); err == nil {
			t.Fatal("dead session accepted another push")
		}
		for _, cluster := range []string{"healthy", "healthystore"} {
			if err := pushAll(sessions[cluster], records); err != nil {
				t.Fatalf("cluster %s: %v", cluster, err)
			}
		}

		if err := mgr.Close(); err == nil || !strings.Contains(err.Error(), `cluster "dead"`) {
			t.Fatalf("round %d: Close: err = %v, want the dead cluster's error", round, err)
		}
		// Close has joined them: each has run its last statement, though
		// the runtime may take a moment more to retire the goroutine.
		waitFor(t, "every release goroutine to be gone after Close", func() bool {
			return releaseGoroutines() == 0
		})
	}

	// The dead sessions' last analyses are abandoned, not awaited; give
	// them the moment they need to return.
	waitFor(t, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestManagerReleasePathsMatchDirectStream is the determinism gate for the
// third release trigger. Pushers yield or pause for seeded microseconds
// between small batches, at pipeline depth 1 and 3, so some windows leave
// on the release goroutine, others at the tail of a push, the last at
// Close; whichever path takes a window, each cluster's concatenated
// OnReports text must equal the direct single-goroutine stream's byte for
// byte, with window seqs strictly increasing and each delivered once.
func TestManagerReleasePathsMatchDirectStream(t *testing.T) {
	records, topo := managerTrace(t)
	// Windows by the trigger that released them. A window the release
	// goroutine delivers while the pusher waits for the lock counts as the
	// push's, so byRelease is a floor.
	var byPush, byRelease, byClose atomic.Int64
	for _, depth := range []int{1, 3} {
		cfg := storeConfig(topo)
		cfg.Depth = depth
		var want strings.Builder
		wantReports := directStreamReports(t, cfg, records, 400)
		session.PrintReports(&want, wantReports)

		const n = 3
		var (
			text    [n]strings.Builder
			seqs    [n][]int
			inPush  [n]atomic.Bool
			closing atomic.Bool
		)
		mgr, err := session.NewManager(session.ManagerConfig{
			Config: func(string) (session.Config, error) { return cfg, nil },
			OnReports: func(cluster string, reports []*llmprism.Report) {
				var i int
				fmt.Sscanf(cluster, "c%d", &i)
				if len(reports) == 0 {
					t.Errorf("cluster %d: empty OnReports batch", i)
				}
				switch {
				case closing.Load():
					byClose.Add(int64(len(reports)))
				case inPush[i].Load():
					byPush.Add(int64(len(reports)))
				default:
					byRelease.Add(int64(len(reports)))
				}
				for _, r := range reports {
					seqs[i] = append(seqs[i], r.Window.Seq)
				}
				session.PrintReports(&text[i], reports)
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
				rng := rand.New(rand.NewSource(int64(1000*depth + i)))
				perm := permuteWithinLateness(records, cfg.Lateness/2, int64(100+13*i))
				cs, err := mgr.Session(context.Background(), fmt.Sprintf("c%d", i))
				if err != nil {
					errs[i] = err
					return
				}
				for lo := 0; lo < len(perm); lo += 150 {
					batch := perm[lo:min(lo+150, len(perm))]
					inPush[i].Store(true)
					err := cs.PushFrame(flow.NewFrame(batch))
					inPush[i].Store(false)
					if err != nil {
						errs[i] = err
						return
					}
					if rng.Intn(2) == 0 {
						runtime.Gosched()
					} else {
						time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
					}
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("depth %d cluster %d: %v", depth, i, err)
			}
		}
		closing.Store(true)
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if len(seqs[i]) != len(wantReports) {
				t.Errorf("depth %d cluster %d: %d windows delivered, want %d", depth, i, len(seqs[i]), len(wantReports))
			}
			for j, seq := range seqs[i] {
				if seq != j {
					t.Errorf("depth %d cluster %d: delivery %d is window %d (seqs %v)", depth, i, j, seq, seqs[i])
					break
				}
			}
			if text[i].String() != want.String() {
				t.Errorf("depth %d cluster %d: OnReports text differs from the direct stream's", depth, i)
			}
		}
	}
	t.Logf("windows released: %d by a push, ≥ %d by the release goroutine, %d at Close",
		byPush.Load(), byRelease.Load(), byClose.Load())
	if byRelease.Load() == 0 {
		t.Error("no window left on the release goroutine: the third trigger was not exercised")
	}
}
