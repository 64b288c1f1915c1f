package session_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/topology"
)

// storeConfig is baseConfig on a tighter grid: 2s windows over the 15s
// trace give enough windows that some release (and checkpoint) mid-push,
// which the crash-resume and dead-session tests depend on.
func storeConfig(topo *topology.Topology) session.Config {
	cfg := baseConfig(topo)
	cfg.Window = 2 * time.Second
	cfg.Lateness = time.Second
	return cfg
}

// runSession opens a session from cfg, pushes records in batches and
// closes it, returning every released report in window order.
func runSession(t *testing.T, cfg session.Config, records []flow.Record, batch int) []*llmprism.Report {
	t.Helper()
	s, err := session.Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	var out []*llmprism.Report
	for lo := 0; lo < len(records); lo += batch {
		hi := min(lo+batch, len(records))
		reports, err := s.PushFrame(flow.NewFrame(records[lo:hi]))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, reports...)
	}
	reports, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, reports...)
}

// replayText replays a recorded trace path and renders its reports with
// PrintReports — the bit-identity currency every equivalence check uses.
func replayText(t *testing.T, cfg session.Config, path string, salvage bool) string {
	t.Helper()
	rep, err := session.OpenReplay(context.Background(), cfg, path, salvage)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := rep.Run(func(reports []*llmprism.Report) {
		session.PrintReports(&text, reports)
	}); err != nil {
		t.Fatal(err)
	}
	return text.String()
}

// TestSessionStoreMatchesSingleFileArchive is the store's session-level
// equivalence gate: the same trace captured into a rotating multi-segment
// store and into a single-file archive must deliver identical live
// reports, and replaying either capture must reproduce them bit for bit.
func TestSessionStoreMatchesSingleFileArchive(t *testing.T) {
	records, topo := managerTrace(t)
	dir := t.TempDir()

	fileCfg := baseConfig(topo)
	fileCfg.ArchivePath = filepath.Join(dir, "trace.llpa")
	fileReports := runSession(t, fileCfg, records, 400)
	if len(fileReports) < 2 {
		t.Fatalf("reference run released %d windows, want ≥ 2", len(fileReports))
	}

	storeCfg := baseConfig(topo)
	storeCfg.StoreDir = filepath.Join(dir, "trace.llps")
	storeCfg.Rotate = archive.StorePolicy{RotateWindows: 1}
	storeReports := runSession(t, storeCfg, records, 400)

	if !reflect.DeepEqual(storeReports, fileReports) {
		t.Fatalf("store-backed session reports differ from single-file session (%d vs %d windows)",
			len(storeReports), len(fileReports))
	}

	var want strings.Builder
	session.PrintReports(&want, fileReports)
	if got := replayText(t, baseConfig(topo), fileCfg.ArchivePath, false); got != want.String() {
		t.Error("single-file replay differs from live reports")
	}
	if got := replayText(t, baseConfig(topo), storeCfg.StoreDir, false); got != want.String() {
		t.Error("store replay differs from live reports")
	}

	// The rotation policy actually rotated: one segment per window.
	rep, err := session.OpenReplay(context.Background(), baseConfig(topo), storeCfg.StoreDir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Abort()
	if rep.NumSegments() != len(fileReports) {
		t.Errorf("store segments = %d, want one per window (%d)", rep.NumSegments(), len(fileReports))
	}
	if rep.NumWindows() != len(fileReports) {
		t.Errorf("store windows = %d, want %d", rep.NumWindows(), len(fileReports))
	}

	// One capture path: a store that never rotates writes its sole segment
	// through the same file writer, so it is the single-file archive.
	oneCfg := baseConfig(topo)
	oneCfg.StoreDir = filepath.Join(dir, "one.llps")
	runSession(t, oneCfg, records, 400)
	single, err := os.ReadFile(fileCfg.ArchivePath)
	if err != nil {
		t.Fatal(err)
	}
	sole, err := os.ReadFile(filepath.Join(oneCfg.StoreDir, "seg-00000001.llpa"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sole, single) {
		t.Errorf("zero-policy store's sole segment (%d bytes) differs from the single-file capture (%d bytes)", len(sole), len(single))
	}
	if _, err := os.Stat(fileCfg.ArchivePath + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("finalized single-file capture left its temporary behind (err=%v)", err)
	}

	// A finalized, manifested segment that lost its tail: strict replay
	// refuses the store, salvage replay still reproduces every window.
	seg := filepath.Join(storeCfg.StoreDir, "seg-00000001.llpa")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-40); err != nil {
		t.Fatal(err)
	}
	if _, err := session.OpenReplay(context.Background(), baseConfig(topo), storeCfg.StoreDir, false); err == nil {
		t.Error("strict replay opened a store with a truncated segment")
	}
	if got := replayText(t, baseConfig(topo), storeCfg.StoreDir, true); got != want.String() {
		t.Error("salvage replay of a store with a truncated segment differs from live reports")
	}
}

// TestSessionStoreResumeMatchesUninterrupted kills a store-backed capture
// at several points mid-ingest (checkpoint written, open segment left as a
// torn .tmp) and resumes it from the checkpoint. The resumed session must
// re-emit from the checkpoint boundary, and the final store must replay
// bit-identically to one captured without any interruption.
func TestSessionStoreResumeMatchesUninterrupted(t *testing.T) {
	records, topo := managerTrace(t)
	dir := t.TempDir()

	refCfg := storeConfig(topo)
	refCfg.StoreDir = filepath.Join(dir, "ref.llps")
	refCfg.Rotate = archive.StorePolicy{RotateWindows: 2}
	refCfg.CheckpointPath = filepath.Join(dir, "ref.llpk")
	refReports := runSession(t, refCfg, records, 200)
	if len(refReports) < 4 {
		t.Fatalf("reference run released %d windows, want ≥ 4", len(refReports))
	}
	var want strings.Builder
	session.PrintReports(&want, refReports)

	// Crash as soon as the session has released (and so checkpointed and
	// archived) at least wantCrashed windows — different crash points land
	// on different rotation phases of the 2-window segments.
	for _, wantCrashed := range []int{1, 3} {
		t.Run(fmt.Sprintf("crashAfter%dWindows", wantCrashed), func(t *testing.T) {
			sub := t.TempDir()
			cfg := storeConfig(topo)
			cfg.StoreDir = filepath.Join(sub, "trace.llps")
			cfg.Rotate = archive.StorePolicy{RotateWindows: 2}
			cfg.CheckpointPath = filepath.Join(sub, "trace.llpk")

			s, err := session.Open(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var crashed []*llmprism.Report
			for lo := 0; lo < len(records) && len(crashed) < wantCrashed; lo += 200 {
				hi := min(lo+200, len(records))
				reports, err := s.PushFrame(flow.NewFrame(records[lo:hi]))
				if err != nil {
					t.Fatal(err)
				}
				crashed = append(crashed, reports...)
			}
			if len(crashed) < wantCrashed {
				t.Fatalf("whole trace released only %d windows mid-push, want ≥ %d to crash after", len(crashed), wantCrashed)
			}
			s.Abort() // the kill: no finalize, open segment stays a .tmp

			// A strict open must refuse the crashed store.
			if _, err := session.OpenReplay(context.Background(), baseConfig(topo), cfg.StoreDir, false); err == nil {
				t.Fatal("strict replay opened a crashed store")
			}

			// Resume from the checkpoint and re-push the whole trace:
			// records before the resume point are dropped late harmlessly.
			rcfg := cfg
			rcfg.Resume = true
			rs, err := session.Open(context.Background(), rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Abort()
			if rec := rs.StoreRecovery(); rec == nil {
				t.Error("resumed session reports no store reconciliation")
			}
			var resumed []*llmprism.Report
			for lo := 0; lo < len(records); lo += 200 {
				hi := min(lo+200, len(records))
				reports, err := rs.PushFrame(flow.NewFrame(records[lo:hi]))
				if err != nil {
					t.Fatal(err)
				}
				resumed = append(resumed, reports...)
			}
			tail, err := rs.Close()
			if err != nil {
				t.Fatal(err)
			}
			resumed = append(resumed, tail...)

			// The pre-crash reports plus the resumed session's re-emission
			// must re-assemble the uninterrupted sequence exactly. The
			// resumed run may re-emit windows the crashed run had already
			// released (those at or past the checkpoint's resume seq).
			if len(resumed) == 0 {
				t.Fatal("resumed session released no windows")
			}
			firstSeq := resumed[0].Window.Seq
			var joined []*llmprism.Report
			for _, r := range crashed {
				if r.Window.Seq < firstSeq {
					joined = append(joined, r)
				}
			}
			joined = append(joined, resumed...)
			if !reflect.DeepEqual(joined, refReports) {
				t.Errorf("crashed+resumed reports differ from uninterrupted run (%d vs %d windows)",
					len(joined), len(refReports))
			}

			// And the store on disk replays bit-identically to the
			// uninterrupted capture.
			if got := replayText(t, baseConfig(topo), cfg.StoreDir, false); got != want.String() {
				t.Error("replay of resumed store differs from uninterrupted run")
			}
		})
	}
}

// TestSessionResumeValidation pins the Resume precondition errors.
func TestSessionResumeValidation(t *testing.T) {
	_, topo := managerTrace(t)
	dir := t.TempDir()
	cfg := baseConfig(topo)
	cfg.Resume = true
	if _, err := session.Open(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "CheckpointPath") {
		t.Errorf("Resume without checkpoint: err = %v, want CheckpointPath error", err)
	}
	cfg.CheckpointPath = filepath.Join(dir, "x.llpk")
	cfg.ArchivePath = filepath.Join(dir, "x.llpa")
	if _, err := session.Open(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "single-file") {
		t.Errorf("Resume with ArchivePath: err = %v, want single-file refusal", err)
	}
	// First boot under resume: no checkpoint yet means a fresh start, not
	// an error — the daemon passes Resume unconditionally at boot.
	cfg.ArchivePath = ""
	cfg.StoreDir = filepath.Join(dir, "x.llps")
	s, err := session.Open(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Resume with no checkpoint yet (first boot): %v", err)
	}
	if s.StoreRecovery() != nil {
		t.Error("first boot under resume reported a store recovery")
	}
	s.Abort()

	both := baseConfig(topo)
	both.ArchivePath = filepath.Join(dir, "y.llpa")
	both.StoreDir = filepath.Join(dir, "y.llps")
	if _, err := session.Open(context.Background(), both); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("ArchivePath+StoreDir: err = %v, want mutual-exclusion error", err)
	}
}

// TestManagerCloseMixedHealthyAndDeadSessions drives a manager holding
// both healthy sessions (one archive-backed, one store-backed) and a
// session killed mid-stream by a push error (its checkpoint directory
// does not exist, so the first released window fails to persist). Close
// must finalize the healthy captures, report the dead cluster's error,
// and leave the dead session's capture temporary on disk — salvageable.
func TestManagerCloseMixedHealthyAndDeadSessions(t *testing.T) {
	records, topo := managerTrace(t)
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
				// Checkpoint saves into a directory that does not exist:
				// the first released window's save fails, after the window
				// was already appended to the archive temporary.
				c.CheckpointPath = filepath.Join(dir, "no-such-dir", "dead.llpk")
			}
			return c, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, cluster := range []string{"healthy", "healthystore", "dead"} {
		cs, err := mgr.Session(ctx, cluster)
		if err != nil {
			t.Fatal(err)
		}
		var pushErr error
		for lo := 0; lo < len(records); lo += 400 {
			hi := min(lo+400, len(records))
			if pushErr = cs.PushFrame(flow.NewFrame(records[lo:hi])); pushErr != nil {
				break
			}
		}
		if cluster == "dead" {
			if pushErr == nil {
				t.Fatal("dead cluster's pushes all succeeded; checkpoint failure did not surface")
			}
			// The session is dead: every later push returns the same error.
			if err := cs.PushFrame(flow.NewFrame(records[:1])); err == nil {
				t.Fatal("dead session accepted another push")
			}
		} else if pushErr != nil {
			t.Fatalf("cluster %s: %v", cluster, pushErr)
		}
	}

	err = mgr.Close()
	if err == nil || !strings.Contains(err.Error(), `cluster "dead"`) {
		t.Fatalf("Close: err = %v, want dead cluster's error", err)
	}

	// Healthy captures finalized and replayable.
	for _, path := range []string{filepath.Join(dir, "healthy.llpa"), filepath.Join(dir, "healthystore.llps")} {
		if got := replayText(t, baseConfig(topo), path, false); got == "" {
			t.Errorf("replay of %s produced no reports", filepath.Base(path))
		}
	}

	// The dead session's archive was never finalized; its temporary holds
	// the windows that were archived before the checkpoint failure, and a
	// salvage open recovers them.
	if _, err := os.Stat(filepath.Join(dir, "dead.llpa")); !os.IsNotExist(err) {
		t.Fatalf("dead cluster's archive was finalized (err=%v)", err)
	}
	tmp := filepath.Join(dir, "dead.llpa.tmp")
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("dead cluster's archive temporary missing: %v", err)
	}
	rep, err := session.OpenReplay(ctx, baseConfig(topo), tmp, true)
	if err != nil {
		t.Fatalf("salvage replay of dead temporary: %v", err)
	}
	if rep.Recovery == nil {
		t.Error("salvage open of torn temporary reports no recovery")
	}
	if rep.NumWindows() < 1 {
		t.Errorf("salvaged %d windows from dead temporary, want ≥ 1", rep.NumWindows())
	}
	var text strings.Builder
	if err := rep.Run(func(reports []*llmprism.Report) {
		session.PrintReports(&text, reports)
	}); err != nil {
		t.Fatal(err)
	}
	if text.Len() == 0 {
		t.Error("salvaged replay produced no reports")
	}
}
