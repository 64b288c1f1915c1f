package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/testbed"
)

// daemonTrace simulates one cluster's flow trace, sorted by start. Each
// seed yields a distinct workload on the same fabric shape.
func daemonTrace(t testing.TB, seed int64) ([]flow.Record, *topology.Topology) {
	t.Helper()
	spec := llmprism.TopologySpec{Nodes: 24, NodesPerLeaf: 8, Spines: 4}
	jobs, err := testbed.PlanJobs(spec, []testbed.JobPlan{
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 4, TargetStep: 3 * time.Second},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testbed.Simulate(testbed.Scenario{
		Name: "daemon", Topo: spec, Jobs: jobs, Horizon: 12 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	records := make([]flow.Record, len(res.Records))
	copy(records, res.Records)
	flow.SortByStart(records)
	return records, res.Topo
}

// chunkFrames slices a sorted trace into collector-sized frames in
// event-time order — the shape a real collector ships, not aligned to the
// daemon's analysis windows.
func chunkFrames(records []flow.Record, per int) []*flow.Frame {
	var frames []*flow.Frame
	for lo := 0; lo < len(records); lo += per {
		hi := min(lo+per, len(records))
		frames = append(frames, flow.NewFrame(records[lo:hi]))
	}
	return frames
}

// offlineText replays the exact frames through a bare session — the
// offline reference every daemon-ingested report stream must match bit for
// bit.
func offlineText(t testing.TB, cfg session.Config, frames []*flow.Frame) string {
	t.Helper()
	s, err := session.Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	var b strings.Builder
	for _, f := range frames {
		reports, err := s.PushFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		session.PrintReports(&b, reports)
	}
	reports, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	session.PrintReports(&b, reports)
	return b.String()
}

// startTestDaemon binds a daemon on loopback listeners and returns it with
// its ingest address and query base URL.
func startTestDaemon(t testing.TB, topo *topology.Topology, dir string) (*daemon, string, string) {
	t.Helper()
	ingestLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	queryLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemonConfig{
		base: session.Config{
			Topo:     topo,
			Workers:  2,
			Localize: true,
			Suppress: true,
			Window:   5 * time.Second,
			Lateness: 2 * time.Second,
			Depth:    2,
		},
		dir:         dir,
		rotate:      archive.StorePolicy{RotateWindows: 2},
		maxSessions: 8,
		pending:     2,
		logf:        t.Logf,
	}
	d, err := newDaemon(context.Background(), cfg, ingestLn, queryLn)
	if err != nil {
		t.Fatal(err)
	}
	d.Serve()
	return d, ingestLn.Addr().String(), "http://" + queryLn.Addr().String()
}

// streamFrames plays one collector connection: hello, frames, end-of-stream,
// then blocks until the daemon closes the connection — its confirmation
// that every frame was pushed.
func streamFrames(addr, cluster string, frames []*flow.Frame) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := session.WriteHello(conn, cluster); err != nil {
		return err
	}
	for _, f := range frames {
		if err := session.WriteFrameMessage(conn, f); err != nil {
			return err
		}
	}
	if err := session.WriteEndOfStream(conn); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, conn)
	return err
}

func httpGet(t testing.TB, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Every query response — success or error — is plain text.
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("GET %s: Content-Type = %q, want %q", url, ct, "text/plain; charset=utf-8")
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDaemonTwoClusterIngestMatchesOfflineReplay is the daemon's
// equivalence gate (and the CI smoke): two clusters stream concurrently
// over the wire — arbitrary cross-cluster interleaving — and each
// cluster's queried report text must be bit-identical to an offline replay
// of its frames. Shutdown must finalize both archives; the finalized
// archives must themselves replay to the same text.
func TestDaemonTwoClusterIngestMatchesOfflineReplay(t *testing.T) {
	recordsA, topo := daemonTrace(t, 7)
	recordsB, _ := daemonTrace(t, 99)
	framesA := chunkFrames(recordsA, 500)
	framesB := chunkFrames(recordsB, 300)

	dir := t.TempDir()
	d, ingestAddr, queryURL := startTestDaemon(t, topo, dir)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, c := range []struct {
		cluster string
		frames  []*flow.Frame
	}{{"east", framesA}, {"west", framesB}} {
		wg.Add(1)
		go func(i int, cluster string, frames []*flow.Frame) {
			defer wg.Done()
			errs[i] = streamFrames(ingestAddr, cluster, frames)
		}(i, c.cluster, c.frames)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("collector %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	want := map[string]string{
		"east": offlineText(t, d.cfg.base, framesA),
		"west": offlineText(t, d.cfg.base, framesB),
	}
	if want["east"] == want["west"] {
		t.Fatal("test traces degenerate: both clusters produce identical reports")
	}
	for cluster, wantText := range want {
		if wantText == "" {
			t.Fatalf("offline reference for %s released no windows", cluster)
		}
		code, body := httpGet(t, queryURL+"/v1/report?cluster="+cluster)
		if code != http.StatusOK {
			t.Fatalf("report %s: status %d", cluster, code)
		}
		if body != wantText {
			t.Errorf("cluster %s: daemon report text differs from offline replay\n got %d bytes\nwant %d bytes",
				cluster, len(body), len(wantText))
		}
		code, latest := httpGet(t, queryURL+"/v1/latest?cluster="+cluster)
		if code != http.StatusOK || latest == "" {
			t.Fatalf("latest %s: status %d, %d bytes", cluster, code, len(latest))
		}
		if !strings.HasSuffix(wantText, latest) {
			t.Errorf("cluster %s: latest window text is not the report's tail", cluster)
		}

		// The daemon's own finalized store replays to the same text. A
		// strict open proves shutdown finalized every segment and the
		// manifest — no temporaries left behind.
		storeDir := filepath.Join(dir, cluster+".llps")
		if _, err := os.Stat(filepath.Join(storeDir, archive.StoreManifestName)); err != nil {
			t.Fatalf("cluster %s store not finalized: %v", cluster, err)
		}
		if tmps, _ := filepath.Glob(filepath.Join(storeDir, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("cluster %s store temporaries left behind: %v", cluster, tmps)
		}
		rep, err := session.OpenReplay(context.Background(), d.cfg.base, storeDir, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.NumSegments() < 2 {
			t.Errorf("cluster %s: store did not rotate: %d segments", cluster, rep.NumSegments())
		}
		var replayed strings.Builder
		if err := rep.Run(func(reports []*llmprism.Report) {
			session.PrintReports(&replayed, reports)
		}); err != nil {
			t.Fatal(err)
		}
		if replayed.String() != wantText {
			t.Errorf("cluster %s: replay of daemon store differs from offline reference", cluster)
		}

		// The segments endpoint serves the store manifest.
		code, segs := httpGet(t, queryURL+"/v1/segments?cluster="+cluster)
		if code != http.StatusOK {
			t.Fatalf("segments %s: status %d", cluster, code)
		}
		if !strings.Contains(segs, "store "+cluster+": ") || !strings.Contains(segs, "segment 1: ") {
			t.Errorf("segments %s: unexpected body:\n%s", cluster, segs)
		}
	}

	code, clusters := httpGet(t, queryURL+"/v1/clusters")
	if code != http.StatusOK {
		t.Fatalf("clusters: status %d", code)
	}
	for _, cluster := range []string{"east", "west"} {
		if !strings.Contains(clusters, "cluster "+cluster+": ") {
			t.Errorf("clusters listing missing %s:\n%s", cluster, clusters)
		}
	}
	if code, _ := httpGet(t, queryURL+"/v1/report?cluster=nosuch"); code != http.StatusNotFound {
		t.Errorf("unknown cluster: status %d, want 404", code)
	}
	if code, _ := httpGet(t, queryURL+"/v1/report"); code != http.StatusBadRequest {
		t.Errorf("missing cluster param: status %d, want 400", code)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonQuietCollectorReleasesWindow: a collector sends the frame that
// closes window 0 and then holds its connection open and idle. The window
// must reach the query plane on its own — /v1/clusters counts it,
// /v1/report and /v1/latest carry its text — rather than wait for the
// cluster's next frame; and once the collector resumes and the daemon shuts
// down, the whole report text still equals the offline replay.
func TestDaemonQuietCollectorReleasesWindow(t *testing.T) {
	records, topo := daemonTrace(t, 7)
	frames := chunkFrames(records, 500)
	d, ingestAddr, queryURL := startTestDaemon(t, topo, t.TempDir())
	want := offlineText(t, d.cfg.base, frames)
	// Window 0's share of the text: everything before the second header.
	wantFirst := want
	if i := strings.Index(want[1:], "\nwindow "); i >= 0 {
		wantFirst = want[:i+2]
	}

	// The frame that closes window 0 — and only window 0.
	closeAt := records[0].Start.Add(d.cfg.base.Window + d.cfg.base.Lateness)
	closing := 0
	for time.Unix(0, frames[closing].MaxStartNanos()).Before(closeAt) {
		closing++
	}
	if !time.Unix(0, frames[closing].MaxStartNanos()).Before(closeAt.Add(d.cfg.base.Window)) {
		t.Fatal("trace too sparse: the frame closing window 0 also closes window 1")
	}

	conn, err := net.Dial("tcp", ingestAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := session.WriteHello(conn, "east"); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[:closing+1] {
		if err := session.WriteFrameMessage(conn, f); err != nil {
			t.Fatal(err)
		}
	}

	// The connection stays open and silent from here on.
	if n := pollClusterWindows(t, queryURL, "east", 1); n != 1 {
		t.Fatalf("%d windows released with window 1 still open, want 1", n)
	}
	for _, endpoint := range []string{"/v1/report", "/v1/latest"} {
		code, body := httpGet(t, queryURL+endpoint+"?cluster=east")
		if code != http.StatusOK || body != wantFirst {
			t.Errorf("%s with the collector idle: status %d, body %q, want window 0's text %q", endpoint, code, body, wantFirst)
		}
	}

	// The collector resumes; nothing the early release did may show in
	// the final text.
	for _, f := range frames[closing+1:] {
		if err := session.WriteFrameMessage(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := session.WriteEndOfStream(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, body := httpGet(t, queryURL+"/v1/report?cluster=east"); code != http.StatusOK || body != want {
		t.Errorf("final report text differs from offline replay (status %d, %d vs %d bytes)", code, len(body), len(want))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonSurvivesGarbageConnections: junk hellos and abruptly dropped
// streams must cost only their own connection — a well-behaved collector
// on the same daemon still ingests and queries normally.
func TestDaemonSurvivesGarbageConnections(t *testing.T) {
	records, topo := daemonTrace(t, 7)
	frames := chunkFrames(records, 500)
	d, ingestAddr, queryURL := startTestDaemon(t, topo, "")

	// Garbage hello.
	conn, err := net.Dial("tcp", ingestAddr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	io.Copy(io.Discard, conn) // daemon closes on the bad magic
	conn.Close()

	// Valid hello, then the stream dies mid-frame without the sentinel.
	conn, err = net.Dial("tcp", ingestAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := session.WriteHello(conn, "flaky"); err != nil {
		t.Fatal(err)
	}
	if err := session.WriteFrameMessage(conn, frames[0]); err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0xFF, 0xFF}) // torn length prefix
	conn.Close()

	if err := streamFrames(ingestAddr, "steady", frames); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	code, body := httpGet(t, queryURL+"/v1/report?cluster=steady")
	if code != http.StatusOK || body == "" {
		t.Fatalf("steady cluster after garbage peers: status %d, %d bytes", code, len(body))
	}
	if body != offlineText(t, d.cfg.base, frames) {
		t.Error("steady cluster's report text drifted from offline replay")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonFlagValidation pins the startup domain checks: a bad flag
// must fail fast with a precise error, before any listener binds or the
// topology loads.
func TestDaemonFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-pending", "0"}, "-pending must be positive (got 0)"},
		{[]string{"-pending", "-3"}, "-pending must be positive (got -3)"},
		{[]string{"-max-sessions", "0"}, "-max-sessions must be positive (got 0)"},
		{[]string{"-max-sessions", "-1"}, "-max-sessions must be positive (got -1)"},
		{[]string{"-drain", "0s"}, "-drain must be positive (got 0s)"},
		{[]string{"-drain", "-5s"}, "-drain must be positive (got -5s)"},
		{[]string{"-rotate-windows", "-1"}, "must not be negative"},
		{[]string{"-retain-bytes", "-1"}, "must not be negative"},
		{[]string{"-resume"}, "-resume requires -dir"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestMain re-execs the test binary as the real daemon when the child
// marker is set, so the kill-and-resume test can SIGKILL an actual
// llmprismd process mid-ingest.
func TestMain(m *testing.M) {
	if os.Getenv("LLMPRISMD_TEST_CHILD") == "1" {
		if err := run(os.Args[1:], os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "llmprismd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startDaemonProcess launches the daemon as a separate OS process and
// waits for its ready file, returning the process and its bound ingest
// address and query base URL.
func startDaemonProcess(t *testing.T, args []string, readyPath string, stderr io.Writer) (*exec.Cmd, string, string) {
	t.Helper()
	os.Remove(readyPath)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LLMPRISMD_TEST_CHILD=1")
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	// Generous: under -race with other package test binaries sharing the
	// machine, the child can take a while to bind and publish.
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(readyPath)
		if err == nil {
			f := strings.Fields(string(b))
			if len(f) == 4 && f[0] == "ingest" && f[2] == "query" {
				return cmd, f[1], "http://" + f[3]
			}
			t.Fatalf("malformed ready file: %q", b)
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("daemon child never became ready")
	return nil, "", ""
}

// pollClusterWindows polls the daemon's cluster listing until the cluster
// reports at least want released windows, then returns the count.
func pollClusterWindows(t *testing.T, queryURL, cluster string, want int) int {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(queryURL + "/v1/clusters")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, line := range strings.Split(string(body), "\n") {
				var n int
				var late uint64
				if _, err := fmt.Sscanf(line, "cluster "+cluster+": %d windows, %d late drops", &n, &late); err == nil && n >= want {
					return n
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("cluster %s never reached %d released windows", cluster, want)
	return 0
}

// TestDaemonKillAndResume is the restart-resume equivalence gate (and the
// CI kill-and-resume smoke): a daemon process is SIGKILLed mid-ingest —
// no drain, no finalize — restarted with -resume, fed the collector's
// stream from the start, and shut down cleanly. The final store must open
// strictly and replay bit-identically to a run that was never
// interrupted.
func TestDaemonKillAndResume(t *testing.T) {
	records, topo := daemonTrace(t, 7)
	frames := chunkFrames(records, 150)
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "topo.json")
	tf, err := os.Create(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.WriteJSON(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	stateDir := filepath.Join(dir, "state")
	if err := os.Mkdir(stateDir, 0o777); err != nil {
		t.Fatal(err)
	}
	readyPath := filepath.Join(dir, "ready")
	args := []string{
		"-topo", topoPath, "-dir", stateDir, "-resume",
		"-listen", "127.0.0.1:0", "-query", "127.0.0.1:0",
		"-window", "2s", "-lateness", "1s", "-workers", "2",
		"-localize", "-suppress-chronic", "-rotate-windows", "2",
		"-ready-file", readyPath,
	}
	base := session.Config{
		Topo:     topo,
		Bucket:   time.Minute,
		Workers:  2,
		Localize: true,
		Suppress: true,
		Window:   2 * time.Second,
		Lateness: time.Second,
		Depth:    2,
	}
	want := offlineText(t, base, frames)
	if want == "" {
		t.Fatal("offline reference released no windows")
	}

	// First life: stream the whole trace, and SIGKILL the daemon as soon
	// as a few windows have been analyzed and checkpointed — mid-ingest,
	// with open windows, a live segment temporary and no shutdown.
	cmd, ingestAddr, queryURL := startDaemonProcess(t, args, readyPath, os.Stderr)
	go streamFrames(ingestAddr, "kr", frames) // dies with the process; error irrelevant
	pollClusterWindows(t, queryURL, "kr", 2)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// The killed capture must be visibly unfinished: the strict opener
	// refuses it until a resumed run (or salvage) reconciles it.
	if _, err := session.OpenReplay(context.Background(), base, filepath.Join(stateDir, "kr.llps"), false); err == nil {
		t.Fatal("strict open of a SIGKILLed store succeeded")
	}

	// Second life: -resume restores the checkpoint, reconciles the store,
	// and the collector replays its stream from the start (pre-resume
	// records are dropped as late). SIGTERM then drains and finalizes.
	var log bytes.Buffer
	cmd, ingestAddr, queryURL = startDaemonProcess(t, args, readyPath, io.MultiWriter(os.Stderr, &log))
	if err := streamFrames(ingestAddr, "kr", frames); err != nil {
		t.Fatalf("resumed stream: %v", err)
	}
	if code, _ := httpGet(t, queryURL+"/v1/segments?cluster=kr"); code != http.StatusOK {
		t.Errorf("segments after resume: status %d", code)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("resumed daemon exited uncleanly: %v", err)
	}
	// The kill left the open segment's temporary behind, so reconciling
	// the store cannot have been clean, and the resume line says so.
	if !strings.Contains(log.String(), "resumed cluster kr from checkpoint; store recovered: ") {
		t.Errorf("resume log carries no store recovery note:\n%s", log.String())
	}

	rep, err := session.OpenReplay(context.Background(), base, filepath.Join(stateDir, "kr.llps"), false)
	if err != nil {
		t.Fatalf("strict open of resumed store: %v", err)
	}
	var replayed strings.Builder
	if err := rep.Run(func(reports []*llmprism.Report) {
		session.PrintReports(&replayed, reports)
	}); err != nil {
		t.Fatal(err)
	}
	if replayed.String() != want {
		t.Errorf("resumed store replay differs from uninterrupted run\n got %d bytes\nwant %d bytes",
			len(replayed.String()), len(want))
	}
}
