// Command llmprismd is the long-running multi-tenant fleet daemon: one
// process monitoring many training clusters at once, each behind its own
// streaming session managed by internal/session.
//
// Usage:
//
//	llmprismd -topo topo.json [-listen 127.0.0.1:9900] [-query 127.0.0.1:9901]
//	          [-dir /var/lib/llmprism] [-resume] [-max-sessions 64] [-pending 4]
//	          [-rotate-windows N] [-rotate-bytes N] [-rotate-span 1h]
//	          [-retain-segments N] [-retain-bytes N]
//	          [-window 1m] [-hop 30s] [-lateness 5s] [-depth 2]
//	          [-bucket 1m] [-workers 8] [-localize] [-suppress-chronic]
//	          [-drain 30s] [-ready-file path]
//
// Collectors connect to the ingest listener and speak the LPW1 stream
// framing (see internal/session/wire.go): a hello naming the collector's
// cluster, then length-prefixed binary LPF1 flow frames in event-time
// order, then an end-of-stream marker. Each connection carries exactly one
// cluster; any number of connections may be open at once, across any mix
// of clusters. Frames route into the cluster's session — created lazily on
// the first hello, bounded by -max-sessions — whose window pipeline runs
// with the daemon-wide analysis flags. Per connection, at most -pending
// decoded frames wait between the wire reader and the session push, so a
// collector that outruns analysis is slowed by TCP flow control instead of
// growing the heap. A window is released — appended to the store,
// checkpointed, visible to the query listener — when its analysis
// finishes, by the session's own release goroutine; it does not wait for
// the cluster's next frame, so a collector that goes quiet mid-stream
// leaves no analysed window behind.
//
// With -dir set, every cluster's session records its windows to the
// rotating multi-segment store <dir>/<cluster>.llps and checkpoints
// continuity state to <dir>/<cluster>.llpk. The -rotate-* flags bound
// when a store cuts a new segment (windows per segment, segment bytes,
// event-time span) and the -retain-* flags bound how much finalized
// history each store keeps (oldest segments pruned first). Stores follow
// the archive layer's crash-safety contract: closed segments are
// finalized atomically as the capture runs, so a killed daemon loses at
// most each cluster's open-segment temporary — and even that stays
// salvageable (llmprism replay -recover). The session manager rejects any
// configuration where two clusters would share an output path.
//
// With -resume (requires -dir), the daemon restarts every cluster found
// in -dir at boot: each session restores its .llpk checkpoint, reconciles
// its store to the checkpoint's resume point, and continues appending new
// segments — reports after the restart are bit-identical to a run that
// was never interrupted, provided collectors replay their stream from the
// start (records before the resume point are dropped as late). A cluster
// whose previous start never released a window simply starts fresh.
//
// The query listener serves plain text over HTTP (all responses
// Content-Type: text/plain; charset=utf-8):
//
//	GET /v1/clusters           cluster list with window/late-drop counters
//	GET /v1/report?cluster=X   every window report the cluster has released,
//	                           line-identical to llmprism replay of the
//	                           cluster's store
//	GET /v1/latest?cluster=X   the latest window's report only (its alerts,
//	                           incidents and fused suspect ranking)
//	GET /v1/segments?cluster=X the cluster's store manifest: per-segment
//	                           window ranges, event-time bounds and sizes
//
// On SIGINT/SIGTERM the daemon stops accepting, drains open connections
// (force-closing them after -drain), then closes every session — flushing
// remaining windows, writing final checkpoints and finalizing archives in
// deterministic order — and exits. Determinism carries end to end: a
// cluster's daemon-ingested report stream is bit-identical to an offline
// replay of the same frames, whatever the other clusters' connections were
// doing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/binfmt"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "llmprismd:", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("llmprismd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listenAddr  = fs.String("listen", "127.0.0.1:9900", "collector ingest listener address")
		queryAddr   = fs.String("query", "127.0.0.1:9901", "query (HTTP) listener address")
		topoPath    = fs.String("topo", "topo.json", "topology spec (JSON)")
		dir         = fs.String("dir", "", "per-cluster store/checkpoint directory (empty = no persistence)")
		resume      = fs.Bool("resume", false, "restart every cluster found in -dir from its checkpoint at boot")
		maxSessions = fs.Int("max-sessions", 64, "bound on concurrently open cluster sessions")
		pending     = fs.Int("pending", 4, "per-connection decoded frames buffered ahead of analysis")
		rotWindows  = fs.Int("rotate-windows", 0, "rotate a cluster's store segment after this many windows (0 = no bound)")
		rotBytes    = fs.Int64("rotate-bytes", 0, "rotate a cluster's store segment once it reaches this many bytes (0 = no bound)")
		rotSpan     = fs.Duration("rotate-span", 0, "rotate a cluster's store segment once it spans this much event time (0 = no bound)")
		keepSegs    = fs.Int("retain-segments", 0, "keep at most this many finalized segments per cluster, pruning the oldest (0 = keep all)")
		keepBytes   = fs.Int64("retain-bytes", 0, "keep each cluster's finalized segments within this byte total, pruning the oldest (0 = unbounded)")
		window      = fs.Duration("window", time.Minute, "analysis window width")
		hop         = fs.Duration("hop", 0, "window stride, <= window; 0 = tumbling")
		lateness    = fs.Duration("lateness", 5*time.Second, "allowed out-of-orderness")
		depth       = fs.Int("depth", 2, "pipelined windows in flight per cluster")
		bucket      = fs.Duration("bucket", time.Minute, "switch-level aggregation bucket")
		workers     = fs.Int("workers", 0, "per-job analysis fan-out (0 = GOMAXPROCS)")
		localized   = fs.Bool("localize", false, "rank root-cause suspect components")
		suppress    = fs.Bool("suppress-chronic", false, "suppress persistent anomalies from the alert surface")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout before connections are force-closed")
		readyFile   = fs.String("ready-file", "", "write the bound ingest and query addresses here once serving (atomic rename)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *maxSessions < 1 {
		return fmt.Errorf("-max-sessions must be positive (got %d)", *maxSessions)
	}
	if *pending < 1 {
		return fmt.Errorf("-pending must be positive (got %d)", *pending)
	}
	if *drain <= 0 {
		return fmt.Errorf("-drain must be positive (got %v)", *drain)
	}
	if *rotWindows < 0 || *rotBytes < 0 || *rotSpan < 0 || *keepSegs < 0 || *keepBytes < 0 {
		return fmt.Errorf("rotation and retention bounds must not be negative")
	}
	if *resume && *dir == "" {
		return fmt.Errorf("-resume requires -dir")
	}

	tf, err := os.Open(*topoPath)
	if err != nil {
		return err
	}
	topo, err := topology.ReadJSON(tf)
	tf.Close()
	if err != nil {
		return err
	}

	cfg := daemonConfig{
		base: session.Config{
			Topo:     topo,
			Bucket:   *bucket,
			Workers:  *workers,
			Localize: *localized,
			Suppress: *suppress,
			Window:   *window,
			Hop:      *hop,
			Lateness: *lateness,
			Depth:    *depth,
		},
		dir: *dir,
		rotate: archive.StorePolicy{
			RotateWindows:  *rotWindows,
			RotateBytes:    *rotBytes,
			RotateSpan:     *rotSpan,
			RetainSegments: *keepSegs,
			RetainBytes:    *keepBytes,
		},
		resume:      *resume,
		maxSessions: *maxSessions,
		pending:     *pending,
		logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}
	ingestLn, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		return err
	}
	queryLn, err := net.Listen("tcp", *queryAddr)
	if err != nil {
		ingestLn.Close()
		return err
	}
	d, err := newDaemon(context.Background(), cfg, ingestLn, queryLn)
	if err != nil {
		ingestLn.Close()
		queryLn.Close()
		return err
	}
	if err := d.ResumeClusters(); err != nil {
		ingestLn.Close()
		queryLn.Close()
		return errors.Join(err, d.mgr.Close())
	}
	d.Serve()
	cfg.logf("llmprismd: ingest on %s, query on http://%s", ingestLn.Addr(), queryLn.Addr())
	if *readyFile != "" {
		if err := writeReadyFile(*readyFile, ingestLn.Addr().String(), queryLn.Addr().String()); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	cfg.logf("llmprismd: shutting down (draining up to %v)", *drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = d.Shutdown(drainCtx)
	for _, c := range d.Clusters() {
		windows, late := d.ClusterStats(c)
		cfg.logf("llmprismd: cluster %s: %d windows, %d late drops", c, windows, late)
	}
	return errors.Join(err, d.Close())
}

// daemonConfig parameterizes a daemon instance.
type daemonConfig struct {
	// base is the analysis and window configuration every cluster session
	// is built from; per-cluster archive/checkpoint paths are added on top.
	base session.Config
	// dir is the per-cluster output directory ("" = no persistence).
	dir string
	// rotate bounds every cluster store's segment rotation and retention.
	rotate archive.StorePolicy
	// resume restarts every cluster found in dir from its checkpoint at
	// boot, and makes lazily created sessions reconcile whatever state a
	// previous run left for their cluster.
	resume bool
	// maxSessions bounds concurrently open cluster sessions (0 = unbounded).
	maxSessions int
	// pending bounds decoded frames buffered per connection between the
	// wire reader and the session push (min 1).
	pending int
	// logf receives operational log lines.
	logf func(format string, args ...any)
}

// daemon is the running server: the session manager, the two listeners,
// and the per-cluster report text the query endpoint serves.
type daemon struct {
	cfg daemonConfig
	ctx context.Context
	mgr *session.Manager

	ingest  net.Listener
	queryLn net.Listener
	query   *http.Server

	// mu guards the query-side state OnReports appends to.
	mu     sync.Mutex
	text   map[string]*strings.Builder
	latest map[string]*llmprism.Report

	// connMu guards the open-connection set; down blocks new registrations
	// once shutdown starts, closing the wg.Add/wg.Wait race.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	down   bool
	wg     sync.WaitGroup
}

// newDaemon assembles a daemon around already-bound listeners. ctx bounds
// every analysis the cluster sessions run; it should outlive the daemon
// (sessions outlive the connections that created them).
func newDaemon(ctx context.Context, cfg daemonConfig, ingestLn, queryLn net.Listener) (*daemon, error) {
	if cfg.pending < 1 {
		cfg.pending = 1
	}
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	d := &daemon{
		cfg:     cfg,
		ctx:     ctx,
		ingest:  ingestLn,
		queryLn: queryLn,
		text:    make(map[string]*strings.Builder),
		latest:  make(map[string]*llmprism.Report),
		conns:   make(map[net.Conn]struct{}),
	}
	mgr, err := session.NewManager(session.ManagerConfig{
		Config:      d.clusterConfig,
		MaxSessions: cfg.maxSessions,
		OnReports:   d.onReports,
	})
	if err != nil {
		return nil, err
	}
	d.mgr = mgr
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/clusters", d.handleClusters)
	mux.HandleFunc("/v1/report", d.handleReport)
	mux.HandleFunc("/v1/latest", d.handleLatest)
	mux.HandleFunc("/v1/segments", d.handleSegments)
	d.query = &http.Server{Handler: mux}
	return d, nil
}

// clusterConfig derives one cluster's session config: the shared analysis
// base plus that cluster's store and checkpoint paths. Cluster IDs have
// already passed ValidateClusterID, so they are safe file-name stems.
func (d *daemon) clusterConfig(cluster string) (session.Config, error) {
	cfg := d.cfg.base
	if d.cfg.dir != "" {
		cfg.StoreDir = filepath.Join(d.cfg.dir, cluster+".llps")
		cfg.CheckpointPath = filepath.Join(d.cfg.dir, cluster+".llpk")
		cfg.Rotate = d.cfg.rotate
		cfg.Resume = d.cfg.resume
	}
	return cfg, nil
}

// ResumeClusters eagerly reopens every cluster a previous run left in the
// persistence directory — any <cluster>.llpk checkpoint or <cluster>.llps
// store — so each session restores its checkpoint and reconciles its
// store at boot, before collectors reconnect. No-op unless the daemon was
// configured with resume and a directory. Each resumed cluster is
// logged, in cluster order, with what reconciling its store found.
func (d *daemon) ResumeClusters() error {
	if !d.cfg.resume || d.cfg.dir == "" {
		return nil
	}
	ents, err := os.ReadDir(d.cfg.dir)
	if err != nil {
		return err
	}
	clusters := make(map[string]bool)
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case !ent.IsDir() && strings.HasSuffix(name, ".llpk"):
			clusters[strings.TrimSuffix(name, ".llpk")] = true
		case ent.IsDir() && strings.HasSuffix(name, ".llps"):
			clusters[strings.TrimSuffix(name, ".llps")] = true
		}
	}
	resumed := make([]string, 0, len(clusters))
	for cluster := range clusters {
		if session.ValidateClusterID(cluster) != nil {
			continue
		}
		resumed = append(resumed, cluster)
	}
	sort.Strings(resumed)
	for _, cluster := range resumed {
		cs, err := d.mgr.Session(d.ctx, cluster)
		if err != nil {
			return fmt.Errorf("resume cluster %q: %w", cluster, err)
		}
		note := ""
		if rec := cs.StoreRecovery(); rec != nil {
			note = "; " + rec.String()
		}
		d.cfg.logf("llmprismd: resumed cluster %s from checkpoint%s", cluster, note)
	}
	return nil
}

// writeReadyFile publishes the bound listener addresses for supervisors
// (and the kill-and-resume test harness): two lines, "ingest <addr>" and
// "query <addr>", replaced atomically (binfmt.WriteFile: temporary, fsync,
// rename — binfmt.Commit without the directory fsync) so a reader never
// sees a partial file.
func writeReadyFile(path, ingest, query string) error {
	return binfmt.WriteFile(path, false, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "ingest %s\nquery %s\n", ingest, query)
		return err
	})
}

// onReports accumulates each cluster's released window reports as the same
// text the CLI prints, so the query endpoint's answer is line-identical to
// an offline replay. Called by the manager in strict window order per
// cluster, with at least one report — from that cluster's pusher or its
// release goroutine, so calls for different clusters run concurrently: the
// text is rendered before d.mu is taken, which then covers only the append
// and the latest swap.
func (d *daemon) onReports(cluster string, reports []*llmprism.Report) {
	var rendered strings.Builder
	session.PrintReports(&rendered, reports)
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.text[cluster]
	if b == nil {
		b = &strings.Builder{}
		d.text[cluster] = b
	}
	b.WriteString(rendered.String())
	d.latest[cluster] = reports[len(reports)-1]
}

// Serve starts the accept loops. It returns immediately.
func (d *daemon) Serve() {
	go d.serveIngest()
	go d.query.Serve(d.queryLn)
}

func (d *daemon) serveIngest() {
	for {
		conn, err := d.ingest.Accept()
		if err != nil {
			return
		}
		if !d.trackConn(conn) {
			conn.Close()
			continue
		}
		go func() {
			defer d.untrackConn(conn)
			defer conn.Close()
			d.handleConn(conn)
		}()
	}
}

func (d *daemon) trackConn(c net.Conn) bool {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	if d.down {
		return false
	}
	d.conns[c] = struct{}{}
	d.wg.Add(1)
	return true
}

func (d *daemon) untrackConn(c net.Conn) {
	d.connMu.Lock()
	delete(d.conns, c)
	d.connMu.Unlock()
	d.wg.Done()
}

// handleConn runs one collector connection: hello, then frames into the
// cluster's session until end-of-stream. A bounded channel separates the
// wire reader from the session push, so up to cfg.pending frames decode
// ahead of analysis and a full buffer back-pressures the collector through
// TCP flow control.
func (d *daemon) handleConn(conn net.Conn) {
	cluster, err := session.ReadHello(conn)
	if err != nil {
		d.cfg.logf("llmprismd: %s: %v", conn.RemoteAddr(), err)
		return
	}
	cs, err := d.mgr.Session(d.ctx, cluster)
	if err != nil {
		d.cfg.logf("llmprismd: %s: %v", conn.RemoteAddr(), err)
		return
	}
	frames := make(chan *flow.Frame, d.cfg.pending)
	done := make(chan error, 1)
	go func() {
		for f := range frames {
			if err := cs.PushFrame(f); err != nil {
				done <- err
				// Keep draining so the reader never blocks on a dead
				// session; the frames are lost either way.
				for range frames {
				}
				return
			}
		}
		done <- nil
	}()
	var readErr error
	for {
		f, err := session.ReadFrameMessage(conn)
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		frames <- f
	}
	close(frames)
	if err := <-done; err != nil {
		d.cfg.logf("llmprismd: cluster %s: push: %v", cluster, err)
	}
	if readErr != nil {
		d.cfg.logf("llmprismd: cluster %s: %s: %v", cluster, conn.RemoteAddr(), readErr)
	}
}

func (d *daemon) handleClusters(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, c := range d.mgr.Clusters() {
		windows, late := d.ClusterStats(c)
		fmt.Fprintf(w, "cluster %s: %d windows, %d late drops\n", c, windows, late)
	}
}

// queryCluster resolves the ?cluster= parameter against the clusters that
// have released at least one report.
func (d *daemon) queryCluster(w http.ResponseWriter, r *http.Request) (string, bool) {
	cluster := r.URL.Query().Get("cluster")
	if cluster == "" {
		http.Error(w, "missing cluster parameter", http.StatusBadRequest)
		return "", false
	}
	d.mu.Lock()
	_, ok := d.text[cluster]
	d.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("unknown cluster %q", cluster), http.StatusNotFound)
		return "", false
	}
	return cluster, true
}

func (d *daemon) handleReport(w http.ResponseWriter, r *http.Request) {
	cluster, ok := d.queryCluster(w, r)
	if !ok {
		return
	}
	d.mu.Lock()
	body := d.text[cluster].String()
	d.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, body)
}

func (d *daemon) handleLatest(w http.ResponseWriter, r *http.Request) {
	cluster, ok := d.queryCluster(w, r)
	if !ok {
		return
	}
	d.mu.Lock()
	latest := d.latest[cluster]
	d.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	session.PrintReports(w, []*llmprism.Report{latest})
}

// handleSegments serves a cluster's store manifest: one line per
// finalized segment with its window range, event-time bounds and size.
// It reads the manifest file directly — the store writer rewrites it
// atomically, so a concurrent read always sees a complete manifest.
func (d *daemon) handleSegments(w http.ResponseWriter, r *http.Request) {
	cluster := r.URL.Query().Get("cluster")
	if cluster == "" {
		http.Error(w, "missing cluster parameter", http.StatusBadRequest)
		return
	}
	if err := session.ValidateClusterID(cluster); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if d.cfg.dir == "" {
		http.Error(w, "no persistence directory configured", http.StatusNotFound)
		return
	}
	meta, _, segs, err := archive.ReadStoreManifest(filepath.Join(d.cfg.dir, cluster+".llps"))
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster %q has no readable store: %v", cluster, err), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "store %s: %d segments, window %v, hop %v, lateness %v\n",
		cluster, len(segs), meta.Width, meta.Hop, meta.Lateness)
	for _, s := range segs {
		fmt.Fprintf(w, "segment %d: %d windows, seq %d..%d, [%s..%s), %d bytes\n",
			s.Index, s.Windows, s.FirstSeq, s.LastSeq,
			s.MinStart.UTC().Format(time.RFC3339Nano), s.MaxEnd.UTC().Format(time.RFC3339Nano), s.Bytes)
	}
}

// Clusters returns the open clusters, sorted.
func (d *daemon) Clusters() []string { return d.mgr.Clusters() }

// ClusterStats returns one cluster's released-window and late-drop
// counters.
func (d *daemon) ClusterStats(cluster string) (windows int, late uint64) {
	cs, ok := d.mgr.Lookup(cluster)
	if !ok {
		return 0, 0
	}
	return cs.Stats()
}

// Shutdown stops ingest and finalizes every session: the ingest listener
// closes, open connections drain gracefully — force-closed once ctx
// expires — and the manager then flushes, checkpoints and finalizes each
// cluster in deterministic order. The query endpoint keeps serving (now
// complete) reports until Close.
func (d *daemon) Shutdown(ctx context.Context) error {
	d.ingest.Close()
	d.connMu.Lock()
	d.down = true
	d.connMu.Unlock()
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		d.connMu.Lock()
		for c := range d.conns {
			c.Close()
		}
		d.connMu.Unlock()
		<-done
	}
	return d.mgr.Close()
}

// Close stops the query endpoint. Call after Shutdown.
func (d *daemon) Close() error {
	return d.query.Close()
}
