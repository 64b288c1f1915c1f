package session

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/flow"
)

// ManagerConfig parameterizes a session Manager.
type ManagerConfig struct {
	// Config builds the session config for a cluster on first use.
	// Required. The builder decides per-cluster archive and checkpoint
	// paths; the manager rejects a config whose paths collide with
	// another cluster's (or with each other).
	Config func(cluster string) (Config, error)
	// MaxSessions bounds how many cluster sessions may be open at once;
	// creating one past the bound fails. 0 means unbounded.
	MaxSessions int
	// OnReports, when non-nil, receives every batch of completed window
	// reports a cluster session releases — from its release goroutine when
	// a window's analysis finishes, from a push that finds windows ready,
	// and from the final flush at Close alike — in strict window order per
	// cluster, never empty. Which of the three delivers a given window
	// depends on timing; the sequence does not. It is called with the
	// owning cluster session's lock held, so implementations must not call
	// back into that session; calls for different clusters may be
	// concurrent.
	OnReports func(cluster string, reports []*llmprism.Report)
}

// Manager is a multi-tenant session registry keyed by cluster ID — the
// heart of the fleet daemon, usable by any embedder. Sessions are created
// lazily on first use, bounded by MaxSessions, and closed together:
// Close checkpoints and finalizes every session's archive in deterministic
// (sorted cluster) order and joins every session's release goroutine.
// Manager is safe for concurrent use.
type Manager struct {
	cfg ManagerConfig
	// releasers counts live release goroutines, one per session that is
	// neither closed nor dead; Close waits for it.
	releasers sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*ClusterSession
	paths    map[string]pathOwner
	closed   bool
}

// pathOwner records which cluster claimed an output path, and as what.
type pathOwner struct {
	cluster string
	role    string
}

// NewManager returns an empty Manager.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Config == nil {
		return nil, fmt.Errorf("session: manager requires a Config builder")
	}
	return &Manager{
		cfg:      cfg,
		sessions: make(map[string]*ClusterSession),
		paths:    make(map[string]pathOwner),
	}, nil
}

// Session returns the cluster's session, creating it on first use. ctx
// bounds every analysis the new session will run (use the manager's
// lifetime context, not a per-connection one: the session outlives the
// connection that first touched it).
func (m *Manager) Session(ctx context.Context, cluster string) (*ClusterSession, error) {
	if err := ValidateClusterID(cluster); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("session: manager is closed")
	}
	if cs, ok := m.sessions[cluster]; ok {
		return cs, nil
	}
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		return nil, fmt.Errorf("session: cluster %q rejected: %d sessions already open (limit %d)",
			cluster, len(m.sessions), m.cfg.MaxSessions)
	}
	cfg, err := m.cfg.Config(cluster)
	if err != nil {
		return nil, fmt.Errorf("session: cluster %q config: %w", cluster, err)
	}
	claimed, err := m.claimPaths(cluster, cfg)
	if err != nil {
		return nil, err
	}
	s, err := Open(ctx, cfg)
	if err != nil {
		for _, p := range claimed {
			delete(m.paths, p)
		}
		return nil, fmt.Errorf("session: cluster %q: %w", cluster, err)
	}
	cs := &ClusterSession{mgr: m, cluster: cluster, s: s, halt: make(chan struct{})}
	m.sessions[cluster] = cs
	m.releasers.Add(1)
	go cs.releaseLoop()
	return cs, nil
}

// claimPaths registers the config's output paths, rejecting any that an
// earlier session (or the same config, under another role) already owns:
// two sessions writing one archive would silently interleave — and
// corrupt — it. Called with m.mu held; returns the claimed keys so a
// failed open can release them.
func (m *Manager) claimPaths(cluster string, cfg Config) ([]string, error) {
	var claimed []string
	for _, out := range []struct{ role, path string }{
		{"archive", cfg.ArchivePath},
		{"store", cfg.StoreDir},
		{"checkpoint", cfg.CheckpointPath},
	} {
		if out.path == "" {
			continue
		}
		key := filepath.Clean(out.path)
		if owner, ok := m.paths[key]; ok {
			for _, p := range claimed {
				delete(m.paths, p)
			}
			return nil, fmt.Errorf("session: cluster %q %s path %q already in use as cluster %q %s path",
				cluster, out.role, out.path, owner.cluster, owner.role)
		}
		m.paths[key] = pathOwner{cluster: cluster, role: out.role}
		claimed = append(claimed, key)
	}
	return claimed, nil
}

// Lookup returns the cluster's session if one exists, without creating
// it. Unlike Session it keeps answering after Close, so shutdown paths can
// still read final statistics.
func (m *Manager) Lookup(cluster string) (*ClusterSession, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cs, ok := m.sessions[cluster]
	return cs, ok
}

// Clusters returns the open clusters, sorted.
func (m *Manager) Clusters() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.sessions))
	for c := range m.sessions {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Close shuts every session down in sorted cluster order: each flushes its
// remaining windows (delivering the final reports through OnReports),
// writes its last checkpoint, and finalizes its archive atomically. The
// manager accepts no new sessions afterwards. Sessions that already died
// of a push or release error are released without finalizing (their
// archive temporary stays salvageable). Close returns once every session's
// release goroutine has exited, and is idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	clusters := make([]string, 0, len(m.sessions))
	for c := range m.sessions {
		clusters = append(clusters, c)
	}
	sort.Strings(clusters)
	sessions := make([]*ClusterSession, len(clusters))
	for i, c := range clusters {
		sessions[i] = m.sessions[c]
	}
	m.mu.Unlock()

	var errs []error
	for i, cs := range sessions {
		if err := cs.close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster %q: %w", clusters[i], err))
		}
	}
	m.releasers.Wait()
	return errors.Join(errs...)
}

// ClusterSession is one cluster's managed session. All methods serialize
// behind the session's lock, so any number of collector connections (or
// goroutines) may feed one cluster — their pushes interleave atomically,
// and reports reach OnReports in strict window order. The session's
// release goroutine takes the same lock to deliver a window as soon as
// its analysis finishes, so a quiet collector delays nothing: the window's
// store append, checkpoint and OnReports call do not wait for the next
// frame. For deterministic replayability, frames for one cluster must
// still arrive in event-time order across that interleaving (one collector
// per cluster, or within-lateness disorder, which the watermark absorbs).
type ClusterSession struct {
	mgr     *Manager
	cluster string
	// halt stops the release goroutine. It is closed exactly once, under
	// mu, by whichever comes first: the session dying (err set) or closing.
	halt chan struct{}

	mu     sync.Mutex
	s      *Session
	err    error
	closed bool
}

// PushFrame ingests one frame (a decoded wire frame, or flow.NewFrame of a
// record batch; nil ingests nothing); completed reports go to OnReports.
// After an error the session is dead: every later call returns the same
// error, and Manager.Close will not finalize its archive.
func (cs *ClusterSession) PushFrame(f *flow.Frame) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if err := cs.usable(); err != nil {
		return err
	}
	return cs.release(cs.s.PushFrame(f))
}

// Stats returns the session's released-window and late-drop counters.
func (cs *ClusterSession) Stats() (windows int, late uint64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.s == nil {
		return 0, 0
	}
	return cs.s.Windows(), cs.s.Late()
}

// StoreRecovery reports what reconciling the cluster's store with its
// checkpoint found and repaired when the session resumed (nil on a fresh
// session, or when no store is configured). It is fixed once the session
// is open.
func (cs *ClusterSession) StoreRecovery() *archive.StoreRecovery { return cs.s.StoreRecovery() }

func (cs *ClusterSession) usable() error {
	if cs.closed {
		return fmt.Errorf("session: cluster %q session is closed", cs.cluster)
	}
	if cs.err != nil {
		return cs.err
	}
	return nil
}

// release is the tail of every push and of the release goroutine's
// collect: deliver what was released, and on error mark the session dead
// and stop its release goroutine. Called with cs.mu held on a usable
// session, so an error here is the session's first.
func (cs *ClusterSession) release(reports []*llmprism.Report, err error) error {
	cs.deliver(reports)
	if err != nil {
		cs.err = err
		close(cs.halt)
	}
	return err
}

// releaseLoop is the session's release goroutine: each time an analysis
// finishes it takes the session lock and collects — the same release a push
// ends with — so a finished window leaves without waiting for the cluster's
// next frame. It exits when the session closes or dies.
func (cs *ClusterSession) releaseLoop() {
	defer cs.mgr.releasers.Done()
	for {
		select {
		case <-cs.halt:
			return
		case <-cs.s.Completed():
		}
		cs.mu.Lock()
		if cs.usable() == nil {
			cs.release(cs.s.Collect())
		}
		cs.mu.Unlock()
	}
}

func (cs *ClusterSession) deliver(reports []*llmprism.Report) {
	if len(reports) > 0 && cs.mgr.cfg.OnReports != nil {
		cs.mgr.cfg.OnReports(cs.cluster, reports)
	}
}

// close finalizes the session (Manager.Close calls it).
func (cs *ClusterSession) close() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return nil
	}
	cs.closed = true
	if cs.err != nil {
		// The session already died mid-stream; release the handles and
		// keep the archive temporary for salvage instead of pretending
		// the capture finished.
		cs.s.Abort()
		return cs.err
	}
	close(cs.halt)
	reports, err := cs.s.Close()
	cs.deliver(reports)
	return err
}
