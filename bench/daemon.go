package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/topology"
)

// daemonBucket is llmprismd's default -bucket, which the reference
// sessions must mirror.
const daemonBucket = time.Minute

// streamTimeout bounds one cluster stream end to end, and queryTimeout one
// query round trip: a daemon that stalls fails the run instead of hanging
// it.
const (
	streamTimeout = 150 * time.Second
	queryTimeout  = 10 * time.Second
)

// pollInterval is how often the harness asks the daemon which windows it
// has released; release latency is resolved to this grain.
const pollInterval = 2 * time.Millisecond

// daemonFlags are the llmprismd settings a workload runs with.
type daemonFlags struct {
	geo                           geometry
	localize, suppress            bool
	rotateWindows, retainSegments int
}

func (d daemonFlags) args(topoPath, dir, readyFile string) []string {
	args := []string{
		"-topo", topoPath, "-listen", "127.0.0.1:0", "-query", "127.0.0.1:0",
		"-ready-file", readyFile, "-dir", dir,
		"-window", d.geo.width.String(), "-lateness", d.geo.lateness.String(), "-depth", "2",
		"-rotate-windows", strconv.Itoa(d.rotateWindows),
	}
	if d.geo.hop > 0 {
		args = append(args, "-hop", d.geo.hop.String())
	}
	if d.retainSegments > 0 {
		args = append(args, "-retain-segments", strconv.Itoa(d.retainSegments))
	}
	if d.localize {
		args = append(args, "-localize")
	}
	if d.suppress {
		args = append(args, "-suppress-chronic")
	}
	return args
}

// sessionConfig is the in-process twin of args: the session an offline
// reference (or a replay) must be built from to reproduce the daemon's
// reports byte for byte.
func (d daemonFlags) sessionConfig(topo *topology.Topology) session.Config {
	return session.Config{
		Topo: topo, Bucket: daemonBucket, Localize: d.localize, Suppress: d.suppress,
		Window: d.geo.width, Hop: d.geo.hop, Lateness: d.geo.lateness, Depth: 2,
	}
}

// buildDaemon compiles cmd/llmprismd from the checkout into the build
// directory.
func buildDaemon(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "llmprismd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/llmprismd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build llmprismd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonProc is one running llmprismd.
type daemonProc struct {
	cmd           *exec.Cmd
	ingest, query string
	stderr        bytes.Buffer
	boot          time.Duration
}

func startDaemon(bin string, args []string, readyFile string) (*daemonProc, error) {
	p := &daemonProc{cmd: exec.Command(bin, args...)}
	p.cmd.Stderr = &p.stderr
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := t0.Add(20 * time.Second)
	for {
		b, err := os.ReadFile(readyFile)
		if err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if addr, ok := strings.CutPrefix(line, "ingest "); ok {
					p.ingest = addr
				}
				if addr, ok := strings.CutPrefix(line, "query "); ok {
					p.query = addr
				}
			}
			if p.ingest != "" && p.query != "" {
				p.boot = time.Since(t0)
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.cmd.Process.Kill()
			p.cmd.Wait()
			return nil, fmt.Errorf("llmprismd not ready after 20s: %s", p.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// vmHWM reads the daemon's peak resident set from /proc — the kernel's own
// high-water mark for this address space. ProcessState.SysUsage().Maxrss
// is not usable for this: across vfork+exec Linux seeds the child's
// ru_maxrss with the parent's RSS, so a generator holding a large trace
// makes a small daemon look huge.
func (p *daemonProc) vmHWM() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// daemonExit is what the harness learns from a daemon's shutdown.
type daemonExit struct {
	cpu      time.Duration
	hwmKB    int64
	maxrssKB int64
	shutdown time.Duration
	// windows and late are the final per-cluster counters the daemon logs
	// after flushing every session.
	windows map[string]int
	late    map[string]uint64
}

var finalStatsRE = regexp.MustCompile(`llmprismd: cluster (\S+): (\d+) windows, (\d+) late drops`)

// stop sends SIGTERM, keeps sampling VmHWM while the daemon flushes (the
// last read before /proc/<pid> disappears is the process's true peak) and
// waits for exit.
func (p *daemonProc) stop() (*daemonExit, error) {
	ex := &daemonExit{windows: map[string]int{}, late: map[string]uint64{}}
	hwm, err := p.vmHWM()
	if err != nil {
		return nil, err
	}
	ex.hwmKB = hwm
	t0 := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	waited := make(chan error, 1)
	go func() { waited <- p.cmd.Wait() }()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var werr error
wait:
	for {
		select {
		case werr = <-waited:
			break wait
		case <-tick.C:
			if v, err := p.vmHWM(); err == nil && v > ex.hwmKB {
				ex.hwmKB = v
			}
		}
	}
	ex.shutdown = time.Since(t0)
	if werr != nil {
		return nil, fmt.Errorf("llmprismd exit: %v\n%s", werr, p.stderr.String())
	}
	st := p.cmd.ProcessState
	ex.cpu = st.UserTime() + st.SystemTime()
	ex.maxrssKB = st.SysUsage().(*syscall.Rusage).Maxrss
	for _, m := range finalStatsRE.FindAllStringSubmatch(p.stderr.String(), -1) {
		w, _ := strconv.Atoi(m[2])
		l, _ := strconv.ParseUint(m[3], 10, 64)
		ex.windows[m[1]], ex.late[m[1]] = w, l
	}
	return ex, nil
}

func (p *daemonProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// streamPlan is one cluster stream a lane sends: a trace under a cluster
// id.
type streamPlan struct {
	cluster string
	tr      *trace
}

// streamTiming records when each message of a stream was due and when its
// write returned.
type streamTiming struct {
	plan        streamPlan
	due, done   []time.Time
	first, last time.Time
	blocked     time.Duration
	lateMax     time.Duration
}

// sendLane streams the lane's clusters one after another over one
// connection each. pace > 0 sends on a schedule at pace × event time
// whatever the daemon does (open loop); pace == 0 writes as fast as TCP
// backpressure allows (closed loop). Each stream ends when the daemon has
// consumed it and closed its side.
func sendLane(addr string, plans []streamPlan, pace float64) ([]*streamTiming, error) {
	var out []*streamTiming
	for _, plan := range plans {
		st, err := sendStream(addr, plan, pace)
		if err != nil {
			return out, fmt.Errorf("cluster %s: %w", plan.cluster, err)
		}
		out = append(out, st)
	}
	return out, nil
}

func sendStream(addr string, plan streamPlan, pace float64) (*streamTiming, error) {
	tr := plan.tr
	st := &streamTiming{plan: plan, due: make([]time.Time, len(tr.msgs)), done: make([]time.Time, len(tr.msgs))}
	st.first = time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(streamTimeout)); err != nil {
		return nil, err
	}
	if err := session.WriteHello(conn, plan.cluster); err != nil {
		return nil, err
	}
	interval := time.Duration(0)
	if pace > 0 {
		interval = time.Duration(float64(frameInterval) / pace)
	}
	start := time.Now()
	for i, msg := range tr.msgs {
		due := start.Add(time.Duration(i) * interval)
		if pace > 0 {
			time.Sleep(time.Until(due))
		}
		t0 := time.Now()
		if pace == 0 {
			due = t0
		} else if late := t0.Sub(due); late > st.lateMax {
			st.lateMax = late
		}
		if _, err := conn.Write(msg); err != nil {
			return nil, err
		}
		t1 := time.Now()
		st.due[i], st.done[i] = due, t1
		st.blocked += t1.Sub(t0)
	}
	if err := session.WriteEndOfStream(conn); err != nil {
		return nil, err
	}
	// The daemon closes the connection once every frame has been pushed;
	// waiting for that is waiting on the daemon, like a blocked write.
	t0 := time.Now()
	if _, err := io.Copy(io.Discard, conn); err != nil {
		return nil, err
	}
	st.last = time.Now()
	st.blocked += st.last.Sub(t0)
	return st, nil
}

// poller watches /v1/clusters over one keep-alive connection and stamps the
// first time each released-window count was visible.
type poller struct {
	client *http.Client
	url    string

	mu sync.Mutex
	// seen[cluster][s] is when seq s was first visible as released.
	seen    map[string][]time.Time
	late    map[string]uint64
	queryMs []float64
	err     error

	stopc, donec chan struct{}
}

func startPoller(query string) *poller {
	p := &poller{
		client: &http.Client{Timeout: queryTimeout, Transport: &http.Transport{MaxIdleConns: 1, MaxConnsPerHost: 1}},
		url:    "http://" + query + "/v1/clusters",
		seen:   map[string][]time.Time{},
		late:   map[string]uint64{},
		stopc:  make(chan struct{}),
		donec:  make(chan struct{}),
	}
	go func() {
		defer close(p.donec)
		tick := time.NewTicker(pollInterval)
		defer tick.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-tick.C:
				if err := p.poll(); err != nil {
					p.mu.Lock()
					p.err = err
					p.mu.Unlock()
					return
				}
			}
		}
	}()
	return p
}

func (p *poller) poll() error {
	t0 := time.Now()
	resp, err := p.client.Get(p.url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	type row struct {
		cluster string
		windows int
		late    uint64
	}
	var rows []row
	for sc.Scan() {
		// "cluster <id>: <n> windows, <m> late drops". Sscanf, not a regexp:
		// this runs 500 times a second beside a daemon that wants both cores.
		var r row
		if _, err := fmt.Sscanf(sc.Text(), "cluster %s %d windows, %d late drops", &r.cluster, &r.windows, &r.late); err != nil {
			return fmt.Errorf("/v1/clusters: unparsable line %q: %v", sc.Text(), err)
		}
		r.cluster = strings.TrimSuffix(r.cluster, ":")
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	t1 := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queryMs = append(p.queryMs, float64(t1.Sub(t0))/1e6)
	for _, r := range rows {
		for len(p.seen[r.cluster]) < r.windows {
			p.seen[r.cluster] = append(p.seen[r.cluster], t1)
		}
		p.late[r.cluster] = r.late
	}
	return nil
}

// stop ends polling after one last look, so counters read after the lanes
// drained are current.
func (p *poller) stop() error {
	close(p.stopc)
	<-p.donec
	if p.err != nil {
		return p.err
	}
	defer p.client.CloseIdleConnections()
	return p.poll()
}

// fetchReport returns every window report the daemon has released for the
// cluster.
func fetchReport(query, cluster string) (string, error) {
	client := http.Client{Timeout: queryTimeout}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + query + "/v1/report?cluster=" + cluster)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode == http.StatusNotFound {
		// No window released yet: the cluster has no report text.
		return "", nil
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/v1/report?cluster=%s: %s: %s", cluster, resp.Status, b)
	}
	return string(b), nil
}
