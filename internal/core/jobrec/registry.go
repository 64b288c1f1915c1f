package jobrec

import (
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

// JobID is a stable cross-window training-job identity assigned by a
// Registry. IDs start at 1; 0 means "not assigned" (e.g. a report produced
// outside the monitor).
type JobID int

// Cross-window job matching's operating point.
const (
	// matchJaccard is the minimum endpoint-set Jaccard similarity for a
	// window's cluster to inherit a tracked job's identity. Recognition is
	// per-window and sees only the endpoints that communicated inside the
	// window, so the observed membership of one job fluctuates; a
	// similarity threshold below 1 absorbs that.
	matchJaccard = 0.5
	// expireAfter is the number of consecutive windows a tracked job may go
	// unmatched before it is forgotten (a later reappearance gets a fresh
	// identity).
	expireAfter = 8
)

// RegistryConfig has no fields: matching runs at one operating point
// (matchJaccard, expireAfter). It stays because bench/ names it.
type RegistryConfig struct{}

// Registry assigns stable JobIDs to the per-window clusters the recognizer
// emits, by matching each window's endpoint sets against the jobs tracked
// from previous windows. It is the continuity anchor of the streaming
// monitor: per-job state (change-point detectors, incident history) is
// keyed by JobID rather than by cluster index, so a job keeps its identity
// while other tenants come and go around it.
//
// Matching is deterministic and globally best-first: every
// (cluster, tracked job) pair at or above the similarity threshold is a
// candidate, candidates are taken in descending similarity order (ties
// broken by lowest cluster index, then lowest JobID), and each cluster and
// job is claimed at most once. Processing clusters in recognition order
// instead used to let an early cluster steal a job that a later cluster
// matched strictly better, permanently swapping the two identities. A
// Registry is not safe for concurrent use; the monitor drives it from the
// in-order report emission path.
type Registry struct {
	next JobID
	jobs []registryJob
}

type registryJob struct {
	id        JobID
	endpoints []flow.Addr // sorted, last observed membership
	firstSeen time.Time
	lastSeq   int
}

// NewRegistry returns an empty registry.
func NewRegistry(RegistryConfig) *Registry {
	return &Registry{}
}

// Len returns the number of jobs currently tracked.
func (r *Registry) Len() int { return len(r.jobs) }

// FirstSeen returns the window start time at which id was first assigned,
// or the zero time when id is unknown (expired or never assigned).
func (r *Registry) FirstSeen(id JobID) time.Time {
	for i := range r.jobs {
		if r.jobs[i].id == id {
			return r.jobs[i].firstSeen
		}
	}
	return time.Time{}
}

// Assign matches one window's recognized clusters against the tracked jobs
// and returns their JobIDs, parallel to clusters. seq is the window's
// emission index (strictly increasing across calls) and at its start time;
// both feed the expiry clock and first-seen bookkeeping. Matched jobs have
// their endpoint sets refreshed to the window's observation; unmatched
// clusters open new jobs; tracked jobs unmatched for expireAfter windows
// are dropped.
func (r *Registry) Assign(seq int, at time.Time, clusters []Cluster) []JobID {
	ids := make([]JobID, len(clusters))
	// Globally best-first matching: rank every above-threshold
	// (cluster, job) candidate by similarity and claim pairs in that
	// order, so a weak early cluster can never steal a job from a later
	// cluster that matches it strictly better.
	type candidate struct {
		sim    float64
		ci, ji int
	}
	var cands []candidate
	for ci, c := range clusters {
		for ji := range r.jobs {
			if sim := sortedJaccard(c.Endpoints, r.jobs[ji].endpoints); sim >= matchJaccard {
				cands = append(cands, candidate{sim, ci, ji})
			}
		}
	}
	sort.Slice(cands, func(x, y int) bool {
		a, b := cands[x], cands[y]
		if a.sim != b.sim {
			return a.sim > b.sim
		}
		if a.ci != b.ci {
			return a.ci < b.ci
		}
		// r.jobs is ascending by id (append order, order-preserving
		// expiry), so index order keeps the lowest id on full ties.
		return a.ji < b.ji
	})
	matched := make([]bool, len(clusters))
	claimed := make([]bool, len(r.jobs))
	for _, cd := range cands {
		if matched[cd.ci] || claimed[cd.ji] {
			continue
		}
		matched[cd.ci] = true
		claimed[cd.ji] = true
		j := &r.jobs[cd.ji]
		j.endpoints = append(j.endpoints[:0], clusters[cd.ci].Endpoints...)
		j.lastSeq = seq
		ids[cd.ci] = j.id
	}
	for ci, c := range clusters {
		if matched[ci] {
			continue
		}
		r.next++
		r.jobs = append(r.jobs, registryJob{
			id:        r.next,
			endpoints: append([]flow.Addr(nil), c.Endpoints...),
			firstSeen: at,
			lastSeq:   seq,
		})
		ids[ci] = r.next
	}
	// Expire jobs that have gone unmatched too long.
	kept := r.jobs[:0]
	for _, j := range r.jobs {
		if seq-j.lastSeq < expireAfter {
			kept = append(kept, j)
		}
	}
	r.jobs = kept
	return ids
}

// sortedJaccard is the Jaccard similarity of two ascending-sorted,
// duplicate-free endpoint slices, computed with a linear merge (the
// recognizer sorts and dedups cluster endpoints, and the registry stores
// them that way).
func sortedJaccard(a, b []flow.Addr) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
