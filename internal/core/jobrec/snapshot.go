package jobrec

import (
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

// Snapshot is the registry's serializable continuity state: everything a
// restarted monitor needs to keep assigning the same JobIDs to the same
// tenants.
type Snapshot struct {
	// Next is the last JobID handed out.
	Next JobID
	// Jobs are the tracked jobs in tracking order (ascending id — the
	// order matching and expiry iterate).
	Jobs []JobSnapshot
}

// JobSnapshot is one tracked job's state.
type JobSnapshot struct {
	ID JobID
	// Endpoints is the last observed membership, ascending.
	Endpoints []flow.Addr
	// FirstSeen is the window start at which the id was assigned.
	FirstSeen time.Time
	// LastSeq is the emission index of the last window that matched.
	LastSeq int
}

// Snapshot captures the registry's state. The result shares nothing with
// the registry and stays valid across further Assign calls.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Next: r.next, Jobs: make([]JobSnapshot, len(r.jobs))}
	for i, j := range r.jobs {
		s.Jobs[i] = JobSnapshot{
			ID:        j.id,
			Endpoints: append([]flow.Addr(nil), j.endpoints...),
			FirstSeen: j.firstSeen,
			LastSeq:   j.lastSeq,
		}
	}
	return s
}

// Restore replaces the registry's tracked jobs and id counter with the
// snapshot's. Endpoint slices are copied; the snapshot stays usable.
func (r *Registry) Restore(s Snapshot) {
	r.next = s.Next
	r.jobs = make([]registryJob, len(s.Jobs))
	for i, j := range s.Jobs {
		r.jobs[i] = registryJob{
			id:        j.ID,
			endpoints: append([]flow.Addr(nil), j.Endpoints...),
			firstSeen: j.FirstSeen,
			lastSeq:   j.LastSeq,
		}
	}
}
