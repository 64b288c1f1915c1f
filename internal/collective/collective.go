// Package collective decomposes data-parallel collective operations into
// the pairwise network transfers they place on the fabric.
//
// Production collectives (NCCL/HCCL) run ring algorithms over multiple
// "channels" — rings with different member permutations — to use several
// network paths at once. Each ring edge carries a contiguous stream of
// chunks on one queue pair, which a flow collector observes as a single
// flow per (edge, bucket, phase). The multi-ring structure matters to
// LLMPrism: it makes the DP communication graph denser than a single cycle,
// which is what lets Algorithm 2's transitive refinement repair every
// misclassified DP pair.
package collective

import "fmt"

// Phase identifies the collective phase a transfer belongs to.
type Phase uint8

// Collective phases. ZeRO-style data parallelism reduce-scatters gradients,
// runs the optimizer on the shard, then all-gathers updated parameters.
const (
	PhaseReduceScatter Phase = iota + 1
	PhaseAllGather
)

func (p Phase) String() string {
	switch p {
	case PhaseReduceScatter:
		return "reduce-scatter"
	case PhaseAllGather:
		return "all-gather"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Transfer is one pairwise send within a collective: the aggregate chunk
// stream member From sends to member To on one ring for one bucket.
type Transfer struct {
	// From and To are member indices within the group (not global ranks).
	From, To int
	// Bytes is the total payload of the transfer.
	Bytes int64
	// Ring is the channel index, used as an ECMP label so different rings
	// can take different spine paths.
	Ring int
	// Bucket is the gradient-bucket index the transfer belongs to.
	Bucket int
	// Phase is the collective phase.
	Phase Phase
}

// Rings returns `count` ring successor permutations over n members.
// Ring r uses stride step[r] (odd strides, coprime with any power-of-two
// group size); rings[r][i] is the successor of member i on ring r.
// Strides that would not generate a single cycle for this n are skipped in
// favour of the next coprime stride.
func Rings(n, count int) ([][]int, error) {
	if n <= 1 {
		return nil, fmt.Errorf("collective: ring needs >= 2 members, got %d", n)
	}
	if count <= 0 {
		count = 1
	}
	rings := make([][]int, 0, count)
	stride := 1
	for len(rings) < count {
		for stride < 2*n && gcd(stride, n) != 1 {
			stride += 2
		}
		if stride >= 2*n {
			// No more distinct coprime strides below 2n; reuse stride 1.
			stride = 1
		}
		ring := make([]int, n)
		for i := 0; i < n; i++ {
			ring[i] = (i + stride) % n
		}
		rings = append(rings, ring)
		stride += 2
	}
	return rings, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ReduceScatter decomposes a bucketed ring reduce-scatter over n members
// into transfers. Each bucket is split evenly across rings; on each ring
// every member streams (n-1)/n of its ring share to its successor.
func ReduceScatter(n int, buckets []int64, rings [][]int) []Transfer {
	return phaseTransfers(n, buckets, rings, PhaseReduceScatter)
}

func phaseTransfers(n int, buckets []int64, rings [][]int, phase Phase) []Transfer {
	if n <= 1 || len(rings) == 0 {
		return nil
	}
	r := len(rings)
	out := make([]Transfer, 0, n*r*len(buckets))
	for b, bucket := range buckets {
		if bucket <= 0 {
			continue
		}
		ringShare := bucket / int64(r)
		if ringShare == 0 {
			ringShare = 1
		}
		// Every member forwards n-1 of the n chunks of its ring share.
		edgeBytes := ringShare * int64(n-1) / int64(n)
		if edgeBytes == 0 {
			edgeBytes = 1
		}
		for ring, succ := range rings {
			for from := 0; from < n; from++ {
				out = append(out, Transfer{
					From:   from,
					To:     succ[from],
					Bytes:  edgeBytes,
					Ring:   ring,
					Bucket: b,
					Phase:  phase,
				})
			}
		}
	}
	return out
}
