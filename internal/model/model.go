// Package model computes the communication-relevant sizes of transformer
// LLM training: parameter counts, per-microbatch activation message sizes
// (what pipeline parallelism sends between stages), per-stage gradient and
// parameter bytes (what data parallelism reduces and gathers), and the
// DeepSpeed-style gradient bucketing that shapes DP flow sizes.
//
// The simulator does not execute any math — it only needs byte counts and
// FLOP counts with the right relative magnitudes, because the LLMPrism
// analysis consumes nothing but flow sizes and timings.
package model

import "fmt"

// Spec describes a dense decoder-only transformer.
type Spec struct {
	// Name is a human-readable label, e.g. "llama-13b".
	Name string `json:"name"`
	// Layers is the number of transformer blocks.
	Layers int `json:"layers"`
	// Hidden is the model width.
	Hidden int `json:"hidden"`
	// Vocab is the vocabulary size. Default 32000.
	Vocab int `json:"vocab"`
	// SeqLen is the training sequence length. Default 4096.
	SeqLen int `json:"seq_len"`
	// DTypeBytes is the bytes per element of activations/grads/params on
	// the wire. Default 2 (bf16).
	DTypeBytes int `json:"dtype_bytes"`
}

func (s Spec) withDefaults() Spec {
	if s.Vocab <= 0 {
		s.Vocab = 32000
	}
	if s.SeqLen <= 0 {
		s.SeqLen = 4096
	}
	if s.DTypeBytes <= 0 {
		s.DTypeBytes = 2
	}
	return s
}

// Validate checks that the spec is usable.
func (s Spec) Validate() error {
	if s.Layers <= 0 || s.Hidden <= 0 {
		return fmt.Errorf("model: %q needs positive Layers and Hidden, got %d/%d", s.Name, s.Layers, s.Hidden)
	}
	return nil
}

// ParamsPerLayer returns the parameter count of one transformer block:
// 4h² attention + 8h² MLP + biases/norms ≈ 12h² + 13h.
func (s Spec) ParamsPerLayer() int64 {
	h := int64(s.Hidden)
	return 12*h*h + 13*h
}

// EmbeddingParams returns the token embedding parameter count.
func (s Spec) EmbeddingParams() int64 {
	s = s.withDefaults()
	return int64(s.Vocab) * int64(s.Hidden)
}

// StageLayers returns how many transformer blocks stage (0-based) holds
// when the model is split into ppStages pipeline stages. Remainder layers
// go to the earliest stages.
func (s Spec) StageLayers(ppStages, stage int) int {
	if ppStages <= 0 {
		ppStages = 1
	}
	base := s.Layers / ppStages
	if stage < s.Layers%ppStages {
		return base + 1
	}
	return base
}

// StageParams returns the parameter count held by one pipeline stage.
// The embedding lives on the first stage; the final norm on the last.
func (s Spec) StageParams(ppStages, stage int) int64 {
	s = s.withDefaults()
	params := int64(s.StageLayers(ppStages, stage)) * s.ParamsPerLayer()
	if stage == 0 {
		params += s.EmbeddingParams()
	}
	if stage == ppStages-1 {
		params += int64(s.Hidden)
	}
	return params
}

// ActivationBytes returns the bytes of the activation tensor sent between
// adjacent pipeline stages for one micro-batch of the given size, per
// tensor-parallel rank (Megatron sends the full hidden activation from each
// TP rank to its peer on the next stage, so TP does not divide this).
func (s Spec) ActivationBytes(microBatch int) int64 {
	s = s.withDefaults()
	if microBatch <= 0 {
		microBatch = 1
	}
	return int64(microBatch) * int64(s.SeqLen) * int64(s.Hidden) * int64(s.DTypeBytes)
}

// StageGradBytes returns the gradient bytes one (pp stage, tp rank) shard
// contributes to data-parallel reduction: stage params / tp, times dtype.
func (s Spec) StageGradBytes(ppStages, stage, tp int) int64 {
	s = s.withDefaults()
	if tp <= 0 {
		tp = 1
	}
	return s.StageParams(ppStages, stage) / int64(tp) * int64(s.DTypeBytes)
}

// FwdFLOPs returns the forward FLOPs of one micro-batch on one pipeline
// stage per tensor-parallel rank (≈ 2 · params · tokens / tp).
func (s Spec) FwdFLOPs(ppStages, stage, tp, microBatch int) float64 {
	s = s.withDefaults()
	if tp <= 0 {
		tp = 1
	}
	tokens := float64(microBatch) * float64(s.SeqLen)
	return 2 * float64(s.StageParams(ppStages, stage)) * tokens / float64(tp)
}

// Buckets splits total into DeepSpeed-style gradient buckets of at most cap
// bytes each: full buckets first, remainder last. cap <= 0 yields one
// bucket. The distinct bucket sizes (cap and the remainder) are what give
// DP flows their multiple distinct sizes in collected flow records.
func Buckets(total, cap int64) []int64 {
	if total <= 0 {
		return nil
	}
	if cap <= 0 || cap >= total {
		return []int64{total}
	}
	n := total / cap
	buckets := make([]int64, 0, n+1)
	for i := int64(0); i < n; i++ {
		buckets = append(buckets, cap)
	}
	if rem := total - n*cap; rem > 0 {
		buckets = append(buckets, rem)
	}
	return buckets
}

// Predefined model specs used by the experiments (sizes follow the LLaMA
// family, which the paper names as a workload on Platform-X).
var (
	Llama7B  = Spec{Name: "llama-7b", Layers: 32, Hidden: 4096}
	Llama13B = Spec{Name: "llama-13b", Layers: 40, Hidden: 5120}
	Llama33B = Spec{Name: "llama-33b", Layers: 60, Hidden: 6656}
	Llama70B = Spec{Name: "llama-70b", Layers: 80, Hidden: 8192}
)
