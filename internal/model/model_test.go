package model

import (
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := (Spec{Name: "bad"}).Validate(); err == nil {
		t.Error("zero spec should fail validation")
	}
	if err := Llama7B.Validate(); err != nil {
		t.Errorf("Llama7B should validate: %v", err)
	}
}

// totalParams is the total parameter count (blocks + embedding + final
// norm; the unembedding is tied).
func totalParams(s Spec) int64 {
	return int64(s.Layers)*s.ParamsPerLayer() + s.EmbeddingParams() + int64(s.Hidden)
}

func TestTotalParamsMagnitudes(t *testing.T) {
	tests := []struct {
		spec Spec
		loB  float64 // billions
		hiB  float64
	}{
		{Llama7B, 5, 9},
		{Llama13B, 11, 16},
		{Llama33B, 28, 38},
		{Llama70B, 62, 78},
	}
	for _, tt := range tests {
		t.Run(tt.spec.Name, func(t *testing.T) {
			b := float64(totalParams(tt.spec)) / 1e9
			if b < tt.loB || b > tt.hiB {
				t.Errorf("TotalParams = %.1fB, want within [%v, %v]B", b, tt.loB, tt.hiB)
			}
		})
	}
}

func TestStageLayersSumsToLayers(t *testing.T) {
	f := func(rawLayers, rawPP uint8) bool {
		layers := 1 + int(rawLayers)%96
		pp := 1 + int(rawPP)%16
		s := Spec{Name: "t", Layers: layers, Hidden: 128}
		total := 0
		for stage := 0; stage < pp; stage++ {
			total += s.StageLayers(pp, stage)
		}
		return total == layers
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStageParamsSumToTotal(t *testing.T) {
	for _, pp := range []int{1, 2, 4, 8} {
		var sum int64
		for stage := 0; stage < pp; stage++ {
			sum += Llama13B.StageParams(pp, stage)
		}
		if sum != totalParams(Llama13B) {
			t.Errorf("pp=%d: stage params sum %d != total %d", pp, sum, totalParams(Llama13B))
		}
	}
}

func TestActivationBytes(t *testing.T) {
	s := Spec{Name: "t", Layers: 2, Hidden: 1024, SeqLen: 2048, DTypeBytes: 2}
	want := int64(1) * 2048 * 1024 * 2
	if got := s.ActivationBytes(1); got != want {
		t.Errorf("ActivationBytes(1) = %d, want %d", got, want)
	}
	if got := s.ActivationBytes(4); got != 4*want {
		t.Errorf("ActivationBytes(4) = %d, want %d", got, 4*want)
	}
	if got := s.ActivationBytes(0); got != want {
		t.Errorf("ActivationBytes(0) should default to micro-batch 1, got %d", got)
	}
}

func TestStageGradBytesDividedByTP(t *testing.T) {
	full := Llama7B.StageGradBytes(4, 1, 1)
	tp8 := Llama7B.StageGradBytes(4, 1, 8)
	if full/8 != tp8 {
		t.Errorf("tp=8 grad bytes %d, want %d", tp8, full/8)
	}
}

func TestFwdFLOPsScaling(t *testing.T) {
	f1 := Llama7B.FwdFLOPs(4, 1, 1, 1)
	f2 := Llama7B.FwdFLOPs(4, 1, 1, 2)
	if f2 <= f1 || f2 != 2*f1 {
		t.Errorf("FLOPs should scale linearly with micro-batch: %v vs %v", f1, f2)
	}
	tp := Llama7B.FwdFLOPs(4, 1, 8, 1)
	if tp*8 != f1 {
		t.Errorf("FLOPs should divide by tp: %v*8 != %v", tp, f1)
	}
}

func TestBuckets(t *testing.T) {
	tests := []struct {
		name  string
		total int64
		cap   int64
		want  []int64
	}{
		{"zero", 0, 10, nil},
		{"no cap", 100, 0, []int64{100}},
		{"cap above total", 100, 1000, []int64{100}},
		{"exact", 100, 50, []int64{50, 50}},
		{"remainder", 120, 50, []int64{50, 50, 20}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Buckets(tt.total, tt.cap)
			if len(got) != len(tt.want) {
				t.Fatalf("Buckets = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("Buckets = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

// Property: buckets conserve total bytes and no bucket exceeds cap.
func TestBucketsConservation(t *testing.T) {
	f := func(rawTotal, rawCap uint32) bool {
		total := int64(rawTotal % 1e6)
		cap := int64(rawCap%1e4) + 1
		var sum int64
		for _, b := range Buckets(total, cap) {
			if b <= 0 || b > cap && cap < total {
				return false
			}
			sum += b
		}
		return sum == total || total <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
