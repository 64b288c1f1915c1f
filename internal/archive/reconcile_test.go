package archive

import (
	"reflect"
	"testing"
)

// TestClassifyLabels drives the pure classifier through every label: the
// manifest lists segments 3..5 with next = 6, and the directory holds one
// file of each kind a crash (or a stranger) can leave.
func TestClassifyLabels(t *testing.T) {
	segs := []StoreSegment{{Index: 3, Bytes: 100}, {Index: 4, Bytes: 100}, {Index: 5, Bytes: 100}}
	final := func(idx int, size int64) storeFile {
		return storeFile{index: idx, name: segFileName(idx, segFileSuffix), size: size}
	}
	sd := &storeDir{
		manifestTmp: true,
		salvages:    []int{7},
		finalized:   []storeFile{final(2, 100), final(3, 100), final(5, 60), final(6, 100), final(7, 100), final(9, 100)},
		tmps:        []int{7, 10, 11},
	}
	type labelled struct {
		label fileLabel
		name  string
	}
	want := []labelled{
		{labelManifestTmp, StoreManifestName + ".tmp"},
		{labelSalvage, segFileName(7, segSalvageSuffix)},
		{labelPruned, segFileName(2, segFileSuffix)},
		{labelOK, segFileName(3, segFileSuffix)},
		{labelMissing, segFileName(4, segFileSuffix)},
		{labelSizeMismatch, segFileName(5, segFileSuffix)},
		{labelAdoptable, segFileName(6, segFileSuffix)},
		{labelAdoptable, segFileName(7, segFileSuffix)},
		{labelUnexpected, segFileName(9, segFileSuffix)},
		{labelStaleTmp, segFileName(7, segTmpSuffix)},
		{labelOpenTmp, segFileName(10, segTmpSuffix)},
		{labelTmpAhead, segFileName(11, segTmpSuffix)},
	}
	var got []labelled
	for _, f := range classify(segs, 6, sd) {
		got = append(got, labelled{f.label, f.name})
		if (f.seg != nil) != (f.label == labelOK || f.label == labelMissing || f.label == labelSizeMismatch) {
			t.Errorf("%v: manifest entry attached = %v", f, f.seg != nil)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("labels:\n got %v\nwant %v", got, want)
	}

	// No usable manifest: nothing is "pruned", every finalized file is
	// offered for adoption, and a temporary at or below the highest one is
	// stale rather than a second copy of its windows.
	got = got[:0]
	for _, f := range classify(nil, 1, &storeDir{finalized: []storeFile{final(3, 1), final(4, 1)}, tmps: []int{4, 5}}) {
		got = append(got, labelled{f.label, f.name})
	}
	want = []labelled{
		{labelUnexpected, segFileName(3, segFileSuffix)},
		{labelAdoptable, segFileName(4, segFileSuffix)},
		{labelStaleTmp, segFileName(4, segTmpSuffix)},
		{labelOpenTmp, segFileName(5, segTmpSuffix)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("no-manifest labels:\n got %v\nwant %v", got, want)
	}
}
