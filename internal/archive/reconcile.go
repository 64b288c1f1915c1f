package archive

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Reconciliation: a store directory is the manifest plus whatever files a
// writer — possibly a crashed one — left beside it. classify compares the
// two once and labels every file; the three openers differ only in what
// they do with a label:
//
//	label          what it is                                OpenStore  OpenStoreRecovering     ResumeStoreWriter
//	ok             manifested, on disk at the recorded size  keep       keep                    keep
//	missing        manifested, no file                       error      drop                    error
//	size-mismatch  manifested, file of another size          error      keep, salvage at replay error
//	pruned         finalized, unmanifested, index below the  error      ignore                  remove
//	               first manifested one: retention rewrote
//	               the manifest and crashed before unlink
//	adoptable      finalized, unmanifested, index == next:   error      adopt                   adopt (strict open,
//	               finalize renamed it and crashed before                                       seq continuity checked)
//	               the manifest rewrite
//	unexpected     finalized, unmanifested, anywhere else    error      adopt                   error
//	open-tmp       .tmp at index next: the open segment      error      salvage as last segment salvage below resumeSeq
//	stale-tmp      .tmp below next: a finished salvage       error      ignore                  remove
//	               whose torn original was not yet removed
//	tmp-ahead      .tmp above next                           error      salvage as last segment error
//	salvage        .llpa.salvage: an interrupted salvage     error      ignore                  remove
//	manifest-tmp   store.llps.tmp: a torn manifest rewrite   error      ignore                  remove
//
// OpenStoreRecovering is a read-only view and touches nothing on disk.
type fileLabel int

const (
	labelOK fileLabel = iota
	labelMissing
	labelSizeMismatch
	labelPruned
	labelAdoptable
	labelUnexpected
	labelOpenTmp
	labelStaleTmp
	labelTmpAhead
	labelSalvage
	labelManifestTmp
)

var labelText = [...]string{
	labelOK:           "segment %s",
	labelMissing:      "manifested segment %s missing",
	labelSizeMismatch: "segment %s differs in size from its manifest entry",
	labelPruned:       "segment %s already pruned from the manifest",
	labelAdoptable:    "finalized segment %s missing from the manifest",
	labelUnexpected:   "unexpected segment file %s",
	labelOpenTmp:      "open segment temporary %s (crashed writer?)",
	labelStaleTmp:     "stale segment temporary %s",
	labelTmpAhead:     "segment temporary %s is past the store's open segment",
	labelSalvage:      "interrupted salvage %s",
	labelManifestTmp:  "torn manifest temporary %s",
}

// storeFile is one labelled file of a store directory (or, for missing, a
// manifest entry with no file).
type storeFile struct {
	label fileLabel
	index int
	name  string
	size  int64         // on-disk size (finalized files only)
	seg   *StoreSegment // the manifest entry (ok, missing, size-mismatch)
}

func (f storeFile) String() string {
	s := fmt.Sprintf(labelText[f.label], f.name)
	if f.label == labelSizeMismatch {
		s += fmt.Sprintf(" (%d bytes on disk, %d recorded)", f.size, f.seg.Bytes)
	}
	return s
}

// storeDir is a store directory's entries by role, each list sorted by
// segment index.
type storeDir struct {
	finalized   []storeFile // seg-*.llpa, with sizes
	tmps        []int       // seg-*.llpa.tmp
	salvages    []int       // seg-*.llpa.salvage
	manifestTmp bool
}

func segFileName(index int, suffix string) string {
	return fmt.Sprintf("%s%08d%s", segFilePrefix, index, suffix)
}

func listStoreDir(dir string) (*storeDir, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: list store: %w", err)
	}
	sd := &storeDir{}
	for _, e := range ents {
		name := e.Name()
		if name == StoreManifestName+".tmp" {
			sd.manifestTmp = true
			continue
		}
		if !strings.HasPrefix(name, segFilePrefix) {
			continue
		}
		rest, suffix, _ := strings.Cut(name[len(segFilePrefix):], ".")
		idx, err := strconv.Atoi(rest)
		if err != nil || idx < 1 {
			continue // stray file that merely resembles a segment
		}
		switch "." + suffix {
		case segSalvageSuffix:
			sd.salvages = append(sd.salvages, idx)
		case segTmpSuffix:
			sd.tmps = append(sd.tmps, idx)
		case segFileSuffix:
			info, err := e.Info()
			if err != nil {
				return nil, fmt.Errorf("archive: list store: %w", err)
			}
			sd.finalized = append(sd.finalized, storeFile{index: idx, name: name, size: info.Size()})
		}
	}
	sort.Slice(sd.finalized, func(i, j int) bool { return sd.finalized[i].index < sd.finalized[j].index })
	sort.Ints(sd.tmps)
	sort.Ints(sd.salvages)
	return sd, nil
}

// classify labels every file of a listed store directory against the
// manifest's entries and next segment index (nil and 1 when the manifest
// is unreadable). It is pure: no file is opened. The result lists write
// leftovers first, then finalized segments (manifested or not) in index
// order, then segment temporaries in index order.
func classify(segs []StoreSegment, next int, sd *storeDir) []storeFile {
	var out []storeFile
	if sd.manifestTmp {
		out = append(out, storeFile{label: labelManifestTmp, name: StoreManifestName + ".tmp"})
	}
	for _, idx := range sd.salvages {
		out = append(out, storeFile{label: labelSalvage, index: idx, name: segFileName(idx, segSalvageSuffix)})
	}
	missing := func(s *StoreSegment) storeFile {
		return storeFile{label: labelMissing, index: s.Index, name: s.File(), seg: s}
	}
	m := 0 // first manifest entry not yet matched to a file
	for _, f := range sd.finalized {
		for ; m < len(segs) && segs[m].Index < f.index; m++ {
			out = append(out, missing(&segs[m]))
		}
		switch {
		case m < len(segs) && segs[m].Index == f.index:
			f.seg = &segs[m]
			if f.size != f.seg.Bytes {
				f.label = labelSizeMismatch
			}
			m++
		case len(segs) > 0 && f.index < segs[0].Index:
			f.label = labelPruned
		case f.index == next:
			f.label = labelAdoptable
			next++
		default:
			f.label = labelUnexpected
			next = max(next, f.index+1)
		}
		out = append(out, f)
	}
	for ; m < len(segs); m++ {
		out = append(out, missing(&segs[m]))
	}
	for _, idx := range sd.tmps {
		f := storeFile{label: labelOpenTmp, index: idx, name: segFileName(idx, segTmpSuffix)}
		if idx < next {
			f.label = labelStaleTmp
		} else if idx > next {
			f.label = labelTmpAhead
		}
		out = append(out, f)
	}
	return out
}
