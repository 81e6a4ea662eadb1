package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// defaultSeed is the seed whose outcomes are pinned in digests.json.
// heldOutSeed was never used while the benchmark was written; it checks
// that a claim is not tuned to the default seed.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
	// digestCount is how many leading operations per workload are pinned.
	digestCount = 3
)

// refEntry pins one operation's outcome: the SHA-256 of its JSON
// rendering and, for study recipes, the per-run sample and interrupt
// counts, which must repeat exactly under any speed-only change.
type refEntry struct {
	SHA256     string  `json:"sha256"`
	Samples    []int64 `json:"samples,omitempty"`
	Interrupts []int   `json:"interrupts,omitempty"`
}

// digestFile is the layout of digests.json.
type digestFile struct {
	Seed int64 `json:"seed"`
	// Short and Long pin the first study-short and study-long recipes
	// (coord-chunks runs the study-short sequence); Population pins the
	// first serve-mixed population recipes.
	Short      []refEntry `json:"study_short"`
	Long       []refEntry `json:"study_long"`
	Population []refEntry `json:"serve_population"`
}

// referenceDigests returns the pinned entries for a workload, or none
// when the seed is not the default one.
func referenceDigests(workload string, seed int64) []refEntry {
	if seed != defaultSeed {
		return nil
	}
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		fatal(fmt.Errorf("digests.json: %w", err))
	}
	switch workload {
	case "study-short", "coord-chunks":
		return f.Short
	case "study-long":
		return f.Long
	default:
		return f.Population
	}
}

func (e refEntry) match(workload string, i int, sha string) error {
	if sha != e.SHA256 {
		return fmt.Errorf("%s op %d: outcome SHA-256 %s, pinned %s", workload, i, sha, e.SHA256)
	}
	return nil
}

func (e refEntry) matchCounts(workload string, i int, sha string, samples []int64, interrupts []int) error {
	if err := e.match(workload, i, sha); err != nil {
		return err
	}
	if !slices.Equal(samples, e.Samples) || !slices.Equal(interrupts, e.Interrupts) {
		return fmt.Errorf("%s op %d: sample or interrupt counts differ from the pinned ones", workload, i)
	}
	return nil
}

// recordDigests recomputes digests.json for the default seed.
func recordDigests(w io.Writer) error {
	f := digestFile{Seed: defaultSeed}
	for _, k := range []struct {
		make func() [][]byte
		into *[]refEntry
	}{
		{func() [][]byte { return newRecipeSource(defaultSeed, shortRecipe).take(digestCount) }, &f.Short},
		{func() [][]byte { return newRecipeSource(defaultSeed, longRecipe).take(digestCount) }, &f.Long},
	} {
		for _, raw := range k.make() {
			ro, err := replayStudy(nil, 0, raw)
			if err != nil {
				return err
			}
			_, _, js, err := runStudy(raw)
			if err != nil {
				return err
			}
			if string(js) != string(ro.json) {
				return fmt.Errorf("replay and Study.Run disagree; nothing pinned")
			}
			*k.into = append(*k.into, refEntry{SHA256: digest(js), Samples: ro.samples, Interrupts: ro.interrupts})
		}
	}
	for _, raw := range newServeMix(defaultSeed).pop[:digestCount] {
		_, _, js, err := runStudy(raw)
		if err != nil {
			return err
		}
		f.Population = append(f.Population, refEntry{SHA256: digest(js)})
	}
	// One entry per line keeps the file short and its diffs readable.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n  \"seed\": %d", f.Seed)
	for _, sec := range []struct {
		key     string
		entries []refEntry
	}{{"study_short", f.Short}, {"study_long", f.Long}, {"serve_population", f.Population}} {
		fmt.Fprintf(&buf, ",\n  %q: [", sec.key)
		for i, e := range sec.entries {
			raw, err := json.Marshal(e)
			if err != nil {
				return err
			}
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString("\n    ")
			buf.Write(raw)
		}
		buf.WriteString("\n  ]")
	}
	buf.WriteString("\n}\n")
	_, err := w.Write(buf.Bytes())
	return err
}
