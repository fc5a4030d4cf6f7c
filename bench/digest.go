package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ocd"
	"ocd/internal/jobs"
)

// outcome is what every op must reproduce exactly. Dependency discovery
// does not depend on row order, so it is the same for every seed.
type outcome struct {
	// Digest hashes the OCDs, ODs, constant columns, equivalence groups
	// and expanded-OD count, each list sorted first.
	Digest     string `json:"digest"`
	Rows       int    `json:"rows"`
	Cols       int    `json:"cols"`
	OCDs       int    `json:"ocds"`
	ODs        int    `json:"ods"`
	Checks     int64  `json:"checks"`
	Candidates int64  `json:"candidates"`
	Levels     int    `json:"levels"`
	Truncated  bool   `json:"truncated,omitempty"`
}

func digest(ocds []ocd.OCD, ods []ocd.OD, constants []string, groups [][]string, expanded int64) string {
	var lines []string
	for _, d := range ocds {
		lines = append(lines, "ocd "+d.String())
	}
	for _, d := range ods {
		lines = append(lines, "od "+d.String())
	}
	for _, c := range constants {
		lines = append(lines, "constant "+c)
	}
	for _, g := range groups {
		lines = append(lines, "group ["+strings.Join(g, ",")+"]")
	}
	sort.Strings(lines)
	lines = append(lines, "expanded "+strconv.FormatInt(expanded, 10))
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

func outcomeOf(t *ocd.Table, res *ocd.Result) outcome {
	return outcome{
		Digest:     digest(res.OCDs, res.ODs, res.ConstantColumns, res.EquivalentGroups, res.CountODs()),
		Rows:       t.NumRows(),
		Cols:       t.NumCols(),
		OCDs:       len(res.OCDs),
		ODs:        len(res.ODs),
		Checks:     res.Stats.Checks,
		Candidates: res.Stats.Candidates,
		Levels:     res.Stats.Levels,
		Truncated:  res.Stats.Truncated,
	}
}

// outcomeOfDoc reads a job's result document with its volatile fields
// (id, timings, attempts, checkpoint and spill counts) left out.
func outcomeOfDoc(doc *jobs.ResultDoc) outcome {
	return outcome{
		Digest:     digest(doc.OCDs, doc.ODs, doc.ConstantColumns, doc.EquivalentGroups, doc.ExpandedODCount),
		Rows:       doc.Rows,
		Cols:       doc.Cols,
		OCDs:       len(doc.OCDs),
		ODs:        len(doc.ODs),
		Checks:     doc.Checks,
		Candidates: doc.Candidates,
		Levels:     doc.Levels,
		Truncated:  doc.Truncated,
	}
}

// expectedJSON holds the outcome of every workload's full-scale dataset.
// Regenerate it with -write-expected after a deliberate change to a
// dataset generator.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]outcome, error) {
	var m map[string]outcome
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// writeExpected computes every workload's outcome from its canonical row
// order through the library and writes them to path.
func writeExpected(path string, ws []workload) error {
	m := make(map[string]outcome, len(ws))
	for _, w := range ws {
		o, err := libraryOutcome(w.gen())
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		m[w.name] = o
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
