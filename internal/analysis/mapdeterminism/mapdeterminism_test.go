package mapdeterminism_test

import (
	"testing"

	"golang.org/x/tools/go/analysis/analysistest"

	"ocd/internal/analysis/cfgutil"
	"ocd/internal/analysis/mapdeterminism"
)

func TestMapDeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), mapdeterminism.Analyzer, "b")
}

// TestMapDeterminismInterprocedural: the emit, taint and sort
// judgments all cross a package boundary through cfgutil summaries.
func TestMapDeterminismInterprocedural(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), mapdeterminism.Analyzer, "mdinter")
}

// TestMapDeterminismMissedWithoutSummaries proves the mdinter findings
// are invisible to the purely intra-procedural pass: with summaries
// disabled the same shapes produce no diagnostics.
func TestMapDeterminismMissedWithoutSummaries(t *testing.T) {
	cfgutil.DisableSummaries = true
	defer func() { cfgutil.DisableSummaries = false }()
	analysistest.Run(t, analysistest.TestData(), mapdeterminism.Analyzer, "mdinter/nosum")
}

// TestMapDeterminismSuggestedFixes: a returned accumulator is diagnosed
// in a file without a slices import.
func TestMapDeterminismSuggestedFixes(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), mapdeterminism.Analyzer, "mdfix")
}
