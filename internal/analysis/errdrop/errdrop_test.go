package errdrop_test

import (
	"testing"

	"golang.org/x/tools/go/analysis/analysistest"

	"ocd/internal/analysis/cfgutil"
	"ocd/internal/analysis/errdrop"
)

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), errdrop.Analyzer, "a")
}

// TestErrDropInterprocedural: passing an error to a helper in another
// package whose summary proves the parameter is never read does not
// count as a use.
func TestErrDropInterprocedural(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), errdrop.Analyzer, "interproc")
}

// TestErrDropMissedWithoutSummaries proves the interproc leak is
// invisible to the purely intra-procedural pass: with summaries
// disabled the same shape produces no diagnostics (the nosum fixture
// carries no want comments).
func TestErrDropMissedWithoutSummaries(t *testing.T) {
	cfgutil.DisableSummaries = true
	defer func() { cfgutil.DisableSummaries = false }()
	analysistest.Run(t, analysistest.TestData(), errdrop.Analyzer, "interproc/nosum")
}

// TestErrDropSuggestedFixes: a bare dropped call is diagnosed whatever
// the enclosing function returns.
func TestErrDropSuggestedFixes(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), errdrop.Analyzer, "fixes")
}
