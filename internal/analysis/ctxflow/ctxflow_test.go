package ctxflow_test

import (
	"testing"

	"golang.org/x/tools/go/analysis/analysistest"

	"ocd/internal/analysis/ctxflow"
)

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), ctxflow.Analyzer, "c")
}

// TestCtxFlowSuggestedFixes: a silent hot loop is diagnosed in a
// function with a named ctx parameter, with or without results.
func TestCtxFlowSuggestedFixes(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), ctxflow.Analyzer, "cfix")
}
