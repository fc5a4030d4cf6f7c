package core

import (
	"testing"

	"ocd/internal/attr"
	"ocd/internal/fastod"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// TestSharedContextOutsideSearchSpace pins the disjoint-side scope of
// the search that README, doc.go and DESIGN.md state (see the errata on
// the paper, arXiv 1905.02010). On these rows AB → AC holds, and FASTOD's
// set-based contexts find the OC {A}: B ~ C behind it, but OCDDISCOVER
// only searches candidates with disjoint sides: every level-2 pair fails,
// so it reports neither an OCD nor an OD. When the search gains a context
// dimension this test must flip.
func TestSharedContextOutsideSearchSpace(t *testing.T) {
	r := relation.FromInts("shared-context", []string{"A", "B", "C"}, [][]int{
		{0, 1, 5}, {0, 2, 6}, {1, 1, 1}, {1, 2, 2},
	})

	for _, workers := range []int{1, 2} {
		res := Discover(r, Options{Workers: workers})
		if res.Stats.Truncated {
			t.Fatalf("workers=%d: run truncated (%s)", workers, res.Stats.Reason)
		}
		if len(res.OCDs) != 0 || len(res.ODs) != 0 {
			t.Errorf("workers=%d: got OCDs %v, ODs %v; want none (shared-context ODs are outside the search space)",
				workers, res.OCDs, res.ODs)
		}
	}

	if !order.NewChecker(r, 0).CheckOD(ids(0, 1), ids(0, 2)) {
		t.Errorf("AB → AC does not hold; the relation no longer shows the gap")
	}

	found := false
	for _, oc := range fastod.Discover(r, fastod.Options{}).OCs {
		if oc.Context.Equal(attr.NewSet(0)) && oc.A == 1 && oc.B == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("fastod does not report {A}: B ~ C")
	}
}
