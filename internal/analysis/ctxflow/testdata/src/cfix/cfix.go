// Fixture for silent hot loops in functions with a named context
// parameter: the finding fires whether or not the function has
// results.
package cfix

import "context"

// drain is hot and never polls.
//
// lint:hot
func drain(ctx context.Context, vals []int) {
	for _, v := range vals { // want `hot loop never polls a stop signal`
		sink(v)
	}
}

// total has results; the diagnostic fires all the same.
//
// lint:hot
func total(ctx context.Context, vals []int) int {
	t := 0
	for _, v := range vals { // want `hot loop never polls a stop signal`
		t += v
	}
	return t
}

func sink(int) {}
