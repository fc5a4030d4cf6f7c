// Fixture for a returned plain-ident accumulator of ordered elements in
// a file that does not import slices.
package mdfix

import (
	"fmt"
)

// Keys escapes a map-ordered slice to the caller.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `out is appended in map-iteration order and escapes to the caller`
	}
	return out
}

// Count never escapes order and is not flagged.
func Count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	fmt.Println(n)
	return n
}
