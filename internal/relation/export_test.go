package relation

import "testing"

// Test hooks for the external test package, which can import datagen.

// ReferenceReadCSV is referenceReadCSV.
func ReferenceReadCSV(data, name string, opts CSVOptions) (*Relation, error) {
	return referenceReadCSV(data, name, opts)
}

// AssertSameRelation is assertSameRelation.
func AssertSameRelation(t *testing.T, want, got *Relation) {
	t.Helper()
	assertSameRelation(t, want, got)
}
