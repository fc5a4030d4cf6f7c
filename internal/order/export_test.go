package order

// Algorithm2 exports the test-only reference checker, and ListsUpTo the
// list enumerator, to the external order_test package.
var (
	Algorithm2 = algorithm2
	ListsUpTo  = listsUpTo
)
