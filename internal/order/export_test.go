package order

// Algorithm2 exports the test-only reference checker to the external
// order_test package.
var Algorithm2 = algorithm2
