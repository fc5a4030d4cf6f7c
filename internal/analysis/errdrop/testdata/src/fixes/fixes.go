// Fixture for bare dropped calls: the finding fires whatever the
// enclosing function returns.
package fixes

func compute() error { return nil }

func wrapped() error {
	compute() // want `error result of compute is dropped`
	return nil
}

func noFixTwoResults() (int, error) {
	compute() // want `error result of compute is dropped`
	return 0, nil
}

func noFixNoResults() {
	compute() // want `error result of compute is dropped`
}
