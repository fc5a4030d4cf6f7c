//go:build faultinject

package order_test

import (
	"testing"

	"ocd/internal/attr"
	"ocd/internal/faultinject"
	"ocd/internal/order"
)

// TestWitnessedCheckFiresCheckPoint: the order.checker.check fault point
// fires on a check the swap-witness ring answers, as on any other check,
// so chaos tests that count or break checks see every one.
func TestWitnessedCheckFiresCheckPoint(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	h := order.NewChecker(swapTable(), 0).NewHandle(4)
	x, y := attr.NewList(0), attr.NewList(1)
	faultinject.Arm("order.checker.check", faultinject.Rule{Action: faultinject.ActionPanic, Nth: 2})
	if h.CheckOCD(x, y) {
		t.Fatal("A ~ B holds, want the swap of rows 0 and 1")
	}
	defer func() {
		v, ok := recover().(faultinject.PanicValue)
		if !ok || v.Point != "order.checker.check" {
			t.Fatalf("witnessed check: recovered %v, want the order.checker.check fault", v)
		}
	}()
	h.CheckOCD(attr.NewList(0, 2), y)
	t.Fatal("the witnessed check did not reach order.checker.check")
}
