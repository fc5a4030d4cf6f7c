//go:build !faultinject

package faultinject

import (
	"strings"
	"testing"
)

// TestDisabledIsInert pins the production contract: without the build tag,
// arming a point does nothing, hitting it does nothing, and no state is
// kept — the hooks must be free to leave in hot paths.
func TestDisabledIsInert(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the faultinject tag")
	}
	Arm("x", Rule{Action: ActionPanic, Nth: 1})
	defer Reset()
	// An armed panic point must not fire.
	Point("x")
	Point("x")
	if got := Hits("x"); got != 0 {
		t.Errorf("Hits = %d without the tag, want 0", got)
	}
	Disarm("x")
}

// TestDisabledPointErrNeverFails: without the tag PointErr always returns
// nil, even with an ActionErr rule "armed" — the checkpoint I/O path may
// call it unconditionally.
func TestDisabledPointErrNeverFails(t *testing.T) {
	Arm("y", Rule{Action: ActionErr, Nth: 1})
	defer Reset()
	if err := PointErr("y"); err != nil {
		t.Errorf("PointErr = %v without the tag, want nil", err)
	}
	if got := Hits("y"); got != 0 {
		t.Errorf("Hits = %d without the tag, want 0", got)
	}
}

// TestArmFromEnvRefusedWithoutTag: a production build must reject a set
// OCD_FAULT instead of silently ignoring it — a crash-driver script whose
// kill never fires would otherwise "pass" its chaos run vacuously.
func TestArmFromEnvRefusedWithoutTag(t *testing.T) {
	t.Setenv(EnvVar, "core.level.start:exit:2")
	err := ArmFromEnv()
	if err == nil {
		t.Fatal("ArmFromEnv must fail when OCD_FAULT is set on a no-tag build")
	}
	if !strings.Contains(err.Error(), "-tags=faultinject") {
		t.Errorf("error should point at the missing build tag: %v", err)
	}
}
