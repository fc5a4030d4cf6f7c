package faultinject

import (
	"reflect"
	"testing"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec      string
		wantPoint string
		wantRule  Rule
		wantErr   bool
	}{
		{"core.level.start:exit:2", "core.level.start", Rule{Action: ActionExit, Nth: 2}, false},
		{"checkpoint.write.rename:panic:1", "checkpoint.write.rename", Rule{Action: ActionPanic, Nth: 1}, false},
		{"", "", Rule{}, true},
		{"p:exit", "", Rule{}, true},
		{":exit:1", "", Rule{}, true},
		{"core.level.start:delay:2", "core.level.start", Rule{Action: ActionDelay, Delay: SpecDelay, Nth: 2}, false},
		{"p:delay:*", "p", Rule{Action: ActionDelay, Delay: SpecDelay, EveryK: 1}, false},
		{"p:sleep:1", "", Rule{}, true},
		{"p:exit:0", "", Rule{}, true},
		{"p:exit:-3", "", Rule{}, true},
		{"p:exit:two", "", Rule{}, true},
		{"p:exit:1:extra", "", Rule{}, true},
	}
	for _, c := range cases {
		point, rule, err := ParseSpec(c.spec)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseSpec(%q) err = %v, wantErr %v", c.spec, err, c.wantErr)
			continue
		}
		if err == nil && (point != c.wantPoint || !reflect.DeepEqual(rule, c.wantRule)) {
			t.Errorf("ParseSpec(%q) = %q, %+v, want %q, %+v", c.spec, point, rule, c.wantPoint, c.wantRule)
		}
	}
}

func TestSplitSpecs(t *testing.T) {
	got := splitSpecs(" a:exit:1 ;; b:panic:2 ")
	want := []string{"a:exit:1", "b:panic:2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splitSpecs = %v, want %v", got, want)
	}
}

func TestActionStrings(t *testing.T) {
	want := map[Action]string{
		ActionPanic: "panic", ActionDelay: "delay", ActionCancel: "cancel",
		ActionExit: "exit", Action(99): "unknown",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("Action(%d).String() = %q, want %q", a, a.String(), s)
		}
	}
}

// TestArmFromEnvUnset: with the variable unset, ArmFromEnv is a no-op in
// both build modes.
func TestArmFromEnvUnset(t *testing.T) {
	t.Setenv(EnvVar, "")
	if err := ArmFromEnv(); err != nil {
		t.Fatalf("ArmFromEnv with empty %s: %v", EnvVar, err)
	}
}
