// Package faultinject provides named, deterministic fault-injection points
// for chaos-testing the discovery engine.
//
// Library code marks interesting failure sites with Point("pkg.site"); tests
// built with the faultinject build tag arm a point with a Rule that fires a
// panic, a delay, or a cooperative cancel on a deterministic hit (the nth
// call, or every k-th call). Without the tag every function in this package
// compiles to an empty body, so the hooks cost nothing in production builds.
//
// A chaos test typically looks like:
//
//	faultinject.Reset()
//	faultinject.Arm("core.worker.candidate", faultinject.Rule{
//		Action: faultinject.ActionPanic,
//		Nth:    16, // first candidate of the second level on a 6-column table
//	})
//	res, err := core.DiscoverContext(ctx, rel, opts)
//	// assert: err is a *core.PanicError, res holds every completed level
//
// Run such tests with `go test -tags=faultinject ./...` (`make chaos`).
// docs/ROBUSTNESS.md documents the available points and the conventions for
// adding new ones.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Action selects what an armed point does when its trigger fires.
type Action int

const (
	// ActionPanic panics with a PanicValue carrying the point name,
	// exercising the engine's recover/partial-result paths.
	ActionPanic Action = iota
	// ActionDelay sleeps for Rule.Delay, widening race windows and
	// simulating slow workers.
	ActionDelay
	// ActionCancel invokes Rule.Call, typically a context.CancelFunc,
	// landing a cancellation at an exact point in the computation.
	ActionCancel
	// ActionExit terminates the process immediately with ExitCode — no
	// deferred functions, no recovery. This simulates a kill -9 / power loss
	// for crash-and-resume tests driven from scripts via ArmFromEnv; it is
	// never what an in-process test wants (use ActionPanic there).
	ActionExit
	// ActionHTTPError makes HTTPPoint answer the request with a 500 and
	// report it handled, simulating a handler-level failure without
	// touching the job state behind it.
	ActionHTTPError
	// ActionHTTPDrop makes HTTPPoint write a partial response body, flush
	// it, and abort the connection (via http.ErrAbortHandler), simulating
	// a server that dies mid-response. Clients see a truncated body.
	ActionHTTPDrop
	// ActionErr makes PointErr return an injected error (wrapping
	// ErrInjected) instead of nil, simulating an I/O failure — a disk
	// write error, ENOSPC, a read fault — without abusing panic or exit.
	// Plain Point sites ignore it.
	ActionErr
)

// ErrInjected is the sentinel wrapped into every error a fired ActionErr
// point returns; match it with errors.Is to tell an injected fault from a
// real one.
var ErrInjected = errors.New("faultinject: injected error")

// ExitCode is the status an ActionExit point terminates the process with;
// distinctive so crash-driver scripts can tell an injected kill from an
// ordinary failure.
const ExitCode = 86

// EnvVar is the environment variable ArmFromEnv reads. The value is a
// semicolon-separated list of `point:action:nth` specs, where action is
// "panic", "exit", "err", "http500", "drop" or "delay" (a sleep of
// SpecDelay), and nth is the 1-based hit that fires it — or "*" to fire
// on every hit. E.g.
//
//	OCD_FAULT="core.level.start:exit:2"
//
// kills the process when the traversal reaches the second level, and
//
//	OCD_FAULT="jobs.run.poison:panic:*"
//
// panics every attempt of the job named "poison" (the poison job of
// TestServerCrashRestart in internal/differential), and
//
//	OCD_FAULT="core.level.start:delay:2"
//
// holds the traversal for SpecDelay before its second level, so a signal
// sent once the first level is under way lands mid-job. The HTTP actions
// only fire at HTTPPoint sites; "err" only fires at PointErr sites.
const EnvVar = "OCD_FAULT"

// SpecDelay is how long a "delay" spec of EnvVar sleeps: far longer than
// a script needs to act on a progress report, so the window it opens does
// not depend on the machine's speed.
const SpecDelay = time.Second

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionPanic:
		return "panic"
	case ActionDelay:
		return "delay"
	case ActionCancel:
		return "cancel"
	case ActionExit:
		return "exit"
	case ActionHTTPError:
		return "http500"
	case ActionHTTPDrop:
		return "drop"
	case ActionErr:
		return "err"
	}
	return "unknown"
}

// ParseSpec parses one `point:action:nth` element of the EnvVar format.
// nth is a positive 1-based hit number, or "*" to fire on every hit.
func ParseSpec(spec string) (point string, r Rule, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 || parts[0] == "" {
		return "", Rule{}, fmt.Errorf("faultinject: bad spec %q, want point:action:nth", spec)
	}
	switch parts[1] {
	case "panic":
		r.Action = ActionPanic
	case "exit":
		r.Action = ActionExit
	case "http500":
		r.Action = ActionHTTPError
	case "drop":
		r.Action = ActionHTTPDrop
	case "err":
		r.Action = ActionErr
	case "delay":
		r.Action, r.Delay = ActionDelay, SpecDelay
	default:
		return "", Rule{}, fmt.Errorf("faultinject: bad action %q in %q, want panic, exit, err, http500, drop or delay", parts[1], spec)
	}
	if parts[2] == "*" {
		r.EveryK = 1
		return parts[0], r, nil
	}
	n, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil || n < 1 {
		return "", Rule{}, fmt.Errorf("faultinject: bad nth %q in %q, want a positive integer or *", parts[2], spec)
	}
	r.Nth = n
	return parts[0], r, nil
}

// splitSpecs splits the EnvVar value into its non-empty elements.
func splitSpecs(val string) []string {
	var out []string
	for _, s := range strings.Split(val, ";") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Rule configures an armed injection point. Exactly one trigger should be
// set: Nth fires on the nth hit only (1-based), EveryK fires on every k-th
// hit. Both use a per-point atomic hit counter, so firings are deterministic
// for a fixed workload even under concurrency (the counter is global across
// goroutines).
type Rule struct {
	// Action is what happens when the trigger fires.
	Action Action
	// Delay is the sleep duration for ActionDelay.
	Delay time.Duration
	// Call is invoked for ActionCancel; typically a context.CancelFunc.
	Call func()
	// Nth fires the action on exactly the nth hit of the point (1-based);
	// 0 disables this trigger.
	Nth int64
	// EveryK fires the action on every k-th hit; 0 disables this trigger.
	EveryK int64
}

// PanicValue is the value an ActionPanic point panics with; recovery sites
// can identify injected panics by type-asserting against it.
type PanicValue struct {
	// Point is the name of the injection point that fired.
	Point string
}

// String renders the panic value for error messages.
func (v PanicValue) String() string { return "fault injected at " + v.Point }
