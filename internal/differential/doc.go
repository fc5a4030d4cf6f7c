// Package differential holds the execution-mode differential harness. It
// has no library code: its tests, built only with the faultinject tag,
// run one input in every execution mode and require the same result.
// Run them with `go test -count=1 -tags=faultinject ./internal/differential`
// (or `make chaos`); -count=1 because they build and run the commands,
// whose sources go test's cache does not track.
//
// A mode is the library (ocd.Table.Discover) at a worker count, with the
// memory budget off, on, or tripped, optionally stopped at a barrier and
// resumed from its snapshot; ocddiscover killed at an OCD_FAULT point and
// resumed; or an ocdserve job, optionally killed mid-job and restarted on
// the same data directory. The tests also carry the crash, drain and
// observability assertions of the job server and of ocddiscover's
// checkpoint contract (docs/ROBUSTNESS.md).
//
// CHAOS_ARTIFACT_DIR names a directory for the server logs, the Prometheus
// scrape, the trace and the event-stream transcripts, kept after the run;
// by default they go to per-test temporary directories.
package differential
