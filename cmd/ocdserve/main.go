// Command ocdserve runs discovery-as-a-service: a crash-tolerant HTTP job
// server over the OCDDISCOVER engine. Clients POST a CSV and get a durable
// job that survives server restarts — interrupted or crashed jobs resume
// from their last checkpoint on the next start.
//
//	ocdserve -dir /var/lib/ocd -addr :8080
//
// SIGTERM/SIGINT triggers a graceful drain: admissions stop (503 with
// Retry-After), in-flight jobs are cancelled cooperatively and checkpoint
// themselves, manifests are persisted, and the process exits 0. A SIGKILL
// at any instant is also safe — that is what the write-ahead manifests and
// level-barrier snapshots are for — it just skips the courtesy checkpoint
// of mid-level work.
//
// Logging is structured (log/slog): -log-format selects text or json,
// -log-level the threshold. Every job-scoped record carries job_id and
// attempt attrs; every HTTP access record carries the request_id echoed
// to the client in X-Request-ID.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ocd/internal/faultinject"
	"ocd/internal/jobs"
	"ocd/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		dir        = flag.String("dir", "", "data directory for job state (required)")
		maxActive  = flag.Int("max-active", 2, "jobs running concurrently")
		queueDepth = flag.Int("queue-depth", 16, "admitted-but-not-running jobs before 429")
		maxMemory  = flag.Int64("max-memory-bytes", 0, "shared soft heap budget for the whole server process (0 = none)")
		maxUpload  = flag.Int64("max-upload-bytes", 0, "largest accepted CSV (0 = derive from budget, else 1GiB)")
		maxAttempt = flag.Int("max-attempts", 3, "attempts before a crashing job is marked failed")
		backoff    = flag.Duration("backoff", 500*time.Millisecond, "base retry delay after a failed attempt")
		backoffCap = flag.Duration("backoff-cap", 30*time.Second, "retry delay ceiling")
		retryAfter = flag.Duration("retry-after", 2*time.Second, "Retry-After hint on 429/503")
		minFree    = flag.Int64("min-free-bytes", 0, "refuse submissions (503) while the data volume has fewer free bytes (0 = no floor)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "max wait for in-flight jobs to checkpoint on shutdown")
		addrFile   = flag.String("addr-file", "", "write the bound listen address here once serving (for scripts using an ephemeral :0 port)")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /metrics on this address (e.g. :6060)")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		logLevel   = flag.String("log-level", "info", "log threshold: debug, info, warn or error")
		quiet      = flag.Bool("quiet", false, "suppress operational logging")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "ocdserve: -dir is required")
		flag.Usage()
		return 2
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ocdserve: %v\n", err)
		return 2
	}
	if *quiet {
		logger = obs.NopLogger()
	}
	if err := faultinject.ArmFromEnv(); err != nil {
		logger.Error("bad OCD_FAULT spec", "error", err)
		return 2
	}

	reg := obs.NewRegistry()
	m, err := jobs.Open(jobs.Config{
		Dir:            *dir,
		MaxActive:      *maxActive,
		QueueDepth:     *queueDepth,
		MaxMemoryBytes: *maxMemory,
		MaxUploadBytes: *maxUpload,
		MaxAttempts:    *maxAttempt,
		BackoffBase:    *backoff,
		BackoffCap:     *backoffCap,
		RetryAfter:     *retryAfter,
		MinFreeBytes:   *minFree,
		Metrics:        reg,
		Logger:         logger,
	})
	if err != nil {
		logger.Error("open data directory failed", "dir", *dir, "error", err)
		return 1
	}

	if *debugAddr != "" {
		bound, stop, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			logger.Error("debug server failed to start", "addr", *debugAddr, "error", err)
			return 1
		}
		defer stop()
		logger.Info("debug server listening", "addr", bound)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)

	api := jobs.NewServer(m)
	srv := &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		return 1
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(), "dir", *dir)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Error("writing addr file failed", "path", *addrFile, "error", err)
			return 1
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Info("drain starting", "signal", sig.String(), "drain", true)
	case err := <-errCh:
		logger.Error("serve failed", "error", err)
		return 1
	}

	// Graceful drain: stop admissions and let in-flight jobs checkpoint and
	// persist as interrupted, release SSE streams (Shutdown would otherwise
	// wait on them), then stop the listener and the scheduler.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainGrace)
	defer drainCancel()
	code := 0
	if err := m.Drain(drainCtx); err != nil {
		logger.Error("drain failed", "error", err, "drain", true)
		code = 1
	}
	api.Close()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown failed", "error", err, "drain", true)
		code = 1
	}
	cancel()
	m.Wait()
	logger.Info("drained, exiting", "drain", true, "code", code)
	return code
}
