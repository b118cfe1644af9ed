package main

import (
	"context"
	"flag"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynaspam/internal/jobs"
	"dynaspam/internal/telemetry"
)

// shutdownGrace bounds how long graceful shutdown waits for in-flight
// HTTP requests (and telemetry scrapes) to drain. Running jobs are then
// cancelled without a terminal marker, so a restart resumes them.
const shutdownGrace = 5 * time.Second

// runServe is the long-running mode: the telemetry plane plus the
// multi-tenant jobs API (POST /jobs and friends). With -state, submissions
// and per-cell results are persisted so a killed server resumes
// interrupted jobs at their first unfinished cell on restart.
func runServe(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynaspam serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address for the telemetry plane and jobs API")
		parallelism = fs.Int("j", 0, "parallel simulations per running job (0 = GOMAXPROCS)")
		maxJobs     = fs.Int("max-jobs", 1, "jobs running concurrently; further submissions queue FIFO")
		stateDir    = fs.String("state", "", "state directory for durable jobs (empty = ephemeral: jobs do not survive restarts)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log, runID := newRunLogger(stderr)

	tel := telemetry.NewServer(runID, log)
	plane, err := jobs.New(jobs.Config{
		Dir:         *stateDir,
		MaxJobs:     *maxJobs,
		Parallelism: *parallelism,
		Aggregator:  tel.Aggregator(),
		Tracker:     tel.Tracker(),
		Log:         log,
		RunID:       runID,
	})
	if err != nil {
		log.Error("job plane init failed", "err", err)
		return 1
	}
	plane.Mount(tel)
	if *stateDir == "" {
		log.Warn("no -state directory: jobs are ephemeral and will not survive a restart")
	}
	if _, err := tel.Start(*addr); err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	<-ctx.Done()

	log.Info("shutting down")
	shCtx, shCancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer shCancel()
	telErr := tel.Shutdown(shCtx)
	planeErr := plane.Shutdown(shCtx)
	if telErr != nil || planeErr != nil {
		log.Error("shutdown failed", "telemetry_err", telErr, "jobs_err", planeErr)
		return 1
	}
	return 0
}
