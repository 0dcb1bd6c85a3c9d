// Command fleetd hosts the multi-tenant fleet-simulation server: one HTTP
// listener serving the JSON job API and each job's live telemetry stream
// (GET /jobs/{id}/telemetry), fronting one fleet.Server engine that shards
// flights across scenario.Batch instances.
//
// Usage:
//
//	fleetd                                  # API and telemetry on :8480
//	fleetd -http 127.0.0.1:0 -addrfile /tmp/fleetd.addr
//	fleetd -shards 4 -lanes 10240 -lite     # 10k-lane configuration
//	fleetd -journal /var/lib/fleetd         # crash-safe: jobs survive SIGKILL
//
// With -addrfile the actually-bound address is written as a shell-
// sourceable line (http_addr=...) once the listener is up — the hook
// scripts and smoke tests use this to avoid fixed ports.
//
// With -journal every accepted job is fsync'd to a write-ahead log before
// the submission is acknowledged; after a crash, restarting with the same
// directory replays the log — finished jobs keep their journaled digests,
// unfinished ones re-fly deterministically to bit-identical results.
//
// SIGINT/SIGTERM (or a client's POST /shutdown) triggers a graceful drain:
// admissions stop (/readyz flips to 503 so load balancers divert), in-flight
// flights finish within -drain, queued jobs stay journaled for the next
// start, and the process exits 0. A second signal exits immediately.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dronedse/fleet"
	"dronedse/parallelx"
)

func main() {
	httpAddr := flag.String("http", "127.0.0.1:8480", "job API listen address")
	shards := flag.Int("shards", 0, "batch shards (0 = server default)")
	lanes := flag.Int("lanes", 0, "max concurrent lanes (0 = server default)")
	maxQueue := flag.Int("maxqueue", 0, "admission queue bound; beyond it submits get 429 (0 = default 4096)")
	stride := flag.Int("stride", 0, "physics steps per engine advance (0 = server default)")
	subqueue := flag.Int("subqueue", 0, "per-subscriber queue depth in telemetry units (0 = default)")
	lite := flag.Bool("lite", false, "drop per-flight artifacts after digesting (10k+ lane runs)")
	procs := flag.Int("procs", 0, "parallelx pool size (0 = all cores)")
	addrfile := flag.String("addrfile", "", "write bound addresses to this file, shell-sourceable")
	journalDir := flag.String("journal", "", "write-ahead-log directory; empty = no durability")
	drainGrace := flag.Duration("drain", 30*time.Second, "graceful-drain budget for in-flight jobs on shutdown")
	deadline := flag.Duration("deadline", 0, "default per-job wall-clock deadline (0 = unlimited)")
	flag.Parse()

	if *procs > 0 {
		parallelx.SetPoolSize(*procs)
	}

	cfg := fleet.Config{
		Shards:        *shards,
		MaxLanes:      *lanes,
		MaxQueue:      *maxQueue,
		TickStride:    *stride,
		SubQueue:      *subqueue,
		JobDeadline:   *deadline,
		DropArtifacts: *lite,
	}
	var srv *fleet.Server
	if *journalDir != "" {
		s, rec, err := fleet.NewJournaled(cfg, *journalDir)
		if err != nil {
			fatal("journal: %v", err)
		}
		srv = s
		if len(rec.Jobs) > 0 || rec.TruncatedBytes > 0 {
			fmt.Printf("fleetd: journal replay: %d jobs (%d done, %d failed, %d re-admitted), %d torn bytes truncated\n",
				len(rec.Jobs), rec.Completed, rec.Failed, rec.Readmitted, rec.TruncatedBytes)
		}
	} else {
		srv = fleet.New(cfg)
	}

	httpLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal("http listen: %v", err)
	}
	if *addrfile != "" {
		body := fmt.Sprintf("http_addr=%s\n", httpLn.Addr())
		if err := os.WriteFile(*addrfile, []byte(body), 0o644); err != nil {
			fatal("addrfile: %v", err)
		}
	}
	fmt.Printf("fleetd: job API and telemetry on %s\n", httpLn.Addr())

	go srv.Run()
	hs := &http.Server{
		Handler: http.MaxBytesHandler(srv.Handler(), 64<<20),
		// A wedged or malicious client must not pin a serving goroutine:
		// bound every phase of the exchange. A telemetry stream extends its
		// own write deadline per frame, so it outlives WriteTimeout while
		// its subscriber keeps reading.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go hs.Serve(httpLn)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("fleetd: signal, draining")
	case <-srv.ShutdownRequested():
		fmt.Println("fleetd: shutdown requested, draining")
	}
	go func() { // second signal: skip the drain and go down now
		<-sig
		fmt.Println("fleetd: second signal, exiting immediately")
		os.Exit(1)
	}()

	rep := srv.Drain(*drainGrace)
	hs.Close() // cuts telemetry subscribers still stalled after the flush grace
	fmt.Printf("fleetd: drained: %d completed, %d failed, %d requeued, %d abandoned\n",
		rep.Completed, rep.Failed, rep.Requeued, rep.Abandoned)
	if n := rep.Lost(); n > 0 {
		// Without a journal an unclean drain loses accepted jobs; say so in
		// the exit status. A journaled drain never loses work, so it exits 0
		// even when lanes were still flying at the grace deadline.
		fatal("%d accepted jobs lost (no journal)", n)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleetd: "+format+"\n", args...)
	os.Exit(1)
}
