package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"oregami/internal/cluster"
	"oregami/internal/serve"
)

// runServe implements the `oregami serve` subcommand: a long-running
// mapping daemon (see internal/serve and docs/SERVE.md). It blocks
// until SIGINT/SIGTERM, then drains in-flight requests and exits.
func runServe(args []string, out *os.File) error {
	fs := flag.NewFlagSet("oregami serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	workers := fs.Int("workers", 0, "concurrent mapping computations (0 = GOMAXPROCS)")
	parallel := fs.Int("parallel", 0, "per-request worker budget for MAPPER's parallel hot paths (0 = GOMAXPROCS/workers; requests may lower it via options.parallelism)")
	queue := fs.Int("queue", 0, "admission queue depth beyond the workers (0 = default 64, negative = no queue)")
	cacheBytes := fs.Int64("cache-bytes", 0, "result cache budget in bytes (0 = default 64MiB, negative = cache off)")
	timeout := fs.Duration("timeout", 0, "per-request deadline ceiling (0 = default 30s)")
	stageTimeout := fs.Duration("stage-timeout", 0, "per-stage deadline ceiling (0 = no stage bound)")
	drain := fs.Duration("drain", 0, "graceful shutdown budget (0 = default 10s)")
	maxTasks := fs.Int("max-tasks", 0, "cap on the expanded task count (0 = default 1048576)")
	maxEdges := fs.Int("max-edges", 0, "cap on the expanded edge count (0 = default 4194304)")
	stateDir := fs.String("state-dir", "", "persist cached mappings in this directory and reload them at boot (empty = no persistence)")
	storeBytes := fs.Int64("store-bytes", 0, "on-disk store budget in bytes; oldest segments drop first (0 = default 256MiB)")
	nodeID := fs.String("node-id", "", "this node's id in a cluster (required with -peers)")
	peersSpec := fs.String("peers", "", "static cluster membership id=host:port,... including this node; enables consistent-hash sharding and miss proxying")
	probeInterval := fs.Duration("probe-interval", 0, "peer health probe cadence (0 = default 1s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments, got %q", fs.Args())
	}
	var peers map[string]string
	if *peersSpec != "" {
		var err error
		if peers, err = cluster.ParsePeers(*peersSpec); err != nil {
			return err
		}
		if *nodeID == "" {
			return fmt.Errorf("-peers requires -node-id")
		}
	} else if *nodeID != "" {
		return fmt.Errorf("-node-id requires -peers")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := serve.New(serve.Config{
		Addr:           *addr,
		AddrFile:       *addrFile,
		Workers:        *workers,
		Parallel:       *parallel,
		Queue:          *queue,
		CacheBytes:     *cacheBytes,
		RequestTimeout: *timeout,
		StageTimeout:   *stageTimeout,
		DrainTimeout:   *drain,
		MaxTasks:       *maxTasks,
		MaxEdges:       *maxEdges,
		StateDir:       *stateDir,
		StoreBytes:     *storeBytes,
		NodeID:         *nodeID,
		Peers:          peers,
		ProbeInterval:  *probeInterval,
	})
	if *nodeID != "" {
		fmt.Fprintf(out, "oregami serve: node %s in a %d-node cluster\n", *nodeID, len(peers))
	}
	fmt.Fprintf(out, "oregami serve: listening on %s\n", *addr)
	start := time.Now()
	if err := s.ListenAndServe(ctx); err != nil {
		return err
	}
	fmt.Fprintf(out, "oregami serve: drained and stopped after %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
