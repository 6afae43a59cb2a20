// Command stmserve runs the STM-backed network server: a pipelined
// RESP-like protocol over TCP where every command — and every MULTI/EXEC
// group — is one atomic transaction against a shared stm.Memory.
//
// Usage:
//
//	stmserve                          # serve on :7171, ST engine
//	stmserve -addr 127.0.0.1:7171     # explicit listen address
//	stmserve -engine tl2              # TL2 global-version-clock engine
//	stmserve -words 4194304 -keys 16384 # at most 65,536 keys (see -words)
//
// Try it with netcat:
//
//	$ printf 'SET k v\r\nGET k\r\nMULTI\r\nINCR n\r\nINCR n\r\nEXEC\r\n' | nc localhost 7171
//	+OK
//	$v
//	+OK
//	+QUEUED
//	+QUEUED
//	*2
//	:1
//	:2
//
// The admin surface (off by default) mounts Prometheus /metrics, expvar
// /debug/vars, and /debug/pprof on a separate listener:
//
//	stmserve -admin 127.0.0.1:7172 -obs hist
//	curl -s localhost:7172/metrics | grep stmserve_commands_total
//
// SIGQUIT dumps the flight recorder (the most recent batch and session
// events and, unless -obs is off, the engine's aborts and at hist its
// sampled commits) to stderr before the runtime's usual goroutine dump.
//
// See the stmserve package documentation for the command vocabulary.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmobs"
	"github.com/stm-go/stm/stmserve"
)

// parseObsLevel maps the -obs flag to an observability level, by the
// level's String.
func parseObsLevel(s string) (stm.ObsLevel, error) {
	for _, l := range []stm.ObsLevel{stm.ObsOff, stm.ObsCounters, stm.ObsHistograms} {
		if s == l.String() {
			return l, nil
		}
	}
	return stm.ObsOff, fmt.Errorf("-obs %q: want off, counters, or hist", s)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stmserve:", err)
		os.Exit(1)
	}
}

// observe sets the engine's observability level and, above off, registers
// the server's flight recorder as the engine's Observer, so the ring keeps
// the engine's aborts and validation failures (and, at hist, its sampled
// commits) beside the batches that caused them.
func observe(srv *stmserve.Server, lvl stm.ObsLevel) {
	cfg := stm.ObsConfig{Level: lvl}
	if lvl != stm.ObsOff {
		cfg.Observer = srv.Flight()
	}
	srv.Memory().Observe(cfg)
}

func run(args []string) error {
	fs := flag.NewFlagSet("stmserve", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", ":7171", "TCP listen address")
		engine = fs.String("engine", "st", `commit engine ("st", "tl2")`)
		words  = fs.Int("words", 1<<20, "transactional memory size in words; the keyspace's tables come out of it, so the default holds at most 16,384 keys")
		keys   = fs.Int("keys", 4096, "keyspace size hint (entries before first growth); scale -words with it")
		qcap   = fs.Int("qcap", 1024, "capacity of each named queue")
		zcap   = fs.Int("zcap", 1024, "capacity of each named priority queue")
		admin  = fs.String("admin", "", "admin HTTP listen address (/metrics, /debug/vars, /debug/pprof); empty disables")
		obs    = fs.String("obs", "counters", fmt.Sprintf(`engine observability level ("off", "counters", or "hist": also set-size histograms, and commit/abort latency of 1 attempt in %d)`, stm.DefaultSampleEvery))
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := stm.ParseEngine(*engine)
	if err != nil {
		return err
	}
	lvl, err := parseObsLevel(*obs)
	if err != nil {
		return err
	}

	srv, err := stmserve.New(stmserve.Config{
		Engine:        eng,
		MemoryWords:   *words,
		KeyspaceHint:  *keys,
		QueueCapacity: *qcap,
		PQCapacity:    *zcap,
	})
	if err != nil {
		return err
	}
	observe(srv, lvl)

	if *admin != "" {
		if err := stmobs.Publish("stmserve", srv.Memory()); err != nil {
			return err
		}
		ln, err := stmobs.ServeAdmin(*admin, srv)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "stmserve: admin on http://%s (/metrics, /debug/vars, /debug/pprof)\n", ln.Addr())
	}

	// Graceful shutdown on SIGINT/SIGTERM: close listeners, unpark
	// blocked BQPOPs, drain connections.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "stmserve: shutting down")
		srv.Close()
	}()

	// SIGQUIT: dump the flight recorder, then hand the signal back to the
	// runtime so its goroutine dump (and exit) still happen.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		<-quit
		srv.DumpFlight(os.Stderr)
		signal.Reset(syscall.SIGQUIT)
		syscall.Kill(syscall.Getpid(), syscall.SIGQUIT)
	}()

	fmt.Fprintf(os.Stderr, "stmserve: serving on %s (engine=%s, %d words)\n", *addr, eng, *words)
	if err := srv.ListenAndServe(*addr); err != stmserve.ErrServerClosed {
		return err
	}
	return nil
}
