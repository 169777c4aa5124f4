// Package cli declares, once, the command-line flags that several binaries
// share with one meaning, and parses them into typed values. A binary
// registers the groups it exposes, calls Parse after flag parsing, and
// reports any error Parse or Serve returns as a usage error (exit 1).
package cli

import (
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"time"

	"hmccoal/internal/dsweep"
	"hmccoal/internal/fault"
	"hmccoal/internal/frontend"
	"hmccoal/internal/membackend"
	"hmccoal/internal/netchaos"
	"hmccoal/internal/profiling"
)

// Group selects a set of shared flags.
type Group uint

const (
	Backend   Group = 1 << iota // -backend
	Frontend                    // -frontend and -sched, defaulting to two-phase and frfcfs
	Faults                      // -faults: link fault injection, HMC backend only
	Workers                     // -workers: the worker pool size
	Batch                       // -batch: the lockstep batch width
	Profiling                   // -cpuprofile, -memprofile and -exectrace
	// Serve is the distributed-sweep coordinator host: -serve, -lease,
	// -token, -max-attempts, -chaos, -tls-cert and -tls-key.
	Serve
)

// Flags holds one binary's shared flags. Register fills the raw values
// during flag parsing; Parse turns them into the exported typed fields.
// A group the binary did not register keeps its zero value, which parses
// to the default.
type Flags struct {
	Backend  membackend.Kind
	Frontend frontend.Kind
	Sched    frontend.SchedKind
	Faults   fault.Config
	Workers  int
	Batch    int

	groups                            Group
	backend, frontend, sched, faults  string
	cpuProfile, memProfile, execTrace string

	serve, token, chaos, tlsCert, tlsKey string
	lease                                time.Duration
	maxAttempts                          int
	chaosCfg                             netchaos.Config
}

// Register declares the flags of groups on fs.
func Register(fs *flag.FlagSet, groups Group) *Flags {
	f := &Flags{groups: groups}
	if groups&Backend != 0 {
		fs.StringVar(&f.backend, "backend", "hmc", "memory backend: hmc, ddr or ideal")
	}
	if groups&Frontend != 0 {
		fs.StringVar(&f.frontend, "frontend", "two-phase", "coalescing front-end between the LLC and the backend: two-phase or warp")
		fs.StringVar(&f.sched, "sched", "frfcfs", "issue policy inside the front-end: frfcfs or hetero")
	}
	if groups&Faults != 0 {
		fs.StringVar(&f.faults, "faults", "", "link fault injection (hmc backend only), e.g. seed=1,ber=1e-6[,drop=1e-7][,retries=3]")
	}
	if groups&Workers != 0 {
		fs.IntVar(&f.Workers, "workers", 0, "worker pool size (0 = all cores, 1 = serial)")
	}
	if groups&Batch != 0 {
		fs.IntVar(&f.Batch, "batch", 0, "sweep jobs run together per worker, simulations in lockstep (0/1 = one at a time)")
	}
	if groups&Profiling != 0 {
		fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile to this file on exit")
		fs.StringVar(&f.execTrace, "exectrace", "", "write a runtime execution trace to this file")
	}
	if groups&Serve != 0 {
		fs.StringVar(&f.serve, "serve", "", "coordinate distributed sweeps: listen on this TCP address and ship sweep job groups to hmcsweepd workers instead of simulating locally")
		fs.DurationVar(&f.lease, "lease", dsweep.DefaultLease, "with -serve: a worker silent this long after taking a job group is presumed dead and the group is requeued")
		fs.StringVar(&f.token, "token", "", "with -serve: shared secret workers must present in their handshake (empty accepts any worker)")
		fs.IntVar(&f.maxAttempts, "max-attempts", dsweep.DefaultMaxAttempts, "with -serve: workers that may be lost on one job group before the group fails")
		fs.StringVar(&f.chaos, "chaos", "", "with -serve: deterministic network-fault injection on worker connections, e.g. seed=1,reset=0.02,delay=2ms (testing)")
		fs.StringVar(&f.tlsCert, "tls-cert", "", "with -serve: PEM certificate; worker connections are TLS-wrapped (requires -tls-key)")
		fs.StringVar(&f.tlsKey, "tls-key", "", "with -serve: PEM private key for -tls-cert")
	}
	return f
}

// Parse validates the registered flags and fills the typed fields. Call it
// after the flag set has parsed the command line.
func (f *Flags) Parse() error {
	if f.Workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0, got %d", f.Workers)
	}
	if f.Batch < 0 {
		return fmt.Errorf("-batch must be ≥ 0, got %d", f.Batch)
	}
	var err error
	if f.Backend, err = membackend.ParseKind(f.backend); err != nil {
		return err
	}
	if f.Frontend, err = frontend.ParseKind(f.frontend); err != nil {
		return err
	}
	if f.Sched, err = frontend.ParseSched(f.sched); err != nil {
		return err
	}
	if f.Faults, err = fault.ParseFlag(f.faults); err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	if f.Faults.Enabled() && f.Backend != membackend.KindHMC {
		return fmt.Errorf("fault injection is HMC-only; -backend must be hmc, not %v", f.Backend)
	}
	if f.groups&Serve == 0 {
		return nil
	}
	if f.lease <= 0 {
		return fmt.Errorf("-lease must be positive, got %v", f.lease)
	}
	if f.maxAttempts <= 0 {
		return fmt.Errorf("-max-attempts must be positive, got %d", f.maxAttempts)
	}
	if f.serve == "" {
		if f.token != "" {
			return errors.New("-token only applies with -serve")
		}
		if f.chaos != "" {
			return errors.New("-chaos only applies with -serve")
		}
		if f.tlsCert != "" || f.tlsKey != "" {
			return errors.New("-tls-cert/-tls-key only apply with -serve")
		}
	}
	if (f.tlsCert == "") != (f.tlsKey == "") {
		return errors.New("-tls-cert and -tls-key must be given together")
	}
	if f.chaosCfg, err = netchaos.ParseFlag(f.chaos); err != nil {
		return fmt.Errorf("-chaos: %w", err)
	}
	return nil
}

// StartProfiling starts the collectors whose -cpuprofile, -memprofile and
// -exectrace paths were given and returns the function that stops them.
func (f *Flags) StartProfiling() (stop func(), err error) {
	return profiling.Start(f.cpuProfile, f.memProfile, f.execTrace)
}

// Serve starts the distributed-sweep coordinator -serve asks for, or
// returns nil without -serve. The listener is wrapped first in -chaos
// fault injection and then in -tls-cert TLS, so encryption sits above the
// injected faults exactly as it sits above real network faults. The bound
// address is announced on w as "<bin>: coordinating sweeps on <addr>"
// (":0" binds an ephemeral port, so scripts parse the line), and the
// coordinator's chatter (worker connects, losses, requeues) goes to w
// under the same prefix.
func (f *Flags) Serve(bin string, w io.Writer) (*dsweep.Coordinator, error) {
	if f.serve == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", f.serve)
	if err != nil {
		return nil, fmt.Errorf("-serve: %w", err)
	}
	if f.chaosCfg.Enabled() {
		inj, err := netchaos.New(f.chaosCfg)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("-chaos: %w", err)
		}
		ln = inj.Listen(ln)
		fmt.Fprintf(w, "%s: chaos injection armed on worker connections (seed %d)\n", bin, f.chaosCfg.Seed)
	}
	if f.tlsCert != "" {
		cfg, err := dsweep.ServerTLS(f.tlsCert, f.tlsKey)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("-tls-cert: %w", err)
		}
		ln = tls.NewListener(ln, cfg)
		fmt.Fprintf(w, "%s: TLS enabled on worker connections\n", bin)
	}
	coord := dsweep.NewCoordinator(dsweep.Options{
		Lease:       f.lease,
		MaxAttempts: f.maxAttempts,
		Token:       f.token,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, bin+": "+format+"\n", args...)
		},
	})
	go coord.Serve(ln)
	fmt.Fprintf(w, "%s: coordinating sweeps on %s\n", bin, ln.Addr())
	return coord, nil
}

// Given reports whether the command line set the named flag, so a binary
// can reject a flag that does not apply to the mode it runs in.
func Given(fs *flag.FlagSet, name string) bool {
	given := false
	fs.Visit(func(fl *flag.Flag) { given = given || fl.Name == name })
	return given
}
