package telemetry

import (
	"flag"
	"fmt"
	"net"
)

// Flags carries the telemetry command-line options shared by the
// commands: -metrics-addr for the live HTTP endpoint, -timeseries for
// the JSONL sidecar. Samplers run at the library cadence (Config.Every).
type Flags struct {
	MetricsAddr string
	SidecarPath string
}

// AddFlags registers -metrics-addr and -timeseries on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live telemetry on this `address` (/metrics Prometheus text, /telemetry.json)")
	fs.StringVar(&f.SidecarPath, "timeseries", "", "journal each run's time series to this JSONL `file` (schema "+Schema+")")
	return f
}

// Enabled reports whether any telemetry sink was requested.
func (f *Flags) Enabled() bool {
	return f.MetricsAddr != "" || f.SidecarPath != ""
}

// Options is the assembled telemetry configuration the experiment layer
// (core.Options.Telemetry) consumes: where live state is served, where
// series are journaled, and how samplers are tuned. Either sink may be
// nil.
type Options struct {
	Server  *Server
	Sidecar *Sidecar
	Config  Config
}

// Open materializes the sinks the flags describe, or nil when telemetry
// is off. resume reopens an existing sidecar and dedups already-recorded
// runs (pass the -resume flag's value). The returned stop function
// closes the listener and syncs the sidecar; call it once on the exit
// path. The returned address is the endpoint actually bound ("" when
// -metrics-addr is off) — report it so ":0" users can find the port.
func (f *Flags) Open(resume bool) (opts *Options, addr string, stop func() error, err error) {
	if !f.Enabled() {
		return nil, "", func() error { return nil }, nil
	}
	opts = &Options{}
	var ln net.Listener
	if f.MetricsAddr != "" {
		opts.Server = NewServer()
		ln, err = opts.Server.Serve(f.MetricsAddr)
		if err != nil {
			return nil, "", nil, err
		}
		addr = ln.Addr().String()
	}
	if f.SidecarPath != "" {
		opts.Sidecar, err = OpenSidecar(f.SidecarPath, resume)
		if err != nil {
			if ln != nil {
				ln.Close()
			}
			return nil, "", nil, err
		}
	}
	stop = func() error {
		var firstErr error
		if ln != nil {
			firstErr = ln.Close()
		}
		if opts.Sidecar != nil {
			if err := opts.Sidecar.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return fmt.Errorf("telemetry: shutting down: %w", firstErr)
		}
		return nil
	}
	return opts, addr, stop, nil
}
