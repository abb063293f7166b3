package core

import (
	"fmt"
	"strings"

	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/profile"
)

// Config names an instrumentation configuration: one option set of
// Figure 5, applied to the race report the MHP refinement and the
// precision layer leave. Its label is the base name, then "+mhp", then
// "+precision" — "instr", "all+mhp", "all+mhp+precision".
type Config struct {
	// Base is an instrument.OptionsFor name: "instr", "instr+func",
	// "instr+loop" or "all".
	Base string
	// MHP instruments the MHP-refined report instead of the full RELAY
	// report.
	MHP bool
	// Precision applies the static precision layer to that report.
	Precision bool
}

// ParseConfig parses a label as String prints it. It reports false for
// an unknown base name and for suffixes out of order or repeated
// ("all+precision+mhp", "all+mhp+mhp").
func ParseConfig(label string) (Config, bool) {
	var c Config
	label, c.Precision = strings.CutSuffix(label, "+precision")
	c.Base, c.MHP = strings.CutSuffix(label, "+mhp")
	_, ok := c.Options()
	return c, ok
}

// String is the configuration's label, the inverse of ParseConfig.
func (c Config) String() string {
	s := c.Base
	if c.MHP {
		s += "+mhp"
	}
	if c.Precision {
		s += "+precision"
	}
	return s
}

// Options returns the instrumenter options Base names; it reports false
// for an unknown base name.
func (c Config) Options() (instrument.Options, bool) {
	return instrument.OptionsFor(c.Base)
}

// InstrumentAs instruments the race report c selects (Program.Report)
// with the options c names, tracing the instrumenter's stages on tr (nil
// turns tracing off). The artifact records c, so its certificate carries
// c's label.
func (p *Program) InstrumentAs(c Config, conc *profile.Concurrency, tr *obs.Tracer) (*Instrumented, error) {
	opts, ok := c.Options()
	if !ok {
		return nil, fmt.Errorf("unknown config %q", c)
	}
	opts.Tracer = tr
	ip, err := p.InstrumentWith(p.Report(c.MHP, c.Precision), conc, opts)
	if err != nil {
		return nil, err
	}
	ip.Config = c
	return ip, nil
}
