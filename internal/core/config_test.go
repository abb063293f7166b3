package core

import "testing"

// Every label of the four option sets with and without each refinement
// parses and prints back unchanged; anything else is rejected, including
// names of no option set and refinement suffixes out of order or
// repeated.
func TestConfigLabels(t *testing.T) {
	for _, base := range []string{"instr", "instr+func", "instr+loop", "all"} {
		for _, mhp := range []bool{false, true} {
			for _, precision := range []bool{false, true} {
				label := base
				if mhp {
					label += "+mhp"
				}
				if precision {
					label += "+precision"
				}
				c, ok := ParseConfig(label)
				if want := (Config{Base: base, MHP: mhp, Precision: precision}); !ok || c != want {
					t.Errorf("ParseConfig(%q) = %+v, %v; want %+v, true", label, c, ok, want)
				}
				if got := c.String(); got != label {
					t.Errorf("ParseConfig(%q).String() = %q", label, got)
				}
			}
		}
	}
	for _, label := range []string{"", "naive", "func", "loop", "all+precision+mhp", "all+mhp+mhp", "+mhp"} {
		if c, ok := ParseConfig(label); ok {
			t.Errorf("ParseConfig(%q) = %+v, want rejection", label, c)
		}
	}
}

// InstrumentAs instruments the report its config selects and records the
// config, which labels the certificate.
func TestInstrumentAs(t *testing.T) {
	p, err := Load("barrier", barrierPhases)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{{Base: "instr"}, {Base: "all", MHP: true}, {Base: "all", MHP: true, Precision: true}} {
		ip, err := p.InstrumentAs(c, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if ip.Config != c || ip.Rep != p.Report(c.MHP, c.Precision) {
			t.Errorf("%s: artifact records config %s and another report", c, ip.Config)
		}
		cert, _, err := ip.Certify()
		if err != nil {
			t.Fatalf("%s: certify: %v", c, err)
		}
		if cert.Config != c.String() || !cert.OK {
			t.Errorf("%s: certificate %q, ok=%v", c, cert.Config, cert.OK)
		}
	}
	if _, err := p.InstrumentAs(Config{Base: "naive"}, nil, nil); err == nil {
		t.Error("InstrumentAs accepted an unknown option set")
	}
}
