// Command scenariolint validates and canonicalizes production-traffic
// scenario documents (hypertrio-scenario/1). It is the gate behind the
// committed scenarios/ directory: every file must decode strictly,
// survive compilation, and be byte-identical to its canonical
// encoding, so reviews diff semantics instead of formatting.
//
// Usage:
//
//	scenariolint scenarios/*.json          validate and summarize
//	scenariolint -check scenarios/*.json   fail if any file is not canonical
//	scenariolint -w scenarios/*.json       rewrite files in canonical form
//
// Exit status: 0 on success, 1 if any file is invalid or (with -check)
// not canonically encoded, 2 on flag misuse.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"hypertrio/internal/scenario"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenariolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	write := fs.Bool("w", false, "rewrite each file in canonical encoding")
	check := fs.Bool("check", false, "fail (exit 1) if a file is not canonically encoded")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: scenariolint [-w | -check] FILE...\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *write && *check {
		fmt.Fprintln(stderr, "scenariolint: -w and -check are mutually exclusive")
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	bad := 0
	for _, path := range fs.Args() {
		if err := lintFile(path, *write, *check, stdout); err != nil {
			fmt.Fprintf(stderr, "scenariolint: %s: %v\n", path, err)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "scenariolint: %d of %d files failed\n", bad, fs.NArg())
		return 1
	}
	return 0
}

// lintFile decodes one scenario strictly, compiles it, and reports its
// shape; with -w it rewrites the file canonically, with -check it
// errors when the on-disk bytes differ from the canonical encoding.
func lintFile(path string, write, check bool, out io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s, err := scenario.ReadScenario(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	comp, err := s.Compile()
	if err != nil {
		return fmt.Errorf("compiling: %w", err)
	}
	var canon bytes.Buffer
	if err := s.WriteJSON(&canon); err != nil {
		return err
	}
	canonical := bytes.Equal(raw, canon.Bytes())
	switch {
	case check && !canonical:
		return fmt.Errorf("not canonically encoded (run scenariolint -w)")
	case write && !canonical:
		if err := os.WriteFile(path, canon.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: rewrote in canonical form\n", path)
	}
	report(out, path, s, comp)
	return nil
}

func report(out io.Writer, path string, s *scenario.Scenario, comp *scenario.Compiled) {
	fmt.Fprintf(out, "%s: %s ok\n", path, s.Name)
	fmt.Fprintf(out, "  classes:  %d (%d tenants", len(s.Classes), s.TotalTenants())
	adversaries := 0
	for _, cl := range s.Classes {
		if cl.Role != scenario.RoleNone {
			adversaries++
		}
	}
	if adversaries > 0 {
		fmt.Fprintf(out, ", %d adversarial classes", adversaries)
	}
	fmt.Fprintln(out, ")")
	fmt.Fprintf(out, "  phases:   %d, horizon %v\n", len(s.Phases), comp.Horizon)
	shaped := "full load throughout"
	if comp.Shaper != nil {
		shaped = "time-varying envelope"
	}
	fmt.Fprintf(out, "  load:     %s\n", shaped)
	if comp.Plan != nil {
		fmt.Fprintf(out, "  faults:   %d scripted events from %d overlays\n",
			len(comp.Plan.Events), len(s.Overlays))
	} else {
		fmt.Fprintf(out, "  faults:   none\n")
	}
}
