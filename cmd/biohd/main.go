// Command biohd is the BioHD genome sequence search platform CLI.
//
// Subcommands:
//
//	gen        generate synthetic datasets (FASTA)
//	build      build a reference library from FASTA, report its shape, save it (v3)
//	search     search a pattern against FASTA references
//	classify   classify reads against FASTA references
//	experiment regenerate a paper table/figure (or "all")
//	pim        simulate a search batch on the PIM architecture
//	serve      expose a library over an HTTP JSON API (+ binary wire protocol)
//	wire       query a serve -wire-addr listener over the binary protocol
//	compact    rewrite a saved library's tombstoned segments
//
// Run "biohd <subcommand> -h" for flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "biohd:", err)
		os.Exit(1)
	}
}

// run dispatches a CLI invocation; it is the testable entry point.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return fmt.Errorf("missing subcommand")
	}
	var cmd func([]string, io.Writer) error
	switch args[0] {
	case "gen":
		cmd = cmdGen
	case "build":
		cmd = cmdBuild
	case "search":
		cmd = cmdSearch
	case "classify":
		cmd = cmdClassify
	case "experiment":
		cmd = cmdExperiment
	case "serve":
		cmd = cmdServe
	case "wire":
		cmd = cmdWire
	case "pim":
		cmd = cmdPIM
	case "compact":
		cmd = cmdCompact
	case "help", "-h", "--help":
		usage(out)
		return nil
	default:
		usage(out)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	if err := cmd(args[1:], out); !errors.Is(err, flag.ErrHelp) {
		return err
	}
	return nil // "<subcommand> -h": its FlagSet has printed the flags
}

func usage(out io.Writer) {
	fmt.Fprint(out, `biohd — genome sequence search with HyperDimensional memorization

usage: biohd <subcommand> [flags]

subcommands:
  gen         generate synthetic datasets (covid | random | reads) as FASTA
  build       build a reference library from FASTA and report its shape
  search      search a pattern against FASTA references
  classify    classify reads (FASTA) against references (FASTA)
  experiment  regenerate a paper table/figure by ID (T1..T3, F1..F11, all)
  pim         simulate a search batch on the crossbar PIM architecture
  serve       expose a library over an HTTP JSON API (+ binary wire protocol via -wire-addr)
  wire        query a serve -wire-addr listener over the binary wire protocol
  compact     rewrite a saved library's tombstoned segments and save it back
`)
}
