// Command tracegen records the memory-access trace of a synthetic SPEC
// application (or a whole Table V mix) to the compact binary format of
// internal/trace, enabling HyCSim-style trace-driven studies where every
// policy configuration replays the identical stimulus.
//
// Examples:
//
//	tracegen -app zeusmp06 -n 1000000 -o zeusmp.trc
//	tracegen -app zeusmp06 -o zeusmp.trc.gz    # gzip-compressed output
//	tracegen -mix 4 -n 500000 -o mix4          # writes mix4.core{0..3}.trc
//	tracegen -mix 4 -gzip -o mix4              # writes mix4.core{0..3}.trc.gz
//
// Output ending in ".gz" is gzip-compressed; every trace consumer
// (hybridsim -trace) detects compression by content, so compressed and
// plain traces are interchangeable.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	appName := flag.String("app", "", "application profile to trace (see -list)")
	mix := flag.Int("mix", 0, fmt.Sprintf("mix to trace (1-%d: Table V plus skewed-traffic scenarios); one file per core", len(workload.Mixes())))
	n := flag.Int("n", 1_000_000, "number of accesses to record")
	out := flag.String("o", "trace.trc", "output file (or prefix for -mix)")
	gzipOut := flag.Bool("gzip", false, "gzip-compress -mix output (appends .gz to each per-core file)")
	// Replay needs the seed and scale hybridsim -trace is given, so both
	// share its defaults and its validation.
	cf := cliutil.BindConfig(flag.CommandLine, "seed", "scale")
	list := flag.Bool("list", false, "list available application profiles")
	flag.Parse()

	if *list {
		names := make([]string, 0)
		for name := range workload.Profiles() {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Println(name)
		}
		return
	}
	cfg, err := cf.Config(core.DefaultConfig())
	if err != nil {
		fatal(err)
	}

	switch {
	case *appName != "":
		prof, ok := workload.Profiles()[*appName]
		if !ok {
			fatal(fmt.Errorf("unknown application %q (use -list)", *appName))
		}
		app, err := workload.NewApp(prof.Scale(cfg.Scale), workload.AppSpacing, cfg.Seed)
		if err != nil {
			fatal(err)
		}
		if err := writeTrace(app, *n, *out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d accesses of %s to %s\n", *n, *appName, *out)
	case *mix >= 1 && *mix <= len(workload.Mixes()):
		apps, err := workload.NewMix(*mix-1, cfg.Seed, cfg.Scale)
		if err != nil {
			fatal(err)
		}
		for i, app := range apps {
			name := fmt.Sprintf("%s.core%d.trc", *out, i)
			if *gzipOut {
				name += ".gz"
			}
			if err := writeTrace(app, *n, name); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %d accesses of %s to %s\n", *n, app.Profile().Name, name)
		}
	default:
		fatal(fmt.Errorf("need -app NAME or -mix 1..%d", len(workload.Mixes())))
	}
}

func writeTrace(app *workload.App, n int, path string) error {
	f, err := cliutil.CreateTrace(path)
	if err != nil {
		return err
	}
	if err := trace.Record(app, n, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
