// Package cliutil holds helpers shared by the command-line tools: the
// one binding from flags to core.Config and the hardened worker-pool
// runner the sweep drivers fan out on.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

type knob struct {
	usage string
	field func(*core.Config) any // the field, or a flag.Value over it
}

// knobs are the core.Config fields a command can take as flags, keyed by
// flag name. Where core bounds a knob, its help names the range Validate
// accepts, from the registries and core's Max* bounds, so every command
// advertises exactly what core accepts.
var knobs = map[string]knob{
	"policy":     {"insertion policy: " + strings.Join(core.Policies(), ", "), func(c *core.Config) any { return &c.PolicyName }},
	"mix":        {fmt.Sprintf("mix `number` (1-%d: Table V plus skewed-traffic scenarios)", len(core.AllMixes())), func(c *core.Config) any { return mixFlag{&c.MixID} }},
	"seed":       {"deterministic seed", func(c *core.Config) any { return &c.Seed }},
	"scale":      {fmt.Sprintf("workload footprint scale, in (0, %d]", core.MaxScale), func(c *core.Config) any { return &c.Scale }},
	"sets":       {fmt.Sprintf("LLC sets (1-%d)", core.MaxLLCSets), func(c *core.Config) any { return &c.LLCSets }},
	"sram":       {fmt.Sprintf("SRAM ways (SRAM + NVM at most %d)", core.MaxLLCWays), func(c *core.Config) any { return &c.SRAMWays }},
	"nvm":        {fmt.Sprintf("NVM ways (SRAM + NVM at most %d)", core.MaxLLCWays), func(c *core.Config) any { return &c.NVMWays }},
	"l2kb":       {fmt.Sprintf("L2 size in KB (1-%d)", core.MaxL2SizeKB), func(c *core.Config) any { return &c.L2SizeKB }},
	"cpth":       {"fixed compression threshold for CA/CA_RWR", func(c *core.Config) any { return &c.CPth }},
	"th":         {"CP_SD_Th hit-sacrifice percentage", func(c *core.Config) any { return &c.Th }},
	"tw":         {"CP_SD_Th write-reduction percentage", func(c *core.Config) any { return &c.Tw }},
	"mean":       {fmt.Sprintf("endurance mean writes, in (0, %g]", float64(core.MaxEnduranceMean)), func(c *core.Config) any { return &c.EnduranceMean }},
	"cv":         {fmt.Sprintf("endurance coefficient of variation, in [0, %d]", core.MaxEnduranceCV), func(c *core.Config) any { return &c.EnduranceCV }},
	"nvmlat":     {fmt.Sprintf("NVM data-array latency factor, in (0, %d]", core.MaxNVMLatencyFactor), func(c *core.Config) any { return &c.NVMLatencyFactor }},
	"prefetch":   {"enable the L2 stride prefetcher", func(c *core.Config) any { return &c.EnablePrefetcher }},
	"rrip":       {"use fit-RRIP NVM replacement instead of fit-LRU", func(c *core.Config) any { return &c.NVMRRIP }},
	"checkevery": {"run the invariant checker every N LLC accesses (0 disables)", func(c *core.Config) any { return &c.CheckEvery }},
	"coloring":   {"set coloring `spec`: \"wear:interval=N,pairs=N\" or \"off\"", func(c *core.Config) any { return coloringFlag{&c.Coloring} }},
}

// bind registers the knob's flag on fs over c's field, with the field's
// current value as the default.
func (k knob) bind(fs *flag.FlagSet, name string, c *core.Config) {
	switch p := k.field(c).(type) {
	case *string:
		fs.StringVar(p, name, *p, k.usage)
	case *int:
		fs.IntVar(p, name, *p, k.usage)
	case *uint64:
		fs.Uint64Var(p, name, *p, k.usage)
	case *float64:
		fs.Float64Var(p, name, *p, k.usage)
	case *bool:
		fs.BoolVar(p, name, *p, k.usage)
	case flag.Value:
		fs.Var(p, name, k.usage)
	}
}

// ConfigFlags is the one binding from command-line flags to core.Config.
type ConfigFlags struct {
	// Mixes holds the 0-based mixes -mixes selects, once Config has run.
	Mixes []int

	fs    *flag.FlagSet
	names []string    // the bound knobs
	flags core.Config // what the bound knobs parse into
	mixes *string     // nil unless -mixes is bound
}

// BindConfig registers the named core.Config knobs on fs, and -mixes
// when named, with core.DefaultConfig's values as defaults. -mix and
// -coloring refuse a malformed value at parse time. An unknown name is
// a programming error and panics.
func BindConfig(fs *flag.FlagSet, names ...string) *ConfigFlags {
	b := &ConfigFlags{fs: fs, flags: core.DefaultConfig()}
	for _, name := range names {
		if name == "mixes" {
			b.mixes = fs.String(name, "1,4", fmt.Sprintf(`comma-separated mix numbers (1-%d) or "all"`, len(core.AllMixes())))
			continue
		}
		k, ok := knobs[name]
		if !ok {
			panic("cliutil: no config flag -" + name)
		}
		k.bind(fs, name, &b.flags)
		b.names = append(b.names, name)
	}
	return b
}

// Config applies the bound flags set on the command line over base, then
// validates the result once. A flag left unset keeps base's value, so
// base may be DefaultConfig, a preset or a loaded config file. When
// -mixes is bound, Config also parses it into Mixes.
func (b *ConfigFlags) Config(base core.Config) (core.Config, error) {
	// Replaying each set flag's value through the same knobs bound to
	// base assigns exactly the fields given, whatever their types.
	over := flag.NewFlagSet("", flag.ContinueOnError)
	for _, name := range b.names {
		knobs[name].bind(over, name, &base)
	}
	var errs []error
	b.fs.Visit(func(f *flag.Flag) {
		if over.Lookup(f.Name) != nil {
			errs = append(errs, over.Set(f.Name, f.Value.String()))
		}
	})
	if b.mixes != nil {
		var err error
		b.Mixes, err = parseMixes(*b.mixes)
		errs = append(errs, err)
	}
	return base, errors.Join(append(errs, base.Validate())...)
}

// mixFlag is -mix: a 1-based mix number over the 0-based Config.MixID.
type mixFlag struct{ id *int }

func (m mixFlag) String() string {
	if m.id == nil {
		return "" // the zero value flag.PrintDefaults probes
	}
	return strconv.Itoa(*m.id + 1)
}

func (m mixFlag) Set(s string) error {
	v, err := strconv.Atoi(s)
	if n := len(core.AllMixes()); err != nil || v < 1 || v > n {
		return fmt.Errorf("want a mix number 1-%d", n)
	}
	*m.id = v - 1
	return nil
}

// coloringFlag is -coloring over Config.Coloring; "off" clears it.
type coloringFlag struct{ cc **core.ColoringConfig }

func (f coloringFlag) String() string {
	if f.cc == nil || *f.cc == nil {
		return ""
	}
	return ColoringSpec(*f.cc)
}

func (f coloringFlag) Set(spec string) error {
	cc, err := parseColoring(spec)
	if err == nil {
		*f.cc = cc
	}
	return err
}

// parseMixes converts a CLI mix selector — "all" or a comma-separated list
// of 1-based mix numbers — into 0-based mix indices. The upper bound
// tracks the registered mix table (the paper's ten plus the skewed-
// traffic scenarios), so new mixes are addressable without touching
// every cmd.
func parseMixes(arg string) ([]int, error) {
	if arg == "all" {
		return core.AllMixes(), nil
	}
	n := len(core.AllMixes())
	var out []int
	for _, tok := range strings.Split(arg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 || v > n {
			return nil, fmt.Errorf("bad mix %q (want 1-%d or \"all\")", tok, n)
		}
		out = append(out, v-1)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix list")
	}
	return out, nil
}

// parseColoring converts a -coloring spec into a coloring config:
// "scheme[:key=value,...]" with scheme wear and keys interval and pairs.
// "" and "off" disable coloring (nil). Example: "wear:interval=2,pairs=8".
func parseColoring(spec string) (*core.ColoringConfig, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	scheme, rest, _ := strings.Cut(spec, ":")
	cc := &core.ColoringConfig{Scheme: scheme}
	if scheme != core.ColoringWear {
		return cc, nil // Validate names the unknown or retired scheme
	}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("bad coloring option %q (want key=value)", kv)
			}
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return nil, fmt.Errorf("bad coloring value %q for %q", val, key)
			}
			switch strings.TrimSpace(key) {
			case "interval":
				cc.IntervalEpochs = n
			case "pairs":
				cc.Pairs = n
			default:
				return nil, fmt.Errorf("unknown coloring option %q (valid: interval, pairs)", key)
			}
		}
	}
	return cc, nil
}

// ColoringSpec is the -coloring spec that reads back as cc, which must
// not be nil; an option at zero is left out.
func ColoringSpec(cc *core.ColoringConfig) string {
	var opts []string
	if cc.IntervalEpochs != 0 {
		opts = append(opts, fmt.Sprintf("interval=%d", cc.IntervalEpochs))
	}
	if cc.Pairs != 0 {
		opts = append(opts, fmt.Sprintf("pairs=%d", cc.Pairs))
	}
	if len(opts) == 0 {
		return cc.Scheme
	}
	return cc.Scheme + ":" + strings.Join(opts, ",")
}
