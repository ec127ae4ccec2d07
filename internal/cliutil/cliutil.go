// Package cliutil holds helpers shared by the command-line tools:
// mix-list parsing and the hardened worker-pool runner the sweep
// drivers fan out on.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// ParseMixes converts a CLI mix selector — "all" or a comma-separated list
// of 1-based mix numbers — into 0-based mix indices. The upper bound
// tracks the registered mix table (the paper's ten plus the skewed-
// traffic scenarios), so new mixes are addressable without touching
// every cmd.
func ParseMixes(arg string) ([]int, error) {
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

// PolicyNames lists the registry's policies for -policy flag help, so
// every cmd advertises exactly what core accepts.
func PolicyNames() string { return strings.Join(core.Policies(), ", ") }

// MixesUsage is the help text of every cmd's -mixes flag: the range
// ParseMixes accepts, Table V plus the skewed-traffic scenarios.
var MixesUsage = fmt.Sprintf(`comma-separated mix numbers (1-%d) or "all"`, len(core.AllMixes()))

// ColoringUsage is the help text of every cmd's -coloring flag.
const ColoringUsage = `set coloring: "wear:interval=N,pairs=N" or "off"`

// ParseColoring converts the conventional -coloring spec string into a
// coloring config: "scheme[:key=value,...]" with scheme wear and keys
// interval and pairs. "" and "off" disable coloring (nil). Example:
// "wear:interval=2,pairs=8".
func ParseColoring(spec string) (*core.ColoringConfig, error) {
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

// ApplyColoring parses the conventional -coloring flag into the config
// and validates the result, so every cmd shares one spec syntax and one
// rejection path.
func ApplyColoring(cfg *core.Config, spec string) error {
	cc, err := ParseColoring(spec)
	if err != nil {
		return err
	}
	cfg.Coloring = cc
	return cfg.Validate()
}
