package core

import (
	"errors"
	"fmt"

	"repro/internal/coloring"
	"repro/internal/hybrid"
)

// Coloring scheme names accepted by ColoringConfig.Scheme.
const (
	ColoringXOR  = "xor"
	ColoringRot  = "rotate"
	ColoringWear = "wear"
)

// MaxColoringInterval bounds the rotation/wear-feedback epoch interval
// (resource-abuse ceiling, same spirit as the geometry limits).
const MaxColoringInterval = 1 << 20

// ColoringSchemes lists the valid scheme names.
func ColoringSchemes() []string { return []string{ColoringXOR, ColoringRot, ColoringWear} }

// ColoringConfig declares the inter-set wear-leveling (cache coloring)
// scheme a config runs: a bijective logical-set→physical-row remap the
// LLC applies to every lookup and advances at its epoch boundaries.
// Fields irrelevant to the selected scheme must stay zero; Validate
// rejects mixed documents so a typo'd knob cannot be silently ignored.
type ColoringConfig struct {
	// Scheme selects the remap family: "xor" (static address-bit
	// coloring), "rotate" (periodic rotation) or "wear" (wear-feedback
	// hottest/coldest row swapping).
	Scheme string `json:"scheme"`
	// Mask is the xor scheme's XOR mask (0 = identity). xor only.
	Mask int `json:"mask,omitempty"`
	// IntervalEpochs is how many epochs pass between mapping advances
	// (rotate/wear; 0 means 1 — every epoch).
	IntervalEpochs int `json:"interval_epochs,omitempty"`
	// Step is the rotate scheme's row advance per interval (0 means 1).
	Step int `json:"step,omitempty"`
	// Pairs is how many hottest/coldest row pairs the wear scheme swaps
	// per advance (0 means 1).
	Pairs int `json:"pairs,omitempty"`
}

// validateColoring checks a coloring document against the config's
// geometry, reporting every problem at once. Called from Validate, so
// the simd daemon rejects invalid coloring specs at the submission
// boundary, before a job or sweep child is queued.
func (c Config) validateColoring(cc *ColoringConfig) error {
	var errs []error
	bad := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf("core: coloring: "+format, args...))
	}
	zero := func(name string, v int) {
		if v != 0 {
			bad("%q does not apply to scheme %q (got %d)", name, cc.Scheme, v)
		}
	}
	if cc.IntervalEpochs < 0 || cc.IntervalEpochs > MaxColoringInterval {
		bad("interval_epochs %d outside [0,%d]", cc.IntervalEpochs, MaxColoringInterval)
	}
	switch cc.Scheme {
	case ColoringXOR:
		if c.LLCSets&(c.LLCSets-1) != 0 {
			bad("xor needs a power-of-two set count, config has %d", c.LLCSets)
		}
		if cc.Mask < 0 || cc.Mask >= c.LLCSets {
			bad("xor mask %d outside [0,%d)", cc.Mask, c.LLCSets)
		}
		zero("interval_epochs", cc.IntervalEpochs)
		zero("step", cc.Step)
		zero("pairs", cc.Pairs)
	case ColoringRot:
		if c.LLCSets < 2 {
			bad("rotate needs >= 2 sets, config has %d", c.LLCSets)
		}
		if cc.Step < 0 || cc.Step >= c.LLCSets {
			bad("rotate step %d outside [0,%d)", cc.Step, c.LLCSets)
		}
		zero("mask", cc.Mask)
		zero("pairs", cc.Pairs)
	case ColoringWear:
		if c.LLCSets < 2 {
			bad("wear needs >= 2 sets, config has %d", c.LLCSets)
		}
		if cc.Pairs < 0 || cc.Pairs > c.LLCSets/2 {
			bad("wear pairs %d outside [0,%d]", cc.Pairs, c.LLCSets/2)
		}
		zero("mask", cc.Mask)
		zero("step", cc.Step)
	default:
		bad("unknown scheme %q (valid: %v)", cc.Scheme, ColoringSchemes())
	}
	return errors.Join(errs...)
}

// buildColoring constructs the scheme the config selects, or nil when
// coloring is off. Build wires it into the LLC, which advances it.
func (c Config) buildColoring() (hybrid.SetMapper, error) {
	if c.Coloring == nil {
		return nil, nil
	}
	cc := c.Coloring
	interval := cc.IntervalEpochs
	if interval == 0 {
		interval = 1
	}
	switch cc.Scheme {
	case ColoringXOR:
		return coloring.NewXOR(c.LLCSets, cc.Mask)
	case ColoringRot:
		step := cc.Step
		if step == 0 {
			step = 1
		}
		return coloring.NewRotation(c.LLCSets, interval, step)
	case ColoringWear:
		pairs := cc.Pairs
		if pairs == 0 {
			pairs = 1
		}
		return coloring.NewWearFeedback(c.LLCSets, interval, pairs)
	default:
		return nil, fmt.Errorf("core: coloring: unknown scheme %q (valid: %v)", cc.Scheme, ColoringSchemes())
	}
}
