package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/coloring"
	"repro/internal/hybrid"
)

// ColoringWear names the one coloring scheme ColoringConfig.Scheme
// accepts.
const ColoringWear = "wear"

// MaxColoringInterval bounds the wear-feedback epoch interval.
const MaxColoringInterval = coloring.MaxInterval

// ColoringConfig declares the inter-set wear-leveling (cache coloring)
// scheme a config runs: a bijective logical-set→physical-row remap the
// LLC applies to every lookup and advances at its epoch boundaries.
type ColoringConfig struct {
	// Scheme selects the remap family; "wear" (wear-feedback
	// hottest/coldest row swapping) is the only one.
	Scheme string `json:"scheme"`
	// IntervalEpochs is how many epochs pass between mapping advances
	// (0 means 1 — every epoch).
	IntervalEpochs int `json:"interval_epochs,omitempty"`
	// Pairs is how many hottest/coldest row pairs swap per advance (0
	// means 1).
	Pairs int `json:"pairs,omitempty"`
}

// retiredColoring returns the error for a retired scheme name and nil
// for any other; xor and rotate never beat wear on a measured mix
// (EXPERIMENTS.md, "Retired: xor and rotate coloring").
func retiredColoring(scheme string) error {
	if scheme != "xor" && scheme != "rotate" {
		return nil
	}
	return fmt.Errorf("core: coloring: scheme %q was retired; use %q (wear-feedback row swapping)", scheme, ColoringWear)
}

// UnmarshalJSON decodes the document strictly. A retired scheme is
// reported by name ahead of its knobs (mask, step), which no longer
// exist, so a journaled xor or rotate job fails as retired rather than
// as an unknown field.
func (cc *ColoringConfig) UnmarshalJSON(data []byte) error {
	type plain ColoringConfig
	err := UnmarshalStrict(data, (*plain)(cc))
	if err != nil {
		var probe struct{ Scheme string }
		if json.Unmarshal(data, &probe) == nil {
			if rerr := retiredColoring(probe.Scheme); rerr != nil {
				return rerr
			}
		}
	}
	return err
}

// wearArgs resolves the document's zero defaults into the wear scheme's
// constructor arguments.
func (cc *ColoringConfig) wearArgs() (interval, pairs int) {
	interval, pairs = cc.IntervalEpochs, cc.Pairs
	if interval == 0 {
		interval = 1
	}
	if pairs == 0 {
		pairs = 1
	}
	return interval, pairs
}

// validateColoring checks a coloring document against the config's
// geometry. Called from Validate, so the simd daemon rejects invalid
// coloring specs at the submission boundary, before a job or sweep child
// is queued. The bounds are the wear scheme's own.
func (c Config) validateColoring(cc *ColoringConfig) error {
	if err := retiredColoring(cc.Scheme); err != nil {
		return err
	}
	if cc.Scheme != ColoringWear {
		return fmt.Errorf("core: coloring: unknown scheme %q (valid: %q)", cc.Scheme, ColoringWear)
	}
	interval, pairs := cc.wearArgs()
	if err := coloring.CheckWearFeedback(c.LLCSets, interval, pairs); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// buildColoring constructs the scheme the config selects, or nil when
// coloring is off. Build validates the config first and wires the
// scheme into the LLC, which advances it.
func (c Config) buildColoring() (hybrid.SetMapper, error) {
	if c.Coloring == nil {
		return nil, nil
	}
	interval, pairs := c.Coloring.wearArgs()
	return coloring.NewWearFeedback(c.LLCSets, interval, pairs)
}
