package core

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// UnmarshalStrict decodes a JSON configuration document into cfg,
// rejecting unknown fields and trailing garbage. cfg is an overlay base:
// fields absent from the document keep their current values, so callers
// seed it with DefaultConfig (the convention of `hybridsim -config` and
// the simd job API) and ship partial documents like
//
//	{"policy": "CA_RWR", "cpth": 40}
//
// The strictness matters operationally — a typoed field name fails loudly
// instead of silently simulating the default.
func UnmarshalStrict(data []byte, cfg *Config) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return fmt.Errorf("core: config: %w", err)
	}
	// A second value in the stream is a malformed document, not a config.
	if dec.More() {
		return fmt.Errorf("core: config: trailing data after JSON document")
	}
	return nil
}

// MarshalCanonical renders the config as its canonical JSON document:
// every field present, declaration order, no indentation. The simd result
// cache hashes this form, so two configs compare equal exactly when their
// simulations are identical by construction.
func (c Config) MarshalCanonical() ([]byte, error) {
	return json.Marshal(c)
}
