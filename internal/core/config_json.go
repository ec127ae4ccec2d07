package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// UnmarshalStrict decodes exactly one JSON document into v, rejecting
// unknown fields and anything but whitespace after the document. v is
// an overlay base: fields absent from the document keep their current
// values, so callers seed a Config with DefaultConfig (the convention
// of `hybridsim -config` and the simd job API) and ship partial
// documents like
//
//	{"policy": "CA_RWR", "cpth": 40}
//
// The strictness matters operationally — a typoed field name fails loudly
// instead of silently simulating the default. Errors carry no prefix;
// callers name the document.
func UnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second value, or a stray delimiter, is a malformed document.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
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
