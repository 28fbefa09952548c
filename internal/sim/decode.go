package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Strict spec decoding for the wire: specs arriving over HTTP (crispd)
// or from files must round-trip exactly — an unknown field is a typo or
// a version skew that would silently change the simulation a content
// key names, so it is an error here, not a zero value. Local in-process
// construction uses the struct literals directly and never passes
// through this path.

// DecodeStrict decodes one JSON value into v, rejecting unknown fields
// and anything but white space after the value. Every request body crispd
// accepts goes through it.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Not dec.More: it reports false at a stray closing bracket.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the spec")
	}
	return nil
}

// DecodeRunSpec strictly decodes and validates a JSON RunSpec. The
// decoded spec's Key equals the Key of the spec that was marshalled —
// normalization happens inside Key, so the round trip is loss-free.
func DecodeRunSpec(data []byte) (RunSpec, error) {
	var s RunSpec
	if err := DecodeStrict(data, &s); err != nil {
		return RunSpec{}, fmt.Errorf("sim: decode RunSpec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return RunSpec{}, err
	}
	return s, nil
}

// DecodeMultiSpec strictly decodes and validates a JSON MultiSpec.
func DecodeMultiSpec(data []byte) (MultiSpec, error) {
	var m MultiSpec
	if err := DecodeStrict(data, &m); err != nil {
		return MultiSpec{}, fmt.Errorf("sim: decode MultiSpec: %w", err)
	}
	if err := m.Validate(); err != nil {
		return MultiSpec{}, err
	}
	return m, nil
}
