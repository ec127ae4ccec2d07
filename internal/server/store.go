package server

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
)

// This file is the artifact codec: the durable byte form of a Result,
// stored content-addressed (by the request cache key) in the jobstore.
// Two properties matter more than readability:
//
//   - Lossless floats. Every float64 is stored as its IEEE-754 bit
//     pattern (a uint64), so NaN payloads, infinities and the last ulp
//     survive the round trip — a report rendered from a decoded
//     artifact is byte-identical to one rendered from the live Result.
//     encoding/json would reject NaN outright and is only
//     shortest-representation-faithful for the rest.
//   - Deterministic bytes. encoding/json sorts map keys, so encoding
//     the same Result always produces the same blob and the journal's
//     artifact SHA-256 doubles as an equality check across restarts.
const artifactVersion = 1

type artifactDoc struct {
	Version    int              `json:"version"`
	Key        string           `json:"key"`
	Summary    artifactSummary  `json:"summary"`
	Epochs     []artifactSample `json:"epochs"`
	CPthWinner int              `json:"cpth_winner"`
}

// artifactSummary mirrors core.Summary field for field (floats as bit
// patterns, the metrics snapshot split into its two maps).
// TestArtifactCodecCoversSummary pins the field count so a Summary
// change cannot silently drop data from artifacts.
type artifactSummary struct {
	Policy          string            `json:"policy"`
	MeanIPCBits     uint64            `json:"mean_ipc_bits"`
	HitRateBits     uint64            `json:"hit_rate_bits"`
	Hits            uint64            `json:"hits"`
	Misses          uint64            `json:"misses"`
	NVMBytesWritten uint64            `json:"nvm_bytes_written"`
	NVMBlockWrites  uint64            `json:"nvm_block_writes"`
	SRAMHits        uint64            `json:"sram_hits"`
	NVMHits         uint64            `json:"nvm_hits"`
	Inserts         uint64            `json:"inserts"`
	Migrations      uint64            `json:"migrations"`
	CapacityBits    uint64            `json:"capacity_bits"`
	Counters        map[string]uint64 `json:"counters,omitempty"`
	GaugeBits       map[string]uint64 `json:"gauge_bits,omitempty"`
}

type artifactSample struct {
	Epoch     int      `json:"epoch"`
	Cycles    uint64   `json:"cycles"`
	ValueBits []uint64 `json:"value_bits"`
}

// encodeResult renders a completed result as its durable artifact bytes.
func encodeResult(key string, r *Result) ([]byte, error) {
	doc := artifactDoc{
		Version:    artifactVersion,
		Key:        key,
		CPthWinner: r.CPthWinner,
		Summary: artifactSummary{
			Policy:          r.Summary.Policy,
			MeanIPCBits:     math.Float64bits(r.Summary.MeanIPC),
			HitRateBits:     math.Float64bits(r.Summary.HitRate),
			Hits:            r.Summary.Hits,
			Misses:          r.Summary.Misses,
			NVMBytesWritten: r.Summary.NVMBytesWritten,
			NVMBlockWrites:  r.Summary.NVMBlockWrites,
			SRAMHits:        r.Summary.SRAMHits,
			NVMHits:         r.Summary.NVMHits,
			Inserts:         r.Summary.Inserts,
			Migrations:      r.Summary.Migrations,
			CapacityBits:    math.Float64bits(r.Summary.Capacity),
		},
	}
	if n := len(r.Summary.Metrics.Counters); n > 0 {
		doc.Summary.Counters = r.Summary.Metrics.Counters
	}
	if n := len(r.Summary.Metrics.Gauges); n > 0 {
		doc.Summary.GaugeBits = make(map[string]uint64, n)
		for name, v := range r.Summary.Metrics.Gauges {
			doc.Summary.GaugeBits[name] = math.Float64bits(v)
		}
	}
	if r.Epochs != nil {
		doc.Epochs = make([]artifactSample, len(r.Epochs))
		for i, s := range r.Epochs {
			a := artifactSample{Epoch: s.Epoch, Cycles: s.Cycles}
			if s.Values != nil {
				a.ValueBits = make([]uint64, len(s.Values))
				for k, v := range s.Values {
					a.ValueBits[k] = math.Float64bits(v)
				}
			}
			doc.Epochs[i] = a
		}
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("server: encode artifact: %w", err)
	}
	return blob, nil
}

// decodeResult rebuilds a Result from artifact bytes and returns the
// cache key recorded inside the artifact, rejecting documents of a
// different codec version rather than misreading them. The key lets
// every reader check the bytes belong to the job it wants: remote-upload
// ingestion refuses an artifact for another request before anything is
// journaled, and recovery re-runs a job whose stored file carries
// another key.
func decodeResult(data []byte) (*Result, string, error) {
	var doc artifactDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, "", fmt.Errorf("server: decode artifact: %w", err)
	}
	if doc.Version != artifactVersion {
		return nil, "", fmt.Errorf("server: artifact version %d, this build reads %d", doc.Version, artifactVersion)
	}
	res := &Result{
		CPthWinner: doc.CPthWinner,
		Summary: core.Summary{
			Policy:          doc.Summary.Policy,
			MeanIPC:         math.Float64frombits(doc.Summary.MeanIPCBits),
			HitRate:         math.Float64frombits(doc.Summary.HitRateBits),
			Hits:            doc.Summary.Hits,
			Misses:          doc.Summary.Misses,
			NVMBytesWritten: doc.Summary.NVMBytesWritten,
			NVMBlockWrites:  doc.Summary.NVMBlockWrites,
			SRAMHits:        doc.Summary.SRAMHits,
			NVMHits:         doc.Summary.NVMHits,
			Inserts:         doc.Summary.Inserts,
			Migrations:      doc.Summary.Migrations,
			Capacity:        math.Float64frombits(doc.Summary.CapacityBits),
		},
	}
	res.Summary.Metrics = metrics.Snapshot{
		Counters: doc.Summary.Counters,
		Gauges:   make(map[string]float64, len(doc.Summary.GaugeBits)),
	}
	if res.Summary.Metrics.Counters == nil {
		res.Summary.Metrics.Counters = map[string]uint64{}
	}
	for name, bits := range doc.Summary.GaugeBits {
		res.Summary.Metrics.Gauges[name] = math.Float64frombits(bits)
	}
	if doc.Epochs != nil {
		res.Epochs = make([]metrics.Sample, len(doc.Epochs))
		for i, a := range doc.Epochs {
			s := metrics.Sample{Epoch: a.Epoch, Cycles: a.Cycles}
			if a.ValueBits != nil {
				s.Values = make([]float64, len(a.ValueBits))
				for k, bits := range a.ValueBits {
					s.Values[k] = math.Float64frombits(bits)
				}
			}
			res.Epochs[i] = s
		}
	}
	return res, doc.Key, nil
}
