package rl

import (
	"encoding/binary"
	"math"
)

// Snapshot is a Policy's state copied out of its packed in-memory layout:
// the kind, its shape and hyper-parameters, and the weights as one
// little-endian byte stream (float64 per value for tabular, int16 for
// perceptron and MLP — each kind documents its own layout).
type Snapshot struct {
	Kind    string
	Meta    SnapshotMeta
	Weights []byte
}

// SnapshotMeta carries the kind-specific shape and hyper-parameters.
type SnapshotMeta struct {
	// Tabular shape and TD hyper-parameters.
	States  int
	Actions int
	Alpha   float64
	Gamma   float64
	Epsilon float64

	// Perceptron shape.
	Features int
	Buckets  int
	Theta    int

	// MLP shape.
	Inputs int
	Hidden int
}

// Little-endian weight-stream helpers shared by the policy kinds.

func appendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func float64At(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
}

func appendInt16(b []byte, v int16) []byte {
	return binary.LittleEndian.AppendUint16(b, uint16(v))
}

func int16At(b []byte, i int) int16 {
	return int16(binary.LittleEndian.Uint16(b[i*2:]))
}
