package loraphy

import "math"

// freeSpaceDB is the Friis free-space loss, 20log10(d) + 20log10(f) - 147.55,
// with distances below one meter clamped to one meter to stay finite.
func freeSpaceDB(distanceMeters, freqHz float64) float64 {
	d := math.Max(distanceMeters, 1)
	return 20*math.Log10(d) + 20*math.Log10(freqHz) - 147.55
}

// LogDistance is the log-distance model PL(d) = PL(d0) + 10·n·log10(d/d0),
// the standard fit for LoRa deployments. The urban LoRa literature uses
// exponents n ≈ 2.7–3.5; suburban campus fits around 2.7.
type LogDistance struct {
	// ReferenceLossDB is PL(d0), the loss at the reference distance.
	// If zero, the free-space loss at d0 is used.
	ReferenceLossDB float64
	// ReferenceMeters is d0; defaults to 1 m when zero.
	ReferenceMeters float64
	// Exponent is the decay exponent n; defaults to 2.7 when zero.
	Exponent float64
}

// DefaultLogDistance returns the suburban-campus fit used for the
// reproduction's testbed-like topologies: d0 = 1 m, n = 2.7, free-space
// reference loss.
func DefaultLogDistance() LogDistance {
	return LogDistance{ReferenceMeters: 1, Exponent: 2.7}
}

// PathLossDB returns the attenuation in dB over distanceMeters at carrier
// frequency freqHz; distances below d0 are clamped to d0. Per-link shadowing
// is layered on top by ShadowedModel so this stays a pure function.
func (m LogDistance) PathLossDB(distanceMeters, freqHz float64) float64 {
	d0 := m.ReferenceMeters
	if d0 <= 0 {
		d0 = 1
	}
	n := m.Exponent
	if n <= 0 {
		n = 2.7
	}
	ref := m.ReferenceLossDB
	if ref == 0 {
		ref = freeSpaceDB(d0, freqHz)
	}
	d := math.Max(distanceMeters, d0)
	return ref + 10*n*math.Log10(d/d0)
}

// ShadowedModel adds static per-link log-normal shadowing on top of a base
// model. The shadowing sample for a link is a deterministic function of the
// (unordered) link key and the seed, so a given link has a stable quality
// for the whole run — matching how obstacles affect a fixed deployment —
// and runs are reproducible.
type ShadowedModel struct {
	// Base is the underlying distance-dependent model.
	Base LogDistance
	// SigmaDB is the shadowing standard deviation; LoRa measurement
	// campaigns report 6–10 dB outdoors.
	SigmaDB float64
	// Seed decorrelates shadowing across runs.
	Seed uint64
}

// LinkPathLossDB returns the shadowed loss for the specific link keyed by
// (a, b). The key is order-independent: shadowing is symmetric.
func (m ShadowedModel) LinkPathLossDB(a, b uint64, distanceMeters, freqHz float64) float64 {
	base := m.Base.PathLossDB(distanceMeters, freqHz)
	if m.SigmaDB <= 0 {
		return base
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return base + m.SigmaDB*gaussianFromHash(Mix64(lo^rotl(hi, 32)^m.Seed))
}

// Mix64 is the SplitMix64 finalizer, a high-quality 64-bit mixer. It is
// also citysim's hash behind every deterministic draw.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// gaussianFromHash converts a hash to a standard normal sample using the
// Box-Muller transform on two derived uniforms.
func gaussianFromHash(h uint64) float64 {
	u1 := (float64(h>>11) + 0.5) / (1 << 53)
	u2 := (float64(Mix64(h)>>11) + 0.5) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
