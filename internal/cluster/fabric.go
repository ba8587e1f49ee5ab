package cluster

import (
	"fmt"

	"covirt/internal/hw"
	"covirt/internal/pisces"
)

// FabricCosts models the inter-node interconnect in integer cycles — the
// same currency as hw.Costs, so fabric charges compose with per-core TSC
// accounting. A message between distinct nodes pays a base latency plus a
// per-hop term over the mesh route; bulk transfers additionally pay a
// bandwidth term. SkewPct adds a static per-link cost spread so links are
// not all identical, the way cable lengths and switch placement spread
// real fabrics.
type FabricCosts struct {
	// BaseLatency is the one-way message latency between distinct nodes.
	BaseLatency uint64
	// PerHop is added per topological hop on the 2D-mesh route.
	PerHop uint64
	// BytesPerCycle is the link bandwidth for bulk transfers.
	BytesPerCycle uint64
	// SkewPct bounds the static per-link skew, as a percentage of
	// BaseLatency. Zero disables the spread.
	SkewPct uint64
}

// DefaultFabricCosts models a commodity HPC interconnect: ~2 us one-way
// latency at the simulator's cycle rate, with bandwidth far below local
// memory so cross-node pulls are visibly more expensive than local
// attaches.
func DefaultFabricCosts() FabricCosts {
	return FabricCosts{BaseLatency: 5000, PerHop: 400, BytesPerCycle: 16, SkewPct: 10}
}

// Fabric is the simulated interconnect joining the fleet's nodes: a 2D
// mesh (width = ceil(sqrt(nodes))) with deterministic per-link cost skew.
// Every cost is a pure function of the endpoint coordinates and the
// fabric seed — per-coordinate FNV-1a hashing through one hw.Rand step,
// the PR 3 engine discipline — so charges are identical no matter which
// order (or which goroutine) queries the links.
type Fabric struct {
	Costs FabricCosts
	seed  uint64
	width int
}

// NewFabric builds the interconnect for a fleet of nodes. A zero costs
// struct selects DefaultFabricCosts.
func NewFabric(nodes int, seed uint64, costs FabricCosts) *Fabric {
	if costs == (FabricCosts{}) {
		costs = DefaultFabricCosts()
	}
	if costs.BytesPerCycle == 0 {
		costs.BytesPerCycle = 1
	}
	width := 1
	for width*width < nodes {
		width++
	}
	return &Fabric{Costs: costs, seed: seed, width: width}
}

// Hops returns the mesh route length between two nodes: Manhattan
// distance on the width×width grid the fleet is folded onto.
func (f *Fabric) Hops(src, dst int) uint64 {
	sx, sy := src%f.width, src/f.width
	dx, dy := dst%f.width, dst/f.width
	h := uint64(0)
	if sx > dx {
		h += uint64(sx - dx)
	} else {
		h += uint64(dx - sx)
	}
	if sy > dy {
		h += uint64(sy - dy)
	} else {
		h += uint64(dy - sy)
	}
	return h
}

// skew derives the link's static cost spread from its endpoints alone:
// the canonical (lo, hi) pair and the fabric seed are hashed through
// pisces.NameHash (FNV-1a) and passed through one hw.Rand step. No shared
// generator state means no call-order dependence — the property the
// whole fleet's byte-identical parallel output rests on.
func (f *Fabric) skew(src, dst int) uint64 {
	amp := f.Costs.BaseLatency * f.Costs.SkewPct / 100
	if amp == 0 {
		return 0
	}
	lo, hi := src, dst
	if lo > hi {
		lo, hi = hi, lo
	}
	rng := hw.NewRand(pisces.NameHash(fmt.Sprintf("fabric/%d/link/%d/%d", f.seed, lo, hi)))
	return rng.Uint64n(amp + 1)
}

// Latency returns the one-way message cost between two nodes, zero for a
// node talking to itself.
func (f *Fabric) Latency(src, dst int) uint64 {
	if src == dst {
		return 0
	}
	return f.Costs.BaseLatency + f.Costs.PerHop*f.Hops(src, dst) + f.skew(src, dst)
}

// Transfer returns the cost of moving bytes from src to dst: one message
// latency plus the bandwidth term, zero for a local move.
func (f *Fabric) Transfer(src, dst int, bytes uint64) uint64 {
	if src == dst {
		return 0
	}
	return f.Latency(src, dst) + (bytes+f.Costs.BytesPerCycle-1)/f.Costs.BytesPerCycle
}
