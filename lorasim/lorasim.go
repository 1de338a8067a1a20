// Package lorasim is the public simulation API: it builds complete LoRa
// mesh networks — LoRaMesher nodes (or the flooding baseline) placed on a
// calibrated simulated LoRa channel — and runs them under a deterministic
// discrete-event clock.
//
// The PHY model uses the exact SX127x airtime formula, per-SF sensitivity
// and SNR floors, log-distance path loss with optional shadowing, and the
// capture-effect collision rules, so mesh-level results (delivery,
// convergence, airtime) have physical meaning. Every run is reproducible
// for a given seed.
//
//	topo, _ := lorasim.LineTopology(5, 8000) // 5 nodes, 8 km apart
//	sim, _ := lorasim.New(lorasim.Config{Topology: topo, Seed: 1})
//	sim.TimeToConvergence(time.Second, time.Hour)
//	sim.Handle(4).OnMessage = func(m loramesher.Message) { fmt.Println(m) }
//	sim.Handle(0).Proto.Send(sim.Handle(4).Addr, []byte("multi-hop"))
//	sim.Run(time.Minute)
package lorasim

import (
	"time"

	"repro/internal/airmedium"
	"repro/internal/forward"
	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/netsim"

	"repro/loramesher"
)

// Config describes a simulation: topology, channel model, node template,
// protocol choice, and seed. See netsim.Config for field documentation.
type Config = netsim.Config

// Sim is a running simulation.
type Sim = netsim.Sim

// Handle is one node in a simulation: its engine and delivery hooks.
type Handle = netsim.Handle

// Flow describes a unicast traffic workload; TrafficStats its outcome.
type (
	Flow         = netsim.Flow
	TrafficStats = netsim.TrafficStats
)

// Protocol selection for Config.Protocol.
const (
	// KindMesher runs the LoRaMesher distance-vector engine (default).
	KindMesher = forward.KindProactive
	// KindFlooding runs the controlled-flooding baseline.
	KindFlooding = forward.KindFlooding
)

// ChannelConfig tunes the simulated medium (shadowing, soft decoding,
// injected loss).
type ChannelConfig = airmedium.Config

// New builds and starts a simulation.
func New(cfg Config) (*Sim, error) { return netsim.New(cfg) }

// MergeStats folds per-flow statistics into one aggregate.
func MergeStats(all []*TrafficStats) *TrafficStats { return netsim.MergeStats(all) }

// Topology is a set of node placements.
type Topology = geo.Topology

// Point is a position in meters.
type Point = geo.Point

// LineTopology places n nodes on a line with the given spacing — the
// canonical multi-hop chain.
func LineTopology(n int, spacingMeters float64) (*Topology, error) {
	return geo.Line(n, spacingMeters)
}

// GridTopology places rows x cols nodes on a lattice.
func GridTopology(rows, cols int, spacingMeters float64) (*Topology, error) {
	return geo.Grid(rows, cols, spacingMeters)
}

// StarTopology places one hub and n-1 spokes.
func StarTopology(n int, radiusMeters float64) (*Topology, error) {
	return geo.Star(n, radiusMeters)
}

// RandomTopology scatters n nodes uniformly in a field, retrying seeds
// until the network is connected at the given radio range.
func RandomTopology(n int, widthMeters, heightMeters, rangeMeters float64, seed int64) (*Topology, error) {
	return geo.ConnectedRandomGeometric(n, widthMeters, heightMeters, rangeMeters, seed, 1000)
}

// EstimatedRange returns the distance at which the given PHY parameters
// close the default link budget under the default path-loss model — useful
// for choosing topology spacings.
func EstimatedRange(phy loramesher.PHYParams) (float64, error) {
	return loraphy.MaxRangeMeters(phy, loraphy.DefaultLinkBudget(), loraphy.DefaultLogDistance(), 1e6)
}

// RunUntilConverged is a convenience wrapper: it advances sim until every
// node has a route to every other node, checking every step, and reports
// the elapsed virtual time and whether convergence was reached before max.
func RunUntilConverged(sim *Sim, step, max time.Duration) (time.Duration, bool) {
	return sim.TimeToConvergence(step, max)
}
