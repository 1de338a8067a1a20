// Package geo provides 2-D node placement and deterministic topology
// generators for mesh experiments. The demo paper's physical testbed is one
// instance of a connectivity graph; these generators reproduce the same
// multi-hop structures (chains, grids, random fields) with controllable
// size and density, under explicit seeds so every experiment is
// reproducible.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position in meters.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance to q in meters.
func (p Point) Distance(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Topology is a set of node placements. Index i is node i's position; the
// caller maps indices to protocol addresses.
type Topology struct {
	// Name describes the generator and parameters, for traces.
	Name string
	// Positions holds one point per node.
	Positions []Point
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Positions) }

// Line places n nodes on a straight line with the given spacing, starting
// at the origin. With spacing chosen near the radio range it produces the
// canonical multi-hop chain used in the delivery-vs-hops experiments.
func Line(n int, spacingMeters float64) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("geo: line topology needs n >= 1, got %d", n)
	}
	if spacingMeters <= 0 {
		return nil, fmt.Errorf("geo: line spacing %v must be positive", spacingMeters)
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: float64(i) * spacingMeters}
	}
	return &Topology{Name: fmt.Sprintf("line(n=%d,d=%.0fm)", n, spacingMeters), Positions: pts}, nil
}

// Ring places n nodes evenly on a circle of the given radius.
func Ring(n int, radiusMeters float64) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("geo: ring topology needs n >= 1, got %d", n)
	}
	if radiusMeters <= 0 {
		return nil, fmt.Errorf("geo: ring radius %v must be positive", radiusMeters)
	}
	pts := make([]Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = Point{X: radiusMeters * math.Cos(a), Y: radiusMeters * math.Sin(a)}
	}
	return &Topology{Name: fmt.Sprintf("ring(n=%d,r=%.0fm)", n, radiusMeters), Positions: pts}, nil
}

// Grid places rows*cols nodes on a rectangular lattice with the given
// spacing.
func Grid(rows, cols int, spacingMeters float64) (*Topology, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("geo: grid needs positive dimensions, got %dx%d", rows, cols)
	}
	if spacingMeters <= 0 {
		return nil, fmt.Errorf("geo: grid spacing %v must be positive", spacingMeters)
	}
	pts := make([]Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, Point{X: float64(c) * spacingMeters, Y: float64(r) * spacingMeters})
		}
	}
	return &Topology{Name: fmt.Sprintf("grid(%dx%d,d=%.0fm)", rows, cols, spacingMeters), Positions: pts}, nil
}

// Star places one hub at the origin and n-1 spokes on a circle around it.
func Star(n int, radiusMeters float64) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("geo: star needs n >= 2, got %d", n)
	}
	ring, err := Ring(n-1, radiusMeters)
	if err != nil {
		return nil, err
	}
	pts := append([]Point{{}}, ring.Positions...)
	return &Topology{Name: fmt.Sprintf("star(n=%d,r=%.0fm)", n, radiusMeters), Positions: pts}, nil
}

// RandomGeometric scatters n nodes uniformly in a width x height field,
// using the seed for reproducibility.
func RandomGeometric(n int, widthMeters, heightMeters float64, seed int64) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("geo: random topology needs n >= 1, got %d", n)
	}
	if widthMeters <= 0 || heightMeters <= 0 {
		return nil, fmt.Errorf("geo: field %vx%v must be positive", widthMeters, heightMeters)
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * widthMeters, Y: rng.Float64() * heightMeters}
	}
	return &Topology{
		Name:      fmt.Sprintf("random(n=%d,%gx%gm,seed=%d)", n, widthMeters, heightMeters, seed),
		Positions: pts,
	}, nil
}

// ConnectedRandomGeometric draws random geometric topologies until one is
// connected under the given radio range, bumping the seed each attempt.
// It fails after maxTries attempts so impossible densities surface as
// errors instead of spinning forever.
func ConnectedRandomGeometric(n int, widthMeters, heightMeters, rangeMeters float64, seed int64, maxTries int) (*Topology, error) {
	if maxTries < 1 {
		maxTries = 100
	}
	for i := 0; i < maxTries; i++ {
		topo, err := RandomGeometric(n, widthMeters, heightMeters, seed+int64(i))
		if err != nil {
			return nil, err
		}
		if Connected(topo, rangeMeters) {
			return topo, nil
		}
	}
	return nil, fmt.Errorf("geo: no connected random topology with n=%d field=%gx%g range=%g after %d tries",
		n, widthMeters, heightMeters, rangeMeters, maxTries)
}
