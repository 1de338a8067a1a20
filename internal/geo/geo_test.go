package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLine(t *testing.T) {
	topo, err := Line(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != 4 {
		t.Fatalf("N = %d, want 4", topo.N())
	}
	for i, p := range topo.Positions {
		if p.X != float64(i)*100 || p.Y != 0 {
			t.Errorf("node %d at %v, want (%d,0)", i, p, i*100)
		}
	}
	if _, err := Line(0, 100); err == nil {
		t.Error("Line(0): want error")
	}
	if _, err := Line(3, -1); err == nil {
		t.Error("Line negative spacing: want error")
	}
}

func TestRingEquidistantFromCenter(t *testing.T) {
	topo, err := Ring(8, 250)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range topo.Positions {
		if d := p.Distance(Point{}); math.Abs(d-250) > 1e-9 {
			t.Errorf("node %d at radius %v, want 250", i, d)
		}
	}
}

func TestGrid(t *testing.T) {
	topo, err := Grid(3, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != 12 {
		t.Fatalf("N = %d, want 12", topo.N())
	}
	// Corner-to-corner distance.
	want := math.Hypot(3*50, 2*50)
	if d := topo.Positions[0].Distance(topo.Positions[11]); math.Abs(d-want) > 1e-9 {
		t.Errorf("diagonal = %v, want %v", d, want)
	}
}

func TestStar(t *testing.T) {
	topo, err := Star(5, 300)
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != 5 {
		t.Fatalf("N = %d, want 5", topo.N())
	}
	if (topo.Positions[0] != Point{}) {
		t.Errorf("hub at %v, want origin", topo.Positions[0])
	}
	for i := 1; i < 5; i++ {
		if d := topo.Positions[i].Distance(Point{}); math.Abs(d-300) > 1e-9 {
			t.Errorf("spoke %d at radius %v, want 300", i, d)
		}
	}
}

func TestRandomGeometricDeterministic(t *testing.T) {
	a, err := RandomGeometric(20, 1000, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomGeometric(20, 1000, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("same seed produced different positions at %d", i)
		}
	}
	c, err := RandomGeometric(20, 1000, 1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Positions {
		if a.Positions[i] != c.Positions[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestRandomGeometricInBounds(t *testing.T) {
	f := func(seed int64) bool {
		topo, err := RandomGeometric(30, 500, 200, seed)
		if err != nil {
			return false
		}
		for _, p := range topo.Positions {
			if p.X < 0 || p.X > 500 || p.Y < 0 || p.Y > 200 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConnectedLineChain(t *testing.T) {
	topo, err := Line(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !Connected(topo, 100) {
		t.Error("chain with spacing = range should be connected")
	}
	if Connected(topo, 99) {
		t.Error("chain with spacing > range should be disconnected")
	}
}

func TestConnectedRandomGeometric(t *testing.T) {
	topo, err := ConnectedRandomGeometric(15, 1000, 1000, 400, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !Connected(topo, 400) {
		t.Error("ConnectedRandomGeometric returned disconnected topology")
	}
	// Impossible density errors out rather than spinning.
	if _, err := ConnectedRandomGeometric(50, 100000, 100000, 10, 1, 5); err == nil {
		t.Error("impossible density: want error")
	}
}

func TestHopDistancesChain(t *testing.T) {
	topo, err := Line(6, 100)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := HopDistances(topo, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dist {
		if d != i {
			t.Errorf("hop distance to node %d = %d, want %d", i, d, i)
		}
	}
	if _, err := HopDistances(topo, 100, 9); err == nil {
		t.Error("out-of-range source: want error")
	}
}

func TestHopDistancesUnreachable(t *testing.T) {
	topo := &Topology{Positions: []Point{{0, 0}, {1000, 0}}}
	dist, err := HopDistances(topo, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[1] != -1 {
		t.Errorf("unreachable node distance = %d, want -1", dist[1])
	}
}

func TestDiameter(t *testing.T) {
	topo, err := Line(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diameter(topo, 100); d != 6 {
		t.Errorf("chain diameter = %d, want 6", d)
	}
	if d := Diameter(topo, 50); d != -1 {
		t.Errorf("disconnected diameter = %d, want -1", d)
	}
	full, err := Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diameter(full, 100); d != 1 {
		t.Errorf("clique diameter = %d, want 1", d)
	}
}

func TestMeanDegree(t *testing.T) {
	topo, err := Line(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Degrees 1,2,1 → mean 4/3.
	if got := MeanDegree(topo, 100); math.Abs(got-4.0/3.0) > 1e-9 {
		t.Errorf("mean degree = %v, want 4/3", got)
	}
	if got := MeanDegree(&Topology{}, 100); got != 0 {
		t.Errorf("empty mean degree = %v, want 0", got)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	topo, err := RandomGeometric(25, 800, 800, 11)
	if err != nil {
		t.Fatal(err)
	}
	adj := Neighbors(topo, 300)
	for i, neigh := range adj {
		for _, j := range neigh {
			found := false
			for _, k := range adj[j] {
				if k == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d->%d", i, j)
			}
		}
	}
}
