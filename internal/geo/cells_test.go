package geo

import (
	"math/rand"
	"testing"
)

func TestCellGridCover(t *testing.T) {
	g, err := NewCellGrid(0, 0, 1000, 600, 250)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cols() != 4 || g.Rows() != 3 || g.NumCells() != 12 {
		t.Fatalf("got %dx%d cells, want 4x3", g.Cols(), g.Rows())
	}
	// Corners land in the corner cells; out-of-field points clamp.
	if c := g.CellOf(Point{0, 0}); c != 0 {
		t.Fatalf("origin in cell %d, want 0", c)
	}
	if c := g.CellOf(Point{999, 599}); c != 11 {
		t.Fatalf("far corner in cell %d, want 11", c)
	}
	if c := g.CellOf(Point{-50, -50}); c != 0 {
		t.Fatalf("clamped point in cell %d, want 0", c)
	}
	if c := g.CellOf(Point{5000, 5000}); c != 11 {
		t.Fatalf("clamped point in cell %d, want 11", c)
	}
}

func TestCellGridDegenerate(t *testing.T) {
	if _, err := NewCellGrid(0, 0, 100, 100, 0); err == nil {
		t.Fatal("zero cell size accepted")
	}
	if _, err := NewCellGrid(100, 0, 0, 100, 10); err == nil {
		t.Fatal("inverted field accepted")
	}
	// A field smaller than one cell still yields a 1x1 grid.
	g, err := NewCellGrid(0, 0, 5, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 1 {
		t.Fatalf("tiny field has %d cells, want 1", g.NumCells())
	}
	g.ForNeighbors(0, func(c int) {
		if c != 0 {
			t.Fatalf("1x1 grid visited cell %d", c)
		}
	})
}

// TestCellGridNeighborInvariant is the sizing contract the simulators rely
// on: any two points within one cell side of each other live in cells that
// are 3x3 neighbors.
func TestCellGridNeighborInvariant(t *testing.T) {
	const side = 300.0
	g, err := NewCellGrid(0, 0, 3000, 3000, side)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := Point{rng.Float64() * 3000, rng.Float64() * 3000}
		b := Point{a.X + (rng.Float64()*2-1)*side, a.Y + (rng.Float64()*2-1)*side}
		if a.Distance(b) > side {
			continue
		}
		found := false
		g.ForNeighbors(g.CellOf(a), func(c int) {
			if c == g.CellOf(b) {
				found = true
			}
		})
		if !found {
			t.Fatalf("points %v and %v at distance %.1f not cell neighbors", a, b, a.Distance(b))
		}
	}
}

// TestCellGridBlockHoldsNeighborBlocks is the invariant behind citysim's
// once-per-frame interferer gather: the 5x5 block around a cell, clamped
// to the grid by Cols and Rows, contains the 3x3 block of every cell in
// that cell's 3x3. Random grids of 1 to 12 cells a side, every cell of
// each, so every border and corner cell is among them.
func TestCellGridBlockHoldsNeighborBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		side := 10 + rng.Float64()*90
		w, h := side*float64(1+rng.Intn(12)), side*float64(1+rng.Intn(12))
		g, err := NewCellGrid(0, 0, w-rng.Float64()*side/2, h-rng.Float64()*side/2, side)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < g.NumCells(); c++ {
			col, row := g.ColRow(c)
			block := map[int]bool{}
			for r := max(row-2, 0); r <= min(row+2, g.Rows()-1); r++ {
				for cc := max(col-2, 0); cc <= min(col+2, g.Cols()-1); cc++ {
					block[r*g.Cols()+cc] = true
				}
			}
			g.ForNeighbors(c, func(n int) {
				g.ForNeighbors(n, func(m int) {
					if !block[m] {
						t.Fatalf("%dx%d grid: cell %d, in the 3x3 of %d's neighbor %d, is outside %d's 5x5",
							g.Cols(), g.Rows(), m, c, n, c)
					}
				})
			})
		}
	}
}

func TestCellGridNeighborsDeterministicOrder(t *testing.T) {
	g, err := NewCellGrid(0, 0, 1000, 1000, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Interior cell: full 3x3 block in row-major order.
	var got []int
	g.ForNeighbors(g.CellOf(Point{500, 500}), func(c int) { got = append(got, c) })
	want := []int{6, 7, 8, 11, 12, 13, 16, 17, 18}
	if len(got) != len(want) {
		t.Fatalf("interior neighborhood %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interior neighborhood %v, want %v", got, want)
		}
	}
	// Corner cell: clipped to the field.
	got = got[:0]
	g.ForNeighbors(0, func(c int) { got = append(got, c) })
	want = []int{0, 1, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("corner neighborhood %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("corner neighborhood %v, want %v", got, want)
		}
	}
}
