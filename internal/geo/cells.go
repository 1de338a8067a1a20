// cells.go — uniform spatial cell grid for range-bounded neighbor queries.
//
// A CellGrid partitions an axis-aligned rectangle into square cells whose
// side is at least the maximum radio-relevant distance (delivery or
// interference range, plus any shadowing margin). Under that sizing
// invariant, every station a transmission can reach lies in the 3x3 cell
// neighborhood of the sender's cell, which turns the O(n) per-transmission
// station scan into an O(density) one. The city-scale simulator
// (internal/citysim) shards the grid by contiguous cell columns; airmedium
// keeps its own sparse variant because its stations have no field bounds.

package geo

import (
	"fmt"
	"math"
)

// CellGrid is a uniform partition of [minX,maxX] x [minY,maxY] into square
// cells of side Cell meters, indexed row-major: cell = row*cols + col.
// The zero value is not usable; construct with NewCellGrid.
type CellGrid struct {
	minX, minY float64
	cell       float64
	cols, rows int
}

// NewCellGrid builds a grid covering the given rectangle with square cells
// of side cellMeters. Points outside the rectangle clamp to the border
// cells, so callers with floating-point jitter at the field edge stay safe.
func NewCellGrid(minX, minY, maxX, maxY, cellMeters float64) (CellGrid, error) {
	if cellMeters <= 0 {
		return CellGrid{}, fmt.Errorf("geo: cell size %v must be positive", cellMeters)
	}
	if maxX < minX || maxY < minY {
		return CellGrid{}, fmt.Errorf("geo: inverted field [%v,%v]x[%v,%v]", minX, maxX, minY, maxY)
	}
	cols := int(math.Ceil((maxX - minX) / cellMeters))
	rows := int(math.Ceil((maxY - minY) / cellMeters))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return CellGrid{minX: minX, minY: minY, cell: cellMeters, cols: cols, rows: rows}, nil
}

// Cols returns the number of cell columns.
func (g CellGrid) Cols() int { return g.cols }

// Rows returns the number of cell rows.
func (g CellGrid) Rows() int { return g.rows }

// NumCells returns the total cell count.
func (g CellGrid) NumCells() int { return g.cols * g.rows }

// CellOf returns the cell index containing p, clamping out-of-field points
// to the border cells.
func (g CellGrid) CellOf(p Point) int {
	col := int((p.X - g.minX) / g.cell)
	row := int((p.Y - g.minY) / g.cell)
	if col < 0 {
		col = 0
	} else if col >= g.cols {
		col = g.cols - 1
	}
	if row < 0 {
		row = 0
	} else if row >= g.rows {
		row = g.rows - 1
	}
	return row*g.cols + col
}

// ColRow splits a cell index into its column and row.
func (g CellGrid) ColRow(cell int) (col, row int) {
	return cell % g.cols, cell / g.cols
}

// ForNeighbors calls fn for every existing cell in the 3x3 neighborhood of
// cell (including cell itself), in row-major order. The fixed order keeps
// iteration deterministic for digest-sensitive callers.
func (g CellGrid) ForNeighbors(cell int, fn func(cell int)) {
	col, row := g.ColRow(cell)
	for dr := -1; dr <= 1; dr++ {
		r := row + dr
		if r < 0 || r >= g.rows {
			continue
		}
		for dc := -1; dc <= 1; dc++ {
			c := col + dc
			if c < 0 || c >= g.cols {
				continue
			}
			fn(r*g.cols + c)
		}
	}
}
