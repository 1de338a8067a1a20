package citysim

import (
	"math"
	"slices"
	"testing"

	"repro/internal/loraphy"
)

// The reference for the link slabs: buildLinks as it stood when it scanned
// each node's whole 3x3 block and priced every ordered pair, verbatim but
// for returning the slabs it built, on linkLoss as it stood before resolve
// fixed the model's reference loss. TestLinksMatchBlockScan,
// FuzzLinksMatchReference and TestSpaceOrder's all-pairs oracle price
// links with it, so none of them checks the resolved model against itself.

// refModel is the city's path-loss model with its reference loss left
// unresolved: PathLossDB recomputes the free-space loss at d0 every call.
func refModel() loraphy.LogDistance {
	m := loraphy.DefaultLogDistance()
	m.Exponent = pathLossExponent
	return m
}

// refShadow is the link's truncated shadowing draw, in sigmas.
func refShadow(s *Sim, a, b int32) float64 {
	lo, hi := s.nodes.id[a], s.nodes.id[b]
	if lo > hi {
		lo, hi = hi, lo
	}
	u1 := hash01(s.hash(purposeShadow, uint64(lo), uint64(hi), 1))
	u2 := hash01(s.hash(purposeShadow, uint64(lo), uint64(hi), 2))
	g := math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
	if g > 2 {
		g = 2
	} else if g < -2 {
		g = -2
	}
	return g
}

// refLinkLoss prices the link between slots a and b on refModel.
func refLinkLoss(s *Sim, a, b int32) float64 {
	dx := s.nodes.x[a] - s.nodes.x[b]
	dy := s.nodes.y[a] - s.nodes.y[b]
	loss := refModel().PathLossDB(math.Hypot(dx, dy), s.r.params.FrequencyHz)
	if sigma := s.r.ShadowSigmaDB; sigma > 0 {
		loss += refShadow(s, a, b) * sigma
	}
	return loss
}

// refBuildLinks returns the link slabs the 3x3 block scan builds.
func refBuildLinks(s *Sim) (nbrOff, nbrSlot []int32, nbrLoss []float64) {
	n := int32(s.r.Nodes)
	ns := &s.nodes
	nbrOff = make([]int32, n+1)
	for i := int32(0); i < n; i++ {
		nbrOff[i] = int32(len(nbrSlot))
		col, row := s.grid.ColRow(int(ns.cell[i]))
		r0, r1 := max(row-1, 0), min(row+1, s.grid.Rows()-1)
		for c := max(col-1, 0); c <= min(col+1, s.grid.Cols()-1); c++ {
			lo, hi := s.cellRun(c, r0, r1)
			for j := lo; j < hi; j++ {
				if j == i {
					continue
				}
				if loss := refLinkLoss(s, i, j); loss <= s.r.maxLossRel {
					nbrSlot = append(nbrSlot, j)
					nbrLoss = append(nbrLoss, loss)
				}
			}
		}
	}
	nbrOff[n] = int32(len(nbrSlot))
	return nbrOff, nbrSlot, nbrLoss
}

// linksMatchReference fails t unless s's link slabs are refBuildLinks',
// offsets and slots equal and losses bit for bit.
func linksMatchReference(t testing.TB, s *Sim) {
	t.Helper()
	off, slot, loss := refBuildLinks(s)
	ns := &s.nodes
	for i := range off[:len(off)-1] {
		got, want := ns.nbrSlot[ns.nbrOff[i]:ns.nbrOff[i+1]], slot[off[i]:off[i+1]]
		if ns.nbrOff[i] != off[i] || !slices.Equal(got, want) {
			t.Fatalf("%+v: slot %d lists %v from offset %d, the block scan %v from %d", s.r.Config, i, got, ns.nbrOff[i], want, off[i])
		}
		for k := range want {
			if a, b := ns.nbrLoss[int(off[i])+k], loss[int(off[i])+k]; math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%+v: link (%d, %d) loss %v, block scan %v", s.r.Config, i, want[k], a, b)
			}
		}
	}
	if len(ns.nbrOff) != len(off) || len(ns.nbrSlot) != len(slot) || len(ns.nbrLoss) != len(loss) {
		t.Fatalf("%+v: slabs of %d/%d/%d entries, block scan %d/%d/%d", s.r.Config,
			len(ns.nbrOff), len(ns.nbrSlot), len(ns.nbrLoss), len(off), len(slot), len(loss))
	}
}

// pinEdgePair moves two 3x3-adjacent slots to the farthest distance at
// which their link is still radio-relevant, leaving their cells as they
// are, and rebuilds the slabs. With shadowing, it picks a pair whose draw
// is truncated at -2 sigma, so the pair sits on the reach test's boundary
// in every case. It reports false, changing nothing, when no pair
// qualifies.
func pinEdgePair(s *Sim) bool {
	ns := &s.nodes
	for i := int32(0); i < int32(s.r.Nodes); i++ {
		col, row := s.grid.ColRow(int(ns.cell[i]))
		r0, r1 := max(row-1, 0), min(row+1, s.grid.Rows()-1)
		for c := col; c <= min(col+1, s.grid.Cols()-1); c++ {
			lo, hi := s.cellRun(c, r0, r1)
			for j := max(lo, i+1); j < hi; j++ {
				if s.r.ShadowSigmaDB > 0 && refShadow(s, i, j) != -2 {
					continue
				}
				// On the x axis from the origin, the pair's distance is
				// x[j] exactly. Bisect to the last float that still links.
				ns.x[i], ns.y[i], ns.y[j] = 0, 0, 0
				near, far := 1.0, 1e9
				for math.Nextafter(near, far) < far {
					ns.x[j] = near + (far-near)/2
					if refLinkLoss(s, i, j) <= s.r.maxLossRel {
						near = ns.x[j]
					} else {
						far = ns.x[j]
					}
				}
				ns.x[j] = near
				s.buildLinks()
				return true
			}
		}
	}
	return false
}

// TestLinksMatchBlockScan holds the link slabs of the bench's own city —
// 10k nodes, no shadowing — to the block scan, as built and with one pair
// pinned to the edge of reach. The all-pairs oracle cannot afford this
// size.
func TestLinksMatchBlockScan(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		s, err := New(Config{Nodes: 10000, Shards: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		linksMatchReference(t, s)
		if !pinEdgePair(s) {
			t.Fatalf("seed %d: no pair to pin", seed)
		}
		linksMatchReference(t, s)
	}
}

// FuzzLinksMatchReference searches for a city whose link slabs differ from
// the block scan's, as built or with one pair pinned to the edge of reach:
// 2 to 800 nodes, any seed, shadowing from 0 to 12 dB, 1 to 4 shards.
func FuzzLinksMatchReference(f *testing.F) {
	f.Add(uint16(2), int64(1), uint16(0), uint8(0))
	f.Add(uint16(300), int64(1), uint16(0), uint8(1))
	f.Add(uint16(600), int64(7), uint16(math.MaxUint16/2), uint8(2))
	f.Add(uint16(798), int64(3), uint16(math.MaxUint16), uint8(3))
	f.Fuzz(func(t *testing.T, nodes uint16, seed int64, sigma uint16, shards uint8) {
		s, err := New(Config{
			Nodes: 2 + int(nodes)%799, Shards: 1 + int(shards)%4, Seed: seed,
			ShadowSigmaDB: 12 * float64(sigma) / math.MaxUint16,
		})
		if err != nil {
			t.Fatal(err)
		}
		linksMatchReference(t, s)
		if pinEdgePair(s) {
			linksMatchReference(t, s)
		}
	})
}

// BenchmarkCityNew times building the bench's 10k-node city at two shards
// — placement, sink election, stripes, link slabs and the initial events —
// under the proactive and the ICN strategy.
func BenchmarkCityNew(b *testing.B) {
	for _, strategy := range []string{"proactive", "icn"} {
		b.Run(strategy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(Config{Nodes: 10000, Shards: 2, Seed: 1, Strategy: strategy}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
