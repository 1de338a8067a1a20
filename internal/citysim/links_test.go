package citysim

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geo"
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

// nbrSlots returns the slots node i's link slab lists, ascending.
func nbrSlots(s *Sim, i int32) []int32 {
	var slots []int32
	for _, d := range s.nodes.nbrDelta[s.nodes.nbrOff[i]:s.nodes.nbrOff[i+1]] {
		slots = append(slots, i+int32(d))
	}
	return slots
}

// linksMatchReference fails t unless s's link slabs are refBuildLinks',
// offsets and slots equal, the codes' scale spans the least to the
// greatest reference loss and each code is the one the reference's loss
// quantizes to, and unless inDeliveryRange decides every listed pair as
// the reference loss compared with maxLossDel does.
func linksMatchReference(t testing.TB, s *Sim) {
	t.Helper()
	off, slot, loss := refBuildLinks(s)
	ns := &s.nodes
	lossLo, lossHi := 0.0, 0.0
	if len(loss) > 0 {
		lossLo, lossHi = slices.Min(loss), slices.Max(loss)
	}
	if s.r.lossLo != lossLo || s.r.lossStep != (lossHi-lossLo)/math.MaxUint16 {
		t.Fatalf("%+v: codes from %v dB in steps of %v, block scan spans %v to %v dB", s.r.Config, s.r.lossLo, s.r.lossStep, lossLo, lossHi)
	}
	for i := range off[:len(off)-1] {
		got, want := nbrSlots(s, int32(i)), slot[off[i]:off[i+1]]
		if ns.nbrOff[i] != off[i] || !slices.Equal(got, want) {
			t.Fatalf("%+v: slot %d lists %v from offset %d, the block scan %v from %d", s.r.Config, i, got, ns.nbrOff[i], want, off[i])
		}
		for k, j := range want {
			a, b := ns.nbrLoss[int(off[i])+k], loss[int(off[i])+k]
			if want := s.r.lossCode(b); a != want {
				t.Fatalf("%+v: link (%d, %d) code %d, block scan's loss %v codes as %d", s.r.Config, i, j, a, b, want)
			}
			if got, want := s.shards[0].inDeliveryRange(int32(i), j), b <= s.r.maxLossDel; got != want {
				t.Fatalf("%+v: link (%d, %d) at %v dB: in delivery range %v, block scan %v", s.r.Config, i, j, b, got, want)
			}
		}
	}
	if len(ns.nbrOff) != len(off) || len(ns.nbrDelta) != len(slot) || len(ns.nbrLoss) != len(loss) {
		t.Fatalf("%+v: slabs of %d/%d/%d entries, block scan %d/%d/%d", s.r.Config,
			len(ns.nbrOff), len(ns.nbrDelta), len(ns.nbrLoss), len(off), len(slot), len(loss))
	}
}

// pinEdgePair moves two 3x3-adjacent slots to the farthest distance at
// which their reference loss is still within limit, leaving their cells as
// they are, and rebuilds the slabs. At limit maxLossRel the pair is on the
// edge of radio relevance; with shadowing, pinEdgePair then picks a pair
// whose draw is truncated at -2 sigma, so the pair sits on the reach
// test's boundary in every case. At maxLossDel it is on the edge of
// delivery, within one ulp, where only the exact loss decides. It reports
// false, changing nothing, when no pair qualifies.
func pinEdgePair(t testing.TB, s *Sim, limit float64) bool {
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
					if refLinkLoss(s, i, j) <= limit {
						near = ns.x[j]
					} else {
						far = ns.x[j]
					}
				}
				ns.x[j] = near
				if err := s.buildLinks(); err != nil {
					t.Fatal(err)
				}
				return true
			}
		}
	}
	return false
}

// TestLinksMatchBlockScan holds the link slabs of the bench's own city —
// 10k nodes, no shadowing — to the block scan, as built and with one pair
// pinned to the edge of reach, then one to the edge of delivery. The
// all-pairs oracle cannot afford this size.
func TestLinksMatchBlockScan(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		s, err := New(Config{Nodes: 10000, Shards: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		linksMatchReference(t, s)
		for _, limit := range []float64{s.r.maxLossRel, s.r.maxLossDel} {
			if !pinEdgePair(t, s, limit) {
				t.Fatalf("seed %d: no pair to pin at %v dB", seed, limit)
			}
			linksMatchReference(t, s)
		}
	}
}

// TestOneAndNoLinkCities builds the two cities whose least and greatest
// link loss coincide: two nodes in reach, one link listed both ways, every
// code 0 and standing for the loss exactly; and the same two moved out of
// reach, no link at all. Each must build as the block scan does and run
// to the serial reference's digest.
func TestOneAndNoLinkCities(t *testing.T) {
	for _, apart := range []bool{false, true} {
		build := func(shards int) *Sim {
			s, err := New(Config{Nodes: 2, Shards: shards, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if apart {
				s.nodes.x[1] = s.nodes.x[0] + 1e7 // its cell stays as placed
				if shards > 0 {
					if err := s.buildLinks(); err != nil {
						t.Fatal(err)
					}
				}
			}
			return s
		}
		serial, s := build(0), build(1)
		linksMatchReference(t, s)
		ns := &s.nodes
		want := 2
		if apart {
			want = 0
		}
		if len(ns.nbrDelta) != want || s.r.lossStep != 0 {
			t.Fatalf("apart %v: %d links in steps of %v dB, want %d in steps of 0", apart, len(ns.nbrDelta), s.r.lossStep, want)
		}
		for _, q := range ns.nbrLoss {
			if loss := s.linkLoss(0, 1); q != 0 || s.r.codeLoss(q) != loss || !s.shards[0].inDeliveryRange(0, 1) {
				t.Fatalf("code %d stands for %v dB, the link's loss is %v dB, in delivery range %v", q, s.r.codeLoss(q), loss, s.shards[0].inDeliveryRange(0, 1))
			}
		}
		for _, sim := range []*Sim{serial, s} {
			if err := sim.Run(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); s.Digest() != serial.Digest() || apart != (st.Delivered == 0) {
			t.Fatalf("apart %v: digest %016x, serial %016x; %d delivered", apart, s.Digest(), serial.Digest(), st.Delivered)
		}
	}
}

// TestLinkSlabBytes fences the link slabs' footprint on the bench's city:
// a directed link costs at most 4 B, its slot delta and its loss code,
// and nbrOff one int32 a node besides.
func TestLinkSlabBytes(t *testing.T) {
	s, err := New(Config{Nodes: 10000, Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ns := &s.nodes
	links := uint64(len(ns.nbrDelta))
	got := uint64(cap(ns.nbrDelta))*uint64(unsafe.Sizeof(ns.nbrDelta[0])) +
		uint64(cap(ns.nbrLoss))*uint64(unsafe.Sizeof(ns.nbrLoss[0]))
	off := uint64(cap(ns.nbrOff)) * uint64(unsafe.Sizeof(ns.nbrOff[0]))
	t.Logf("%d directed links in %d B, nbrOff %d B", links, got, off)
	if links == 0 || got > 4*links || off > 4*uint64(s.r.Nodes+1) {
		t.Errorf("%d directed links cost %d B (want at most %d) and nbrOff %d B (want at most %d)",
			links, got, 4*links, off, 4*(s.r.Nodes+1))
	}
}

// TestSlotDeltaBounds pins a link slab's reach: a delta of ±32,767 slots
// is listed, one of ±32,768 or more is an error.
func TestSlotDeltaBounds(t *testing.T) {
	const node = 1 << 20
	for _, d := range []int32{-math.MaxInt16, -1, 1, math.MaxInt16} {
		if got, err := slotDelta(node, node+d); err != nil || int32(got) != d {
			t.Errorf("delta %d: got %d, %v", d, got, err)
		}
	}
	for _, d := range []int32{-math.MaxInt16 - 1, math.MaxInt16 + 1, math.MinInt32 + node, math.MaxInt32 - node} {
		if got, err := slotDelta(node, node+d); err == nil {
			t.Errorf("delta %d: listed as %d, want an error", d, got)
		}
	}
}

// TestNewRefusesFarLinks builds a city of 2^15 + 2 nodes, folds its grid
// into one cell, so that every pair is a candidate, and puts the last
// slot next to the first: buildLinks must refuse the pair, 32,769 slots
// apart, with an error rather than list it or panic.
func TestNewRefusesFarLinks(t *testing.T) {
	s, err := New(Config{Nodes: math.MaxInt16 + 3, Shards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.grid, err = geo.NewCellGrid(0, 0, s.r.field, s.r.field, 2*s.r.field); err != nil {
		t.Fatal(err)
	}
	ns, n := &s.nodes, int32(s.r.Nodes)
	clear(ns.cell)
	s.cellStart = []int32{0, n}
	ns.x[n-1], ns.y[n-1] = ns.x[0]+1, ns.y[0]
	if err := s.buildLinks(); err == nil || !strings.Contains(err.Error(), "32769 slots apart") {
		t.Fatalf("one-cell city, slots 0 and %d linked: %v", n-1, err)
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
		if pinEdgePair(t, s, s.r.maxLossRel) {
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
