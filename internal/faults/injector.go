package faults

import (
	"math/rand"
	"time"

	"repro/internal/packet"
)

// Drop reasons reported by the injector. The simulator surfaces each as
// a drop.fault.<reason> counter and trace event.
const (
	// ReasonFlap: the frame arrived while a scheduled flap held the
	// link down.
	ReasonFlap = "flap"
	// ReasonLink: a block-kind link fault (asymmetric or severed link)
	// swallowed the frame.
	ReasonLink = "link"
	// ReasonLoss: the link's Bernoulli/Gilbert-Elliott model rolled a
	// loss.
	ReasonLoss = "loss"
	// ReasonCorrupt: injected bit errors changed the frame's CRC16, so
	// the virtual PHY rejected it.
	ReasonCorrupt = "corrupt"
)

// Outcome is the injector's verdict on one delivery.
type Outcome struct {
	// Drop set means the frame must not reach the receiver; Reason
	// says why (one of the Reason* constants).
	Drop   bool
	Reason string
	// Data is the frame to deliver when not dropped. It aliases the
	// input unless Corrupted is set, in which case it is a mutated
	// copy whose bit errors slipped past the 16-bit CRC.
	Data      []byte
	Corrupted bool
}

// linkState holds the per-directed-link mutable state: the PRNG for
// every probabilistic draw on that direction, and the Gilbert-Elliott
// channel state.
type linkState struct {
	rng *rand.Rand
	bad bool // Gilbert-Elliott chain state; starts good
}

type linkKey struct{ from, to int }

// Injector evaluates a Plan against virtual time. It is not safe for
// concurrent use; the discrete-event simulator is single-threaded.
type Injector struct {
	plan  *Plan
	seed  int64
	epoch time.Time

	links map[linkKey]*linkState
	// model indexes the loss model (if any) for each direction.
	model map[linkKey]*LinkFault

	stats map[string]uint64
}

// NewInjector builds an injector for plan. All plan offsets (flap
// starts, crash times) are relative to epoch — normally the virtual
// time at which the plan was applied. seed drives every random draw;
// the same (plan, seed, delivery sequence) yields the same outcomes.
func NewInjector(plan *Plan, seed int64, epoch time.Time) *Injector {
	inj := &Injector{
		plan:  plan,
		seed:  seed,
		epoch: epoch,
		links: make(map[linkKey]*linkState),
		model: make(map[linkKey]*LinkFault),
		stats: make(map[string]uint64),
	}
	for i := range plan.Links {
		l := &plan.Links[i]
		inj.model[linkKey{l.From, l.To}] = l
		if l.Symmetric {
			inj.model[linkKey{l.To, l.From}] = l
		}
	}
	return inj
}

// state returns (lazily creating) the directed link's mutable state.
// The PRNG seed mixes the injector seed with both endpoints so each
// direction has an independent, reproducible random stream that does
// not depend on traffic interleaving across links.
func (inj *Injector) state(k linkKey) *linkState {
	if s, ok := inj.links[k]; ok {
		return s
	}
	h := uint64(inj.seed) ^ 0x9e3779b97f4a7c15
	h = (h ^ uint64(k.from+1)) * 0x100000001b3
	h = (h ^ uint64(k.to+1)*0x10001) * 0x100000001b3
	s := &linkState{rng: rand.New(rand.NewSource(int64(h)))}
	inj.links[k] = s
	return s
}

// OnDelivery decides the fate of a frame the medium is about to hand
// from station `from` to station `to` at virtual time now. Evaluation
// order is flap → link loss model → corruption: a link that is down
// drops the frame before any probability is rolled, so flap windows
// consume no randomness and stay pure functions of time.
func (inj *Injector) OnDelivery(now time.Time, from, to int, data []byte) Outcome {
	t := now.Sub(inj.epoch)
	if inj.plan.FlapDown(t, from, to) {
		inj.stats[ReasonFlap]++
		return Outcome{Drop: true, Reason: ReasonFlap}
	}
	k := linkKey{from, to}
	if m := inj.model[k]; m != nil {
		st := inj.state(k)
		switch m.Kind {
		case KindBlock:
			inj.stats[ReasonLink]++
			return Outcome{Drop: true, Reason: ReasonLink}
		case KindBernoulli:
			if st.rng.Float64() < m.P {
				inj.stats[ReasonLoss]++
				return Outcome{Drop: true, Reason: ReasonLoss}
			}
		case KindGilbert:
			// Advance the chain once per frame, then roll loss in the
			// (possibly new) state.
			if st.bad {
				if st.rng.Float64() < m.PBadToGood {
					st.bad = false
				}
			} else if st.rng.Float64() < m.PGoodToBad {
				st.bad = true
			}
			loss := m.LossGood
			if st.bad {
				loss = m.LossBad
			}
			if st.rng.Float64() < loss {
				inj.stats[ReasonLoss]++
				return Outcome{Drop: true, Reason: ReasonLoss}
			}
		}
	}
	if c := inj.plan.Corrupt; c != nil && c.Rate > 0 && len(data) > 0 {
		st := inj.state(k)
		if st.rng.Float64() < c.Rate {
			maxBits := c.MaxBits
			if maxBits <= 0 {
				maxBits = 3
			}
			mutated := append([]byte(nil), data...)
			flips := 1 + st.rng.Intn(maxBits)
			// Distinct bit positions: flipping the same bit twice would
			// undo the error and deliver a pristine frame as "corrupt".
			seen := make(map[int]bool, flips)
			for i := 0; i < flips; i++ {
				bit := st.rng.Intn(len(mutated) * 8)
				for seen[bit] {
					bit = (bit + 1) % (len(mutated) * 8)
				}
				seen[bit] = true
				mutated[bit/8] ^= 1 << (bit % 8)
			}
			if packet.CRC16(mutated) != packet.CRC16(data) {
				inj.stats[ReasonCorrupt]++
				return Outcome{Drop: true, Reason: ReasonCorrupt}
			}
			// CRC collision: the mangled frame passes the PHY check.
			inj.stats["corrupt.undetected"]++
			return Outcome{Data: mutated, Corrupted: true}
		}
	}
	return Outcome{Data: data}
}

// Stats returns the per-reason injection counts so far. The returned
// map is a copy.
func (inj *Injector) Stats() map[string]uint64 {
	out := make(map[string]uint64, len(inj.stats))
	for k, v := range inj.stats {
		out[k] = v
	}
	return out
}
