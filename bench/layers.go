package main

import (
	"runtime"
	"time"

	"repro/internal/airmedium"
	"repro/internal/dutycycle"
	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/meshsec"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/simtime"
)

// layers.go — the lower layers replayed from outside. The calls between
// layers happen inside the program, so the traced run times each layer's
// public functions in isolation on inputs shaped like the run's (frame
// sizes, table sizes, pending-event depth), in batches large enough to
// amortise the clock. A unit cost times the operation count the run
// reported estimates the layer's share of the run.

// sink keeps replayed results observable so the calls are not optimised
// away.
var sink float64

const replayBatch = 2048

// replayLoraphy times the channel-model calls a simulated frame costs.
func replayLoraphy(l map[string]float64, budget time.Duration, p loraphy.Params, model loraphy.LogDistance, frameBytes int) {
	lb := loraphy.DefaultLinkBudget()
	shadowed := loraphy.ShadowedModel{Base: model, SigmaDB: 6, Seed: 1}
	i := 0
	next := func() float64 { i++; return 100 + float64(i%4096) } // distances 100..4195 m
	l["loraphy.airtime_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		d, _ := p.Airtime(frameBytes)
		sink += float64(d)
	})
	l["loraphy.pathloss_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		sink += model.PathLossDB(next(), p.FrequencyHz)
	})
	l["loraphy.shadowed_pathloss_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		d := next()
		sink += shadowed.LinkPathLossDB(uint64(i), uint64(i>>3), d, p.FrequencyHz)
	})
	l["loraphy.receive_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		r, _ := loraphy.Receive(p, lb, 90+float64(next())/100)
		sink += r.SNRDB
	})
	l["loraphy.survives_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		ok, _ := loraphy.Survives(p.SpreadingFactor, -100, p.SpreadingFactor, -100-float64(i%12))
		if ok {
			sink++
		}
		i++
	})
}

// replaySimtime times the scheduler with depth events pending, the depth
// the workload's wheels hold: schedule one and fire one keeps it constant.
func replaySimtime(l map[string]float64, budget time.Duration, depth int) {
	start := time.Unix(0, 0).UTC()
	s := simtime.NewScheduler(start)
	nop := func() {}
	i := 0
	delay := func() time.Duration { i++; return time.Duration(1+i*7919%100000) * time.Millisecond }
	for k := 0; k < depth; k++ {
		s.MustAfter(delay(), nop)
	}
	l["simtime.schedule_fire_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		s.MustAfter(delay(), nop)
		s.Step()
	})
	handles := make([]simtime.Handle, replayBatch)
	k := 0
	l["simtime.cancel_ns"] = nsPerOp(budget, replayBatch,
		func() {
			for j := range handles {
				handles[j] = s.MustAfter(delay(), nop)
			}
			k = 0
		},
		func() {
			s.Cancel(handles[k])
			k++
		})
}

// meshFrames describes the frames a mesh_secure run put on the air, the
// shape the codec, security and medium replays reproduce.
type meshFrames struct {
	phy          loraphy.Params
	key          meshsec.Key
	dataPayload  int     // bytes of a telemetry datagram
	helloEntries int     // mean routing rows per HELLO
	helloShare   float64 // HELLOs as a share of transmitted frames
	side         int     // grid side
	spacing      float64 // grid spacing in metres
}

// securedData builds a sealed-shape DATA packet as core.Send does.
func securedData(src packet.Address, counter uint32, payload int) *packet.Packet {
	return &packet.Packet{
		Dst: 1, Src: src, Via: 2, Type: packet.TypeData,
		Payload: make([]byte, payload),
		Secured: true, SecFlags: packet.SecFlagEncrypted, Counter: counter,
	}
}

// replayPacket times the codec on frames shaped like the run's.
func replayPacket(l map[string]float64, budget time.Duration, f meshFrames) {
	data := securedData(7, 1, f.dataPayload)
	buf := make([]byte, 0, packet.MaxFrameLen)
	l["packet.marshal_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		out, _ := packet.AppendMarshal(buf[:0], data)
		sink += float64(len(out))
	})
	frame, _ := packet.Marshal(data)
	unmarshal := func() {
		p, _ := packet.Unmarshal(frame)
		sink += float64(p.Counter)
	}
	l["packet.unmarshal_ns"] = nsPerOp(budget, replayBatch, nil, unmarshal)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < replayBatch; i++ {
		unmarshal()
	}
	runtime.ReadMemStats(&after)
	l["packet.allocs_per_unmarshal"] = float64(after.Mallocs-before.Mallocs) / replayBatch

	entries := helloEntries(f.helloEntries)
	l["packet.hello_marshal_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		out, _ := packet.MarshalHello(entries)
		sink += float64(len(out))
	})
	payload, _ := packet.MarshalHello(entries)
	l["packet.hello_unmarshal_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		es, _ := packet.UnmarshalHello(payload)
		sink += float64(len(es))
	})
}

func helloEntries(n int) []packet.HelloEntry {
	es := make([]packet.HelloEntry, n)
	for i := range es {
		es[i] = packet.HelloEntry{Addr: packet.Address(100 + i), Metric: uint8(1 + i%6), Role: packet.RoleDefault}
	}
	return es
}

// replayMeshsec times seal, open and verify on a data-sized frame. Open
// consumes replay-window positions, so each batch opens freshly sealed
// frames with rising counters, prepared untimed.
func replayMeshsec(l map[string]float64, budget time.Duration, f meshFrames) {
	const src = packet.Address(7)
	tx, rx := meshsec.NewLink(f.key, src), meshsec.NewLink(f.key, 9)
	p := securedData(src, 1, f.dataPayload)
	frame, _ := packet.Marshal(p)
	l["meshsec.seal_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		if tx.SealFrame(frame, p) == nil {
			sink++
		}
	})

	counter := uint32(1)
	sealed := make([]*packet.Packet, replayBatch)
	k := 0
	prep := func() {
		for i := range sealed {
			counter++
			q := securedData(src, counter, f.dataPayload)
			fr, _ := packet.Marshal(q)
			_ = tx.SealFrame(fr, q) // the frame was built to match q
			sealed[i], _ = packet.Unmarshal(fr)
		}
		k = 0
	}
	l["meshsec.open_ns"] = nsPerOp(budget, replayBatch, prep, func() {
		if rx.Open(sealed[k]) == nil {
			sink++
		}
		k++
	})
	prep()
	l["meshsec.verify_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		if _, ok := rx.VerifyOnly(sealed[k%replayBatch]); ok {
			sink++
		}
		k++
	})
}

type nopReceiver struct{}

func (nopReceiver) OnFrame(airmedium.Delivery) {}

// replayAirmedium drives a bare medium — the run's grid, receivers that do
// nothing — with the run's mix of frame sizes, one transmission at a time
// with the scheduler drained, and reports the cost per frame and per
// evaluated reception.
func replayAirmedium(l map[string]float64, budget time.Duration, f meshFrames) error {
	topo, err := geo.Grid(f.side, f.side, f.spacing)
	if err != nil {
		return err
	}
	sched := simtime.NewScheduler(time.Unix(0, 0).UTC())
	m, err := airmedium.New(sched, airmedium.Config{Seed: 1})
	if err != nil {
		return err
	}
	ids := make([]airmedium.StationID, topo.N())
	for i, pos := range topo.Positions {
		if ids[i], err = m.AddStation(pos, nopReceiver{}); err != nil {
			return err
		}
	}
	dataFrame := make([]byte, securedData(7, 1, f.dataPayload).WireLen())
	helloFrame := make([]byte, packet.BaseHeaderLen+packet.SecOverhead+f.helloEntries*packet.HelloEntryLen)
	every := 0 // one frame in `every` is a HELLO
	if f.helloShare > 0 {
		every = int(1/f.helloShare + 0.5)
	}
	i := 0
	var txErr error
	perFrame := nsPerOp(budget, 256, nil, func() {
		fr := dataFrame
		if every > 0 && i%every == 0 {
			fr = helloFrame
		}
		if _, err := m.Transmit(ids[i%len(ids)], fr, f.phy); err != nil {
			txErr = err
		}
		sched.Run(0)
		i++
	})
	if txErr != nil {
		return txErr
	}
	st := m.Stats()
	receptions := float64(st.FramesDelivered + st.LostBelowSensitivity + st.LostCollision +
		st.LostHalfDuplex + st.LostRandom + st.LostNotListening)
	l["airmedium.transmit_ns_per_frame"] = perFrame
	l["airmedium.ns_per_reception"] = ratio(perFrame*float64(st.FramesSent), receptions)
	return nil
}

// replayDutycycle times the regulator with an hour's typical history.
func replayDutycycle(l map[string]float64, budget time.Duration, f meshFrames) error {
	airtime, err := f.phy.Airtime(securedData(7, 1, f.dataPayload).WireLen())
	if err != nil {
		return err
	}
	limit, err := dutycycle.LimitForFrequency(f.phy.FrequencyHz)
	if err != nil {
		return err
	}
	reg, err := dutycycle.NewRegulator(limit, time.Hour)
	if err != nil {
		return err
	}
	now := time.Unix(0, 0).UTC()
	step := 30 * time.Second // ~120 frames an hour: under the 1 % budget
	l["dutycycle.record_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		now = now.Add(step)
		reg.Record(now, airtime)
	})
	l["dutycycle.can_transmit_ns"] = nsPerOp(budget, replayBatch, nil, func() {
		if reg.CanTransmit(now, airtime) {
			sink++
		}
	})
	return nil
}

// replayRouting times ApplyHello on a converged table of the grid's size
// receiving a HELLO of the run's mean size.
func replayRouting(l map[string]float64, budget time.Duration, f meshFrames) {
	t := routing.NewTable(1, routing.Config{EntryTTL: time.Hour})
	now := time.Unix(0, 0).UTC()
	nodes := f.side * f.side
	var all []packet.HelloEntry
	for a := 0; a < nodes; a++ {
		all = append(all, packet.HelloEntry{Addr: packet.Address(100 + a), Metric: uint8(1 + a%6), Role: packet.RoleDefault})
	}
	for off := 0; off < len(all); off += packet.MaxHelloEntries {
		end := off + packet.MaxHelloEntries
		if end > len(all) {
			end = len(all)
		}
		t.ApplyHello(now, 2, packet.RoleDefault, 5, all[off:end])
	}
	entries := helloEntries(f.helloEntries)
	i := 0
	l["routing.apply_hello_ns"] = nsPerOp(budget, 512, nil, func() {
		now = now.Add(time.Second)
		// Alternate two neighbours so some rows change hands, as
		// competing advertisements do in the run.
		if t.ApplyHello(now, packet.Address(2+i%2), packet.RoleDefault, 5, entries) {
			sink++
		}
		i++
	})
}
