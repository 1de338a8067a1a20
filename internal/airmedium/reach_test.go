package airmedium

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/simtime"
)

// nopRx is a receiver that keeps nothing.
type nopRx struct{}

func (nopRx) OnFrame(Delivery) {}

// clusterInField returns a medium holding five stations within 400 m of
// the origin, which hear one another, and far stations on a 20 km grid
// starting 60 km away, which hear none of them.
func clusterInField(tb testing.TB, far int) (*simtime.Scheduler, *Medium) {
	sched := simtime.NewScheduler(t0)
	m, err := New(sched, Config{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.AddStation(geo.Point{X: float64(i) * 100}, nopRx{}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < far; i++ {
		pos := geo.Point{X: 60e3 + float64(i%64)*20e3, Y: float64(i/64) * 20e3}
		if _, err := m.AddStation(pos, nopRx{}); err != nil {
			tb.Fatal(err)
		}
	}
	return sched, m
}

// On a warm medium a frame allocates nothing: the transmission record,
// its finish callback and its frame buffer are recycled.
func TestTransmitAllocs(t *testing.T) {
	sched, m := clusterInField(t, 16)
	frame, p := make([]byte, 40), loraphy.DefaultParams()
	i := 0
	send := func() {
		if _, err := m.Transmit(StationID(i%5), frame, p); err != nil {
			t.Fatal(err)
		}
		sched.Run(0)
		i++
	}
	for k := 0; k < 20; k++ {
		send()
	}
	if got := mallocs(200, send); got != 0 {
		t.Errorf("Transmit and its finish allocated %d objects in 200 frames, want 0", got)
	}
	if st := m.Stats(); st.FramesDelivered != 4*st.FramesSent || st.LostBelowSensitivity != 16*st.FramesSent {
		t.Errorf("the cluster does not hear only itself: %+v", st)
	}
}

// BenchmarkFinish prices one frame sent inside a five-station cluster,
// from Transmit through its delivery at the other four, as the field of
// far stations that cannot hear it grows.
func BenchmarkFinish(b *testing.B) {
	for _, far := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("far=%d", far), func(b *testing.B) {
			sched, m := clusterInField(b, far)
			frame, p := make([]byte, 40), loraphy.DefaultParams()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Transmit(StationID(i%5), frame, p); err != nil {
					b.Fatal(err)
				}
				sched.Run(0)
			}
		})
	}
}

// mallocs calls f once to warm up, then runs more times on one processor,
// and returns every heap allocation those runs made: testing.AllocsPerRun
// rounds its mean down, so it passes up to runs − 1 of them unseen.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
