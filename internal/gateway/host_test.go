package gateway

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livenet"
	"repro/internal/packet"
	"repro/internal/routing"
)

// TestAttachHostLivenet wires the gateway onto the wall-clock runtime
// (two hosts on loopback UDP): readings from a peer reach the backend
// through the sink's gateway, and a queued downlink command crosses back.
func TestAttachHostLivenet(t *testing.T) {
	b := NewBackend()
	srv := httptest.NewServer(b)
	defer srv.Close()

	var (
		hosts [2]*livenet.Host
		socks [2]*livenet.UDPLink
	)
	for i := range hosts {
		sock, err := livenet.ListenUDP("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := livenet.Start(livenet.Config{
			TimeScale: 200,
			Seed:      1,
			Node: core.Config{
				Address:        packet.Address(i + 1),
				HelloPeriod:    2 * time.Second,
				DutyCycleLimit: 1,
				Routing:        routing.Config{EntryTTL: 20 * time.Second},
			},
		}, sock)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		hosts[i], socks[i] = h, sock
	}
	for i, sock := range socks {
		if err := sock.AddPeer(socks[1-i].Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	sink, sensor := hosts[0], hosts[1]

	g, err := New(Config{
		URLs:          []string{srv.URL},
		BatchSize:     4,
		FlushInterval: 100 * time.Millisecond,
		RetryBase:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	AttachHost(sink, g)
	g.Start()
	defer g.Close()

	waitFor := func(d time.Duration, cond func() bool) bool {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			time.Sleep(10 * time.Millisecond)
		}
		return cond()
	}

	if !waitFor(10*time.Second, func() bool { return sensor.HasRoute(0x0001) }) {
		t.Fatal("live mesh did not converge")
	}
	b.PushDownlink(Downlink{To: sensor.Addr(), Payload: []byte("ack")})
	for i := 0; i < 3; i++ {
		if err := sensor.Send(0x0001, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(10*time.Second, func() bool { return b.Distinct() == 3 }) {
		t.Fatalf("backend has %d readings, want 3", b.Distinct())
	}
	if b.Duplicates() != 0 {
		t.Fatalf("%d duplicate uploads", b.Duplicates())
	}
	if !waitFor(10*time.Second, func() bool {
		for _, m := range sensor.Messages() {
			if string(m.Payload) == "ack" {
				return true
			}
		}
		return false
	}) {
		t.Fatal("downlink never reached the sensor")
	}
}
