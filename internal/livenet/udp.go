package livenet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/packet"
)

// UDPLink is the medium under a host — how its frames leave and arrive —
// over a real UDP socket: the mesh becomes an actual distributed system
// with no shared memory. It "transmits" by unicasting the frame to its
// peers, which model radio connectivity: give each link the addresses
// its host would hear over the air.
type UDPLink struct {
	conn *net.UDPConn

	mu    sync.Mutex
	peers []*net.UDPAddr

	readDone chan struct{}
}

// ListenUDP binds listen ("127.0.0.1:0" for an ephemeral localhost port)
// and returns the link, not yet reading. peers are the UDP addresses this
// link's transmissions reach; connectivity is directional, so list both
// ways for symmetric links (more can follow with AddPeer).
func ListenUDP(listen string, peers []string) (*UDPLink, error) {
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("livenet: listen address: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("livenet: %w", err)
	}
	l := &UDPLink{conn: conn}
	for _, p := range peers {
		if err := l.AddPeer(p); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return l, nil
}

// Addr returns the bound UDP address.
func (l *UDPLink) Addr() *net.UDPAddr { return l.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer adds a UDP destination this link's transmissions reach.
func (l *UDPLink) AddPeer(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("livenet: peer %q: %w", addr, err)
	}
	l.mu.Lock()
	l.peers = append(l.peers, ua)
	l.mu.Unlock()
	return nil
}

// listen starts the read loop that hands received frames to h. The host
// calls it once, before its engine starts.
func (l *UDPLink) listen(h *Host) {
	l.readDone = make(chan struct{})
	go l.readLoop(h)
}

// readLoop receives frames from the socket until it closes.
func (l *UDPLink) readLoop(h *Host) {
	defer close(l.readDone)
	buf := make([]byte, 2048)
	for {
		n, _, err := l.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if n == 0 || n > packet.MaxFrameLen {
			continue
		}
		h.receive(append([]byte(nil), buf[:n]...))
	}
}

// send writes the frame to every peer once its emulated airtime elapsed,
// and then runs done. The link owns frame from here on.
func (l *UDPLink) send(frame []byte, airtime time.Duration, done func()) {
	time.AfterFunc(airtime, func() {
		l.mu.Lock()
		peers := append([]*net.UDPAddr(nil), l.peers...)
		l.mu.Unlock()
		for _, p := range peers {
			// Losing a datagram matches losing a radio frame; ignore
			// socket errors beyond that.
			_, _ = l.conn.WriteToUDP(frame, p)
		}
		done()
	})
}

// Close releases the socket, which unblocks the read loop, and waits for
// the loop; nothing reaches the host afterwards.
func (l *UDPLink) Close() {
	l.conn.Close()
	if l.readDone != nil {
		<-l.readDone
	}
}
