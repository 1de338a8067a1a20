package geo

import (
	"fmt"
	"math/rand"
	"time"
)

// RandomWaypoint is the classic mobility model: each node picks a uniform
// waypoint in the field, travels there at a uniform-random speed, pauses,
// and repeats. It is a pure state machine driven by the simulation clock,
// so runs stay deterministic per seed.
type RandomWaypoint struct {
	width, height      float64
	minSpeed, maxSpeed float64 // meters/second
	pause              time.Duration
	rng                *rand.Rand
	states             []waypointState
}

type waypointState struct {
	target    Point
	speed     float64 // m/s
	hasTarget bool
	pauseLeft time.Duration
}

// NewRandomWaypoint builds a model for n nodes roaming a width x height
// field at speeds in [minSpeed, maxSpeed] m/s with the given pause at each
// waypoint.
func NewRandomWaypoint(n int, width, height, minSpeed, maxSpeed float64, pause time.Duration, seed int64) (*RandomWaypoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("geo: mobility needs n >= 1, got %d", n)
	}
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("geo: mobility field %vx%v must be positive", width, height)
	}
	if minSpeed <= 0 || maxSpeed < minSpeed {
		return nil, fmt.Errorf("geo: mobility speeds [%v,%v] invalid", minSpeed, maxSpeed)
	}
	if pause < 0 {
		return nil, fmt.Errorf("geo: negative pause %v", pause)
	}
	return &RandomWaypoint{
		width:    width,
		height:   height,
		minSpeed: minSpeed,
		maxSpeed: maxSpeed,
		pause:    pause,
		rng:      rand.New(rand.NewSource(seed)),
		states:   make([]waypointState, n),
	}, nil
}

// Step returns node i's new position after dt starting from cur.
func (m *RandomWaypoint) Step(i int, cur Point, dt time.Duration) Point {
	if i < 0 || i >= len(m.states) || dt <= 0 {
		return cur
	}
	st := &m.states[i]
	remaining := dt
	for remaining > 0 {
		if st.pauseLeft > 0 {
			if st.pauseLeft >= remaining {
				st.pauseLeft -= remaining
				return cur
			}
			remaining -= st.pauseLeft
			st.pauseLeft = 0
		}
		if !st.hasTarget {
			st.target = Point{X: m.rng.Float64() * m.width, Y: m.rng.Float64() * m.height}
			st.speed = m.minSpeed + m.rng.Float64()*(m.maxSpeed-m.minSpeed)
			st.hasTarget = true
		}
		dist := cur.Distance(st.target)
		travel := st.speed * remaining.Seconds()
		if travel >= dist {
			// Arrive, spend the proportional time, then pause.
			if st.speed > 0 {
				used := time.Duration(dist / st.speed * float64(time.Second))
				remaining -= used
			} else {
				remaining = 0
			}
			cur = st.target
			st.hasTarget = false
			st.pauseLeft = m.pause
			continue
		}
		frac := travel / dist
		cur = Point{
			X: cur.X + (st.target.X-cur.X)*frac,
			Y: cur.Y + (st.target.Y-cur.Y)*frac,
		}
		remaining = 0
	}
	return cur
}
