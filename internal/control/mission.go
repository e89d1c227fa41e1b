package control

import (
	"time"

	"containerdrone/internal/physics"
)

// Waypoint is one leg of a mission: fly to Pos, then hold for Hold.
type Waypoint struct {
	Pos    physics.Vec3
	Yaw    float64
	Hold   time.Duration
	Radius float64 // acceptance radius, m (0 → 0.15 m default)
}

// Mission sequences waypoints and slew-limits the emitted setpoint —
// the "advanced functionality" (mission planning, smooth trajectories)
// that distinguishes the complex controller from the safety
// controller in the paper's system model.
type Mission struct {
	Waypoints []Waypoint
	// SlewRate limits setpoint motion in m/s (0 = jump immediately).
	SlewRate float64

	idx       int
	holdUntil time.Duration
	holding   bool
	current   Setpoint
	primed    bool
}

// NewMission builds a mission with a 1.5 m/s setpoint slew.
func NewMission(wps ...Waypoint) *Mission {
	return &Mission{Waypoints: wps, SlewRate: 1.5}
}

// Done reports whether every waypoint has been visited and held.
func (m *Mission) Done() bool { return m.idx >= len(m.Waypoints) }

// MissionState is a snapshot of the mission's progress; the waypoint
// list and slew rate are configuration and stay with their owner.
type MissionState struct {
	idx       int
	holdUntil time.Duration
	holding   bool
	current   Setpoint
	primed    bool
}

// SnapshotInto captures the mission's progress into st.
func (m *Mission) SnapshotInto(st *MissionState) {
	st.idx = m.idx
	st.holdUntil = m.holdUntil
	st.holding = m.holding
	st.current = m.current
	st.primed = m.primed
}

// RestoreFrom rewinds the mission to a captured state, keeping its own
// waypoint list.
func (m *Mission) RestoreFrom(st *MissionState) {
	m.idx = st.idx
	m.holdUntil = st.holdUntil
	m.holding = st.holding
	m.current = st.current
	m.primed = st.primed
}

// Target returns the active waypoint, or false when the mission is
// complete.
func (m *Mission) Target() (Waypoint, bool) {
	if m.Done() {
		return Waypoint{}, false
	}
	return m.Waypoints[m.idx], true
}

// Update advances the mission state machine with the vehicle's
// position and returns the (slew-limited) setpoint to track. After
// completion it keeps returning the final waypoint.
func (m *Mission) Update(now time.Duration, pos physics.Vec3, dt float64) Setpoint {
	if !m.primed {
		m.current = Setpoint{Pos: pos}
		m.primed = true
	}
	var goal Setpoint
	if m.Done() {
		if n := len(m.Waypoints); n > 0 {
			last := m.Waypoints[n-1]
			goal = Setpoint{Pos: last.Pos, Yaw: last.Yaw}
		} else {
			goal = m.current
		}
	} else {
		wp := m.Waypoints[m.idx]
		goal = Setpoint{Pos: wp.Pos, Yaw: wp.Yaw}
		radius := wp.Radius
		if radius <= 0 {
			radius = 0.15
		}
		if pos.Sub(wp.Pos).Norm() <= radius {
			if !m.holding {
				m.holding = true
				m.holdUntil = now + wp.Hold
			}
			if now >= m.holdUntil {
				m.idx++
				m.holding = false
			}
		} else {
			m.holding = false
		}
	}
	// Slew-limit the emitted position setpoint toward the goal.
	if m.SlewRate <= 0 || dt <= 0 {
		m.current = goal
		return m.current
	}
	delta := goal.Pos.Sub(m.current.Pos)
	maxStep := m.SlewRate * dt
	if d := delta.Norm(); d > maxStep {
		delta = delta.Scale(maxStep / d)
	}
	m.current.Pos = m.current.Pos.Add(delta)
	m.current.Yaw = goal.Yaw
	return m.current
}
