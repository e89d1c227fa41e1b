// Package monitor implements the security monitor and Simplex
// decision logic of the host control environment (§III-E). Two rules
// are enforced; a violation of either kills the HCE receiving thread
// and switches actuator output from the complex controller to the
// safety controller:
//
//   - Receiving interval: the gap between consecutive motor outputs
//     received from the CCE must not exceed a threshold — a long
//     interval means the complex controller has failed or is starved.
//   - Attitude error: the difference between the reference attitude
//     and the vehicle's actual roll/pitch must stay bounded — a large
//     error means the vehicle is in a dangerous physical state even
//     if outputs keep arriving.
package monitor

import (
	"fmt"
	"math"
	"time"
)

// Output selects which controller drives the actuators.
type Output int

// Output sources.
const (
	OutputComplex Output = iota
	OutputSafety
)

// String names the output source.
func (o Output) String() string {
	if o == OutputSafety {
		return "safety"
	}
	return "complex"
}

// Rule identifies which security rule fired.
type Rule string

// The two rules of §III-E.
const (
	RuleInterval Rule = "receiving-interval"
	RuleAttitude Rule = "attitude-error"
)

// Rules configures the monitor thresholds.
type Rules struct {
	// MaxInterval is the longest tolerated gap between complex-
	// controller outputs. The stream runs at 400 Hz (2.5 ms); the
	// default tolerates 40 consecutive losses.
	MaxInterval time.Duration
	// MaxAttitudeError is the largest tolerated roll/pitch deviation
	// from the reference attitude, in radians.
	MaxAttitudeError float64
	// AttitudeHold requires the attitude error to persist this long
	// before the rule fires, rejecting single-sample glitches.
	AttitudeHold time.Duration
}

// DefaultRules returns the thresholds used in the experiments. The
// attitude threshold is calibrated against the hover envelope the
// paper flies: steady position hold tilts the vehicle only a couple of
// degrees (wind trim), so a persistent 6° gap between the safety
// controller's reference attitude and the measured attitude marks a
// control loop that has gone unstable, well before the physical crash
// envelope.
func DefaultRules() Rules {
	return Rules{
		MaxInterval:      100 * time.Millisecond,
		MaxAttitudeError: 6 * math.Pi / 180,
		AttitudeHold:     20 * time.Millisecond,
	}
}

// Violation records one rule firing.
type Violation struct {
	Rule Rule
	Time time.Duration
	Info string
}

// Monitor is the Simplex decision module.
type Monitor struct {
	rules  Rules
	output Output
	armed  bool

	lastRecv     time.Duration
	haveRecv     bool
	attBadSince  time.Duration
	attBad       bool
	violations   []Violation
	switchedAt   time.Duration
	switchReason Rule

	// Extended envelope rules (see envelope.go); zero = disabled.
	envelope EnvelopeRules
	geoState envelopeState
	desState envelopeState

	// OnSwitch runs exactly once when the monitor fails over; the
	// framework uses it to kill the receiving thread (§III-E).
	OnSwitch func(now time.Duration, rule Rule)
	// OnViolation runs for every recorded rule firing, before the
	// switch side effects (so observers see the violation that caused
	// a switch before the switch itself).
	OnViolation func(v Violation)
}

// New builds a monitor in the complex-output state. It starts
// disarmed: rules are not enforced until Arm, mirroring the paper's
// procedure of enabling protection once the drone is airborne in
// position mode.
func New(rules Rules) *Monitor {
	return &Monitor{rules: rules}
}

// Rules returns the configured thresholds.
func (m *Monitor) Rules() Rules { return m.rules }

// State is a snapshot of the monitor's dynamic state: output
// selection, arming, receive timing, rule persistence, and the
// violation history (deep-copied). Thresholds, envelope rules, and
// callbacks are configuration — they stay with their owner, which is
// exactly what lets a fork sweep monitor thresholds: the restored
// monitor re-judges the post-snapshot flight with its own rules.
type State struct {
	output       Output
	armed        bool
	lastRecv     time.Duration
	haveRecv     bool
	attBadSince  time.Duration
	attBad       bool
	violations   []Violation
	switchedAt   time.Duration
	switchReason Rule
	geoState     envelopeState
	desState     envelopeState
}

// SnapshotInto captures the monitor's dynamic state into st, reusing
// st's violation buffer. The state shares no memory with the monitor
// afterwards.
func (m *Monitor) SnapshotInto(st *State) {
	st.output = m.output
	st.armed = m.armed
	st.lastRecv = m.lastRecv
	st.haveRecv = m.haveRecv
	st.attBadSince = m.attBadSince
	st.attBad = m.attBad
	st.violations = append(st.violations[:0], m.violations...)
	st.switchedAt = m.switchedAt
	st.switchReason = m.switchReason
	st.geoState = m.geoState
	st.desState = m.desState
}

// RestoreFrom rewinds the monitor to a captured state, keeping its own
// thresholds, envelope rules, and callbacks.
func (m *Monitor) RestoreFrom(st *State) {
	m.output = st.output
	m.armed = st.armed
	m.lastRecv = st.lastRecv
	m.haveRecv = st.haveRecv
	m.attBadSince = st.attBadSince
	m.attBad = st.attBad
	m.violations = append(m.violations[:0], st.violations...)
	m.switchedAt = st.switchedAt
	m.switchReason = st.switchReason
	m.geoState = st.geoState
	m.desState = st.desState
}

// Arm starts rule enforcement at the given time; the receive timer
// starts fresh so pre-arm silence does not trip the interval rule.
func (m *Monitor) Arm(now time.Duration) {
	m.armed = true
	m.lastRecv = now
	m.haveRecv = true
}

// Armed reports whether rules are being enforced.
func (m *Monitor) Armed() bool { return m.armed }

// Output returns the currently selected controller.
func (m *Monitor) Output() Output { return m.output }

// Violations returns all recorded rule firings.
func (m *Monitor) Violations() []Violation { return m.violations }

// SwitchedAt returns when and why the monitor failed over; ok=false
// if it has not.
func (m *Monitor) SwitchedAt() (time.Duration, Rule, bool) {
	if m.output != OutputSafety {
		return 0, "", false
	}
	return m.switchedAt, m.switchReason, true
}

// NoteComplexOutput records the arrival of a motor command from the
// CCE. Call it from the HCE receiving thread.
func (m *Monitor) NoteComplexOutput(now time.Duration) {
	m.lastRecv = now
	m.haveRecv = true
}

// Check evaluates both rules. attErr is the angular difference between
// the reference attitude and the measured attitude (radians). Call it
// periodically from the HCE monitor task.
func (m *Monitor) Check(now time.Duration, attErr float64) {
	if !m.armed || m.output == OutputSafety {
		return
	}
	if m.haveRecv && now-m.lastRecv > m.rules.MaxInterval {
		m.trip(now, RuleInterval, fmt.Sprintf("no output for %v", now-m.lastRecv))
		return
	}
	if attErr > m.rules.MaxAttitudeError {
		if !m.attBad {
			m.attBad = true
			m.attBadSince = now
		}
		if now-m.attBadSince >= m.rules.AttitudeHold {
			m.trip(now, RuleAttitude, fmt.Sprintf("attitude error %.1f°", attErr*180/math.Pi))
		}
	} else {
		m.attBad = false
	}
}

func (m *Monitor) trip(now time.Duration, rule Rule, info string) {
	v := Violation{Rule: rule, Time: now, Info: info}
	m.violations = append(m.violations, v)
	if m.OnViolation != nil {
		m.OnViolation(v)
	}
	m.output = OutputSafety
	m.switchedAt = now
	m.switchReason = rule
	if m.OnSwitch != nil {
		m.OnSwitch(now, rule)
	}
}

// ForceSwitch fails over unconditionally (operator action / tests).
func (m *Monitor) ForceSwitch(now time.Duration, info string) {
	if m.output == OutputSafety {
		return
	}
	m.trip(now, Rule("forced"), info)
}

// AttitudeError computes the rule's error metric from reference and
// measured roll/pitch: the max of the two axis errors.
func AttitudeError(refRoll, refPitch, roll, pitch float64) float64 {
	er := math.Abs(roll - refRoll)
	ep := math.Abs(pitch - refPitch)
	if er > ep {
		return er
	}
	return ep
}
