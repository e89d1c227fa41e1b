// Package core assembles the ContainerDrone framework: the host
// control environment (sensor drivers, feeder threads, safety
// controller, security monitor, PWM output), the container control
// environment (Docker-style runtime, PX4-style complex controller),
// and the shared physical substrates (quad-core FIFO scheduler, DRAM
// bus, MemGuard, UDP bridge, quadrotor physics) into one deterministic
// co-simulation.
//
// Every experiment in the paper is a Config: which controller runs
// where, which protections are on, and which attack fires when.
package core

import (
	"math"
	"time"

	"containerdrone/internal/attack"
	"containerdrone/internal/control"
	"containerdrone/internal/fault"
	"containerdrone/internal/monitor"
	"containerdrone/internal/physics"
	"containerdrone/internal/sensors"
)

// Network ports from Table I: the CCE receives sensor data on 14660
// and the HCE receives motor output on 14600.
const (
	PortSensors = 14660
	PortMotor   = 14600
)

// Core assignment: three host cores and one container core, the
// paper's cpuset split ("one of the four cores is assigned exclusively
// for CCE use").
const (
	CoreDriver    = 0 // kernel drivers, PWM output
	CoreSafety    = 1 // safety controller, receiver, monitor
	CoreHost      = 2 // host-side complex controller (memdos scenario)
	CoreContainer = 3 // the CCE core
	NumCores      = 4
)

// MaxDrones bounds the fleet size a System will host. Eight members
// is far past the scenario set's needs and keeps a mistyped sweep
// ("drones=100") from building 100 full stacks.
const MaxDrones = 8

// DefaultFleetSpacing is the line-formation spacing between adjacent
// members, in meters, when FleetSpacing is zero.
const DefaultFleetSpacing = 2.0

// Config fully describes one scenario run.
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// Duration is the simulated flight length.
	Duration time.Duration
	// Setpoint is the position-hold target (experiments hover at it).
	Setpoint physics.Vec3

	// Drones is the fleet size: that many full drone stacks share one
	// network fabric and one ground control station. 0 and 1 both mean
	// the classic single-vehicle scenario (no GCS traffic at all).
	// Member 0 is the leader: it flies Mission/Setpoint, while members
	// i > 0 hold a line formation FleetSpacing*i meters behind it,
	// coordinated over the fabric (see fleet.go).
	Drones int
	// FleetSpacing is the formation spacing in meters; zero selects
	// DefaultFleetSpacing. Ignored for a single drone.
	FleetSpacing float64

	// Mission, when non-empty, replaces the static setpoint with a
	// waypoint sequence flown by the complex controller — the
	// "advanced features like mission planning" of the paper's CCE.
	// The safety controller then acts as a position-hold fallback: it
	// tracks the vehicle until a Simplex switch and freezes its
	// setpoint there. Mission flight tilts the vehicle far more than
	// hover, so the attitude-error rule needs a looser threshold (see
	// the mission example and TestMissionFalsePositive).
	Mission []control.Waypoint

	// ComplexInContainer selects the deployment: true is the full
	// ContainerDrone architecture (complex controller inside the CCE,
	// Simplex switching armed); false runs the complex controller on
	// the host, the configuration of the memory-DoS experiment where
	// the container holds only the attacker.
	ComplexInContainer bool

	// MemGuard configuration (§III-D).
	MemGuardEnabled bool
	// MemGuardBudget is the CCE core's budget in accesses/second
	// (converted to per-period internally).
	MemGuardBudget float64

	// IPTablesRate/Burst rate-limit packets into the HCE motor port
	// (§III-E); 0 disables the limit.
	IPTablesRate  float64
	IPTablesBurst float64

	// MonitorEnabled arms the security monitor after ArmDelay.
	MonitorEnabled bool
	Rules          monitor.Rules
	// Envelope adds the extended geofence/descent rules (zero = the
	// paper's two rules only).
	Envelope monitor.EnvelopeRules
	ArmDelay time.Duration

	// Attack is the adversary's plan.
	Attack attack.Plan

	// Faults is the environment's plan: timed sensor, network,
	// scheduler, and airframe failures injected on top of (or instead
	// of) the in-container adversary. Faults compose — several may
	// overlap in one flight.
	Faults fault.Plan

	// BusCapacity is the DRAM service rate in accesses/second. The
	// latency-inflation factor λ folds in bank-conflict amplification,
	// calibrated so a saturating attacker slows fully memory-bound
	// victims by the 15–25× reported for RPi3-class boards.
	BusCapacity float64

	// ManualUntil scripts the paper's flight procedure: "the drone
	// operator first flies the drone to a safe height in manual mode
	// and then switches to position control mode". Until this time the
	// RC feed reports manual mode with hover throttle; zero starts
	// directly in position mode (the scenario default, since runs
	// begin mid-flight).
	ManualUntil time.Duration

	// Noise selects the sensor error model; Wind enables gusts.
	Noise sensors.Noise
	Wind  bool

	// TelemetryRate is the flight-log sampling rate in Hz.
	TelemetryRate float64
}

// telemetryPeriod is the flight-log sampling period, or 0 when
// TelemetryRate yields no positive whole-nanosecond period (a rate
// ≤ 0, NaN, above 1 GHz, or so small the period overflows).
func (c *Config) telemetryPeriod() time.Duration {
	p := float64(time.Second) / c.TelemetryRate
	if !(p >= 1 && p < math.MaxInt64) {
		return 0
	}
	return time.Duration(p)
}

// DroneCount returns the effective fleet size (at least 1).
func (c Config) DroneCount() int {
	if c.Drones < 1 {
		return 1
	}
	return c.Drones
}

// Spacing returns the effective formation spacing in meters.
func (c Config) Spacing() float64 {
	if c.FleetSpacing > 0 {
		return c.FleetSpacing
	}
	return DefaultFleetSpacing
}

// DefaultConfig returns the baseline scenario: full ContainerDrone
// deployment, all protections on, no attack, 30-second hover at
// (0, 0, 1) — the flight envelope of every figure in the paper.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		Duration:           30 * time.Second,
		Setpoint:           physics.Vec3{Z: 1},
		ComplexInContainer: true,
		MemGuardEnabled:    true,
		MemGuardBudget:     30e6,
		IPTablesRate:       8000,
		IPTablesBurst:      512,
		MonitorEnabled:     true,
		Rules:              monitor.DefaultRules(),
		ArmDelay:           time.Second,
		BusCapacity:        100e6,
		Noise:              sensors.DefaultNoise(),
		Wind:               true,
		TelemetryRate:      50,
	}
}

// MemDoSAccessRate is the Bandwidth attack's demand used by the
// memory experiments: saturating enough that unregulated interference
// collapses the host control pipeline (λ ≈ 40 with the default bus).
const MemDoSAccessRate = 4e9

// ScenarioMemDoS reproduces Figs 4 (guard off) and 5 (guard on): the
// complex controller flies from the host, the container runs only the
// Bandwidth attack from t = 10 s. Thin wrapper over the registry's
// "memdos"/"memdos-unguarded" scenarios.
func ScenarioMemDoS(memguardOn bool) Config {
	if memguardOn {
		return MustBuild("memdos", Options{})
	}
	return MustBuild("memdos-unguarded", Options{})
}

// ScenarioKill reproduces Fig 6: the attacker shuts down the complex
// controller at t = 12 s; the receiving-interval rule must fire.
// Thin wrapper over the registry's "kill" scenario.
func ScenarioKill() Config { return MustBuild("kill", Options{}) }

// ScenarioFlood reproduces Fig 7: a UDP flood into the HCE motor port
// from t = 8 s; the attitude-error rule must fire and the safety
// controller must recover the vehicle. Thin wrapper over the
// registry's "udpflood" scenario.
func ScenarioFlood() Config { return MustBuild("udpflood", Options{}) }

// ScenarioBaseline is an attack-free flight of the full architecture.
// Thin wrapper over the registry's "baseline" scenario.
func ScenarioBaseline() Config { return MustBuild("baseline", Options{}) }
