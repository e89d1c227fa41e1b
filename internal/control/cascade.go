package control

import (
	"math"

	"containerdrone/internal/physics"
	"containerdrone/internal/sensors"
)

// Inputs bundles the sensor data a controller consumes each cycle —
// the same four streams the HCE feeder threads forward (Table I).
type Inputs struct {
	IMU  sensors.IMUReading
	GPS  sensors.GPSReading
	Baro sensors.BaroReading
	RC   sensors.RCReading
}

// Setpoint is a 3D position-hold target with heading.
type Setpoint struct {
	Pos physics.Vec3
	Yaw float64
}

// Airframe carries the physical constants the thrust map needs.
type Airframe struct {
	Mass              float64
	Gravity           float64
	MaxThrustPerRotor float64
}

// AirframeFrom extracts the constants from physics parameters.
func AirframeFrom(p physics.Params) Airframe {
	return Airframe{Mass: p.Mass, Gravity: p.Gravity, MaxThrustPerRotor: p.MaxThrustPerRotor}
}

// Gains parameterizes the cascade. All limits use SI units; torque
// commands are normalized motor differentials.
type Gains struct {
	PosP   float64 // position error → velocity setpoint, 1/s
	VelMax float64 // m/s

	VelP, VelI, VelD float64 // velocity error → acceleration
	AccMax           float64 // m/s² horizontal
	TiltMax          float64 // rad

	AttP    float64 // attitude error → rate setpoint, 1/s
	YawP    float64
	RateMax float64 // rad/s

	RateP, RateD float64 // rate error → torque command
	TorqueMax    float64 // normalized motor differential
}

// ComplexGains returns the aggressive, feature-rich tune of the
// container's PX4-style controller.
func ComplexGains() Gains {
	return Gains{
		PosP: 1.1, VelMax: 2.5,
		VelP: 2.4, VelI: 0.6, VelD: 0.02, AccMax: 6, TiltMax: 0.6,
		AttP: 7, YawP: 3, RateMax: 4,
		RateP: 0.10, RateD: 0.0045, TorqueMax: 0.45,
	}
}

// SafetyGains returns the conservative tune of the host's verified
// safety controller: lower speed and tilt envelopes, no integral term
// (stateless enough to analyze exhaustively), strong damping.
func SafetyGains() Gains {
	return Gains{
		PosP: 0.7, VelMax: 1.0,
		VelP: 1.8, VelI: 0, VelD: 0.03, AccMax: 3.5, TiltMax: 0.3,
		AttP: 6, YawP: 2, RateMax: 2.5,
		RateP: 0.11, RateD: 0.005, TorqueMax: 0.35,
	}
}

// Cascade is the position→velocity→attitude→rate controller both
// Simplex sides share structurally; they differ in gains and in the
// features layered on top (mission planning, setpoint smoothing).
type Cascade struct {
	Gains    Gains
	Airframe Airframe

	velX, velY, velZ    PID
	rateX, rateY, rateZ PID

	lastUS    uint64
	primed    bool
	defaultDT float64

	lastRollSP, lastPitchSP, lastYawSP float64
}

// AttitudeSetpoint returns the attitude setpoint of the most recent
// Compute call. The security monitor uses the safety controller's
// setpoint as the reference for the attitude-error rule: a large gap
// between the commanded and actual attitude marks a dangerous state.
func (c *Cascade) AttitudeSetpoint() (roll, pitch, yaw float64) {
	return c.lastRollSP, c.lastPitchSP, c.lastYawSP
}

// NewCascade builds a controller for the given airframe running
// nominally at the given rate in hertz.
func NewCascade(g Gains, af Airframe, rateHz float64) *Cascade {
	c := &Cascade{Gains: g, Airframe: af, defaultDT: 1 / rateHz}
	c.velX = PID{Kp: g.VelP, Ki: g.VelI, Kd: g.VelD, OutLimit: g.AccMax, ILimit: 2}
	c.velY = c.velX
	c.velZ = PID{Kp: g.VelP, Ki: g.VelI, Kd: g.VelD, OutLimit: g.AccMax, ILimit: 2}
	c.rateX = PID{Kp: g.RateP, Kd: g.RateD, OutLimit: g.TorqueMax}
	c.rateY = c.rateX
	c.rateZ = PID{Kp: g.RateP * 1.5, Kd: g.RateD, OutLimit: g.TorqueMax}
	return c
}

// dt derives the integration step from IMU timestamps, clamped so a
// stalled stream cannot blow up the integrators.
func (c *Cascade) dt(timeUS uint64) float64 {
	if !c.primed {
		c.primed = true
		c.lastUS = timeUS
		return c.defaultDT
	}
	d := float64(timeUS-c.lastUS) / 1e6
	c.lastUS = timeUS
	if d <= 0 || d > 0.2 {
		return c.defaultDT
	}
	return d
}

// Compute runs one full cascade cycle and returns motor throttles.
// The inputs are passed by pointer purely to keep the ~230-byte
// bundle off the per-cycle copy path (two controllers run at
// 250–400 Hz); Compute never retains or mutates it.
func (c *Cascade) Compute(in *Inputs, sp Setpoint) [4]float64 {
	g := c.Gains
	dt := c.dt(in.IMU.TimeUS)
	roll, pitch, yaw := in.IMU.Quat.Euler()

	var velSP physics.Vec3
	var rollSP, pitchSP, yawSP float64
	var thrust float64

	switch in.RC.Mode {
	case sensors.ModeManual:
		// Sticks command attitude directly; throttle is passthrough
		// around hover.
		rollSP = in.RC.Roll * g.TiltMax
		pitchSP = in.RC.Pitch * g.TiltMax
		yawSP = yaw + in.RC.Yaw // rate-style yaw stick folded into sp
		thrust = c.hoverThrottle() * (0.5 + in.RC.Throttle)
	default: // position mode
		// Position loop.
		posErr := sp.Pos.Sub(in.GPS.Pos)
		velSP = posErr.Scale(g.PosP).Clamp(g.VelMax)
		// Velocity loops → world-frame acceleration demand.
		acc := physics.Vec3{
			X: c.velX.Update(velSP.X-in.GPS.Vel.X, dt),
			Y: c.velY.Update(velSP.Y-in.GPS.Vel.Y, dt),
			Z: c.velZ.Update(velSP.Z-in.GPS.Vel.Z, dt),
		}
		// Acceleration → tilt setpoints, rotated into the heading.
		axB := acc.X*math.Cos(yaw) + acc.Y*math.Sin(yaw)
		ayB := -acc.X*math.Sin(yaw) + acc.Y*math.Cos(yaw)
		pitchSP = clamp(axB/c.Airframe.Gravity, g.TiltMax)
		rollSP = clamp(-ayB/c.Airframe.Gravity, g.TiltMax)
		yawSP = sp.Yaw
		// Thrust from the exact quadratic map, with tilt compensation.
		tilt := in.IMU.Quat.TiltAngle()
		cosTilt := math.Cos(tilt)
		if cosTilt < 0.5 {
			cosTilt = 0.5
		}
		need := c.Airframe.Mass * (c.Airframe.Gravity + acc.Z) / cosTilt
		if need < 0 {
			need = 0
		}
		thrust = math.Sqrt(need / (4 * c.Airframe.MaxThrustPerRotor))
	}

	c.lastRollSP, c.lastPitchSP, c.lastYawSP = rollSP, pitchSP, yawSP

	// Attitude loop → body rate setpoints.
	rateSP := physics.Vec3{
		X: clamp(g.AttP*(rollSP-roll), g.RateMax),
		Y: clamp(g.AttP*(pitchSP-pitch), g.RateMax),
		Z: clamp(g.YawP*wrapAngle(yawSP-yaw), g.RateMax),
	}
	// Rate loop → torque commands.
	tx := c.rateX.Update(rateSP.X-in.IMU.Gyro.X, dt)
	ty := c.rateY.Update(rateSP.Y-in.IMU.Gyro.Y, dt)
	tz := c.rateZ.Update(rateSP.Z-in.IMU.Gyro.Z, dt)

	return Mix(thrust, tx, ty, tz)
}

func (c *Cascade) hoverThrottle() float64 {
	return math.Sqrt(c.Airframe.Mass * c.Airframe.Gravity / (4 * c.Airframe.MaxThrustPerRotor))
}

// wrapAngle maps an angle difference into (−π, π].
func wrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
