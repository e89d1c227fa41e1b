// Package container models the Docker runtime layer of the paper's
// framework: images, container specs, the lifecycle state machine, a
// sandboxed network namespace with UDP port mappings (the hairpin-NAT
// configuration of §IV-B), and enforcement of the cgroup constraints
// (cpuset pinning, FIFO-priority cap, memory limit) on every task the
// container starts.
//
// The trust model follows the paper (§III-B): the isolation boundary
// itself is assumed sound — code inside the container can burn its own
// resources and talk through its mapped ports, but cannot escape the
// cpuset, exceed its priority cap, or reach unmapped host ports.
package container

import (
	"errors"
	"fmt"
	"time"

	"containerdrone/internal/cgroup"
	"containerdrone/internal/netsim"
	"containerdrone/internal/sched"
)

// Image identifies a container image, e.g. the Resin.io Raspbian
// Jessie image of the paper.
type Image struct {
	Name   string
	Tag    string
	SizeMB int
}

// String renders "name:tag".
func (i Image) String() string { return i.Name + ":" + i.Tag }

// PortMapping exposes one container UDP port on the host bridge.
type PortMapping struct {
	HostPort      int
	ContainerPort int
}

// Spec configures a container before creation.
type Spec struct {
	Name  string
	Image Image

	// CPUSet pins all container tasks to these cores (paper: one of
	// the four cores is assigned exclusively for CCE use).
	CPUSet cgroup.CPUSet
	// RTPrioCap is the maximum FIFO priority any container task may
	// take (Docker denies priority raising; §III-C).
	RTPrioCap int
	// MemoryLimitBytes bounds container allocations.
	MemoryLimitBytes int64
	// PIDLimit caps the processes the container may hold (Docker's
	// --pids-limit; the fork-bomb defense). 0 = unlimited.
	PIDLimit int
	// Ports are the UDP port mappings (paper: 14660 in, 14600 out).
	Ports []PortMapping
	// Privileged containers are refused: the paper creates the CCE
	// with no privilege flags.
	Privileged bool
}

// State is the container lifecycle state.
type State int

// Lifecycle states.
const (
	StateCreated State = iota
	StateRunning
	StateStopped
	StateKilled
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	case StateKilled:
		return "killed"
	default:
		return "unknown"
	}
}

// Errors returned by the runtime.
var (
	ErrPrivileged   = errors.New("container: privileged containers are not permitted")
	ErrNotRunning   = errors.New("container: not running")
	ErrBadState     = errors.New("container: invalid state transition")
	ErrPortBlocked  = errors.New("container: destination port not mapped")
	ErrDupContainer = errors.New("container: duplicate name")
)

// Container is one sandboxed workload.
type Container struct {
	spec    Spec
	state   State
	group   *cgroup.Group
	runtime *Runtime
	tasks   []*sched.Task
	// hostAddrByPort resolves a mapped host port to the host address
	// the container may send to.
	hostOK map[int]bool
	// inPorts are container-side ports reachable from the host.
	inPorts map[int]bool
	// routes/hostRoutes cache pre-resolved netsim routes per
	// (srcPort, hostPort) pair, outbound and inbound respectively.
	// Containers talk over a handful of fixed port pairs at high rates
	// (the 400 Hz motor stream, the UDP flood, the Table-I sensor
	// streams), so a linear scan of a tiny slice beats hashing three
	// maps per datagram.
	routes     []portRoute
	hostRoutes []hostRoute

	// Checkpoint state for RestoreCheckpoint: the task list and cgroup
	// process count as they stood when Checkpoint was called.
	chkTasks []*sched.Task
	chkPids  int
	chkValid bool
}

// portRoute is one cached container→host send path.
type portRoute struct {
	srcPort, hostPort int
	route             *netsim.Route
}

// hostRoute is one cached host→container (DNAT) send path.
type hostRoute struct {
	srcPort, hostPort int
	natGen            int
	conntrack         *int64
	route             *netsim.Route
}

// Spec returns the container's immutable spec.
func (c *Container) Spec() Spec { return c.spec }

// State returns the current lifecycle state.
func (c *Container) State() State { return c.state }

// Group exposes the container's cgroup for memory accounting.
func (c *Container) Group() *cgroup.Group { return c.group }

// Runtime is the container engine: it owns the docker cgroup subtree,
// the bridge network, and the containers. The engine's own overhead
// (the daemon process) is registered as a low-utilization host task —
// this is exactly what Table II measures.
type Runtime struct {
	cpu        *sched.CPU
	net        *netsim.Network
	nat        *netsim.NATTable
	root       *cgroup.Group
	dockerGrp  *cgroup.Group
	containers map[string]*Container
	hostName   string
	daemon     *sched.Task
}

// Config wires a runtime to its host substrates.
type Config struct {
	CPU  *sched.CPU
	Net  *netsim.Network
	Root *cgroup.Group
	// HostName is the host's network identity ("hce").
	HostName string
	// DaemonCore/DaemonUtil describe the container engine's standing
	// CPU cost. Utilization 0 disables the daemon task.
	DaemonCore int
	DaemonUtil float64
}

// NewRuntime builds a container engine.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.CPU == nil || cfg.Net == nil || cfg.Root == nil {
		return nil, errors.New("container: CPU, Net and Root are required")
	}
	grp, err := cfg.Root.NewChild("docker")
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		cpu: cfg.CPU,
		net: cfg.Net,
		// Hairpin NAT enabled, matching the paper's §IV-B deployment.
		nat:        netsim.NewNATTable(cfg.HostName, true),
		root:       cfg.Root,
		dockerGrp:  grp,
		containers: make(map[string]*Container),
		hostName:   cfg.HostName,
	}
	if cfg.DaemonUtil > 0 {
		// A long period keeps the daemon's WCET well above the
		// scheduler tick so its utilization is not quantized upward.
		period := 100 * time.Millisecond
		r.daemon = cfg.CPU.Add(&sched.Task{
			Name:     "dockerd",
			Core:     cfg.DaemonCore,
			Priority: 5,
			Period:   period,
			WCET:     time.Duration(cfg.DaemonUtil * float64(period)),
		})
	}
	return r, nil
}

// Create validates the spec and instantiates a container in the
// Created state.
func (r *Runtime) Create(spec Spec) (*Container, error) {
	if spec.Privileged {
		return nil, ErrPrivileged
	}
	if spec.Name == "" {
		return nil, errors.New("container: empty name")
	}
	if _, dup := r.containers[spec.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDupContainer, spec.Name)
	}
	grp, err := r.dockerGrp.NewChild(spec.Name)
	if err != nil {
		return nil, err
	}
	if spec.CPUSet != nil {
		grp.SetCPUSet(spec.CPUSet)
	}
	if spec.RTPrioCap > 0 {
		grp.SetRTPrioCap(spec.RTPrioCap)
	}
	if spec.MemoryLimitBytes > 0 {
		grp.SetMemoryLimit(spec.MemoryLimitBytes)
	}
	if spec.PIDLimit > 0 {
		grp.SetPIDLimit(spec.PIDLimit)
	}
	c := &Container{
		spec:    spec,
		state:   StateCreated,
		group:   grp,
		runtime: r,
		hostOK:  make(map[int]bool),
		inPorts: make(map[int]bool),
	}
	for _, pm := range spec.Ports {
		// Install the DNAT rule publishing the container port.
		dst := netsim.Addr{Host: spec.Name, Port: pm.ContainerPort}
		if err := r.nat.AddRule(pm.HostPort, dst); err != nil {
			// Roll back rules installed so far for this container.
			for _, prev := range spec.Ports {
				if prev.HostPort == pm.HostPort {
					break
				}
				r.nat.RemoveRule(prev.HostPort)
			}
			return nil, err
		}
		c.hostOK[pm.HostPort] = true
		c.inPorts[pm.ContainerPort] = true
	}
	r.containers[spec.Name] = c
	return c, nil
}

// NAT exposes the runtime's DNAT table (telemetry and tests).
func (r *Runtime) NAT() *netsim.NATTable { return r.nat }

// Get returns a container by name.
func (r *Runtime) Get(name string) (*Container, bool) {
	c, ok := r.containers[name]
	return c, ok
}

// Start transitions Created/Stopped → Running.
func (c *Container) Start() error {
	if c.state != StateCreated && c.state != StateStopped {
		return fmt.Errorf("%w: start from %v", ErrBadState, c.state)
	}
	c.state = StateRunning
	return nil
}

// Stop transitions Running → Stopped, removing the container's tasks
// from the scheduler (graceful shutdown).
func (c *Container) Stop() error {
	if c.state != StateRunning {
		return fmt.Errorf("%w: stop from %v", ErrBadState, c.state)
	}
	c.removeTasks()
	c.state = StateStopped
	return nil
}

// Kill forcefully terminates the container (the paper's Fig 6 attack
// kills the complex controller). Its NAT rules are withdrawn.
func (c *Container) Kill() {
	c.removeTasks()
	for _, pm := range c.spec.Ports {
		c.runtime.nat.RemoveRule(pm.HostPort)
	}
	c.state = StateKilled
}

func (c *Container) removeTasks() {
	for _, t := range c.tasks {
		c.runtime.cpu.Remove(t)
		c.group.Exit()
	}
	c.tasks = nil
}

// StartTask launches a task inside the container. The cgroup layer
// enforces cpuset and priority cap; violations are errors, exactly the
// mediation Docker applies to SCHED_FIFO requests.
func (c *Container) StartTask(t *sched.Task) error {
	if c.state != StateRunning {
		return ErrNotRunning
	}
	if err := c.group.CheckPlacement(t.Core, t.Priority); err != nil {
		return err
	}
	if err := c.group.Fork(); err != nil {
		return err
	}
	c.runtime.cpu.Add(t)
	c.tasks = append(c.tasks, t)
	return nil
}

// StopTask removes a single task from the container.
func (c *Container) StopTask(t *sched.Task) {
	for i, x := range c.tasks {
		if x == t {
			c.tasks = append(c.tasks[:i], c.tasks[i+1:]...)
			c.runtime.cpu.Remove(t)
			c.group.Exit()
			return
		}
	}
}

// Tasks returns the container's running tasks.
func (c *Container) Tasks() []*sched.Task { return c.tasks }

// Checkpoint records the container's task list and cgroup process
// count so RestoreCheckpoint can rewind to them. Call it when scenario
// construction completes, while the container is Running.
func (c *Container) Checkpoint() {
	c.chkTasks = append(c.chkTasks[:0], c.tasks...)
	c.chkPids = c.group.PIDs()
	c.chkValid = true
}

// RestoreCheckpoint restores the checkpointed bookkeeping: mid-run
// task arrivals (attack tasks) are forgotten, mid-run stops (a killed
// controller) are reinstated, and the cgroup process count rewinds to
// match. The scheduler's own RestoreFrom restores the tasks' scheduling
// state; this only re-aligns the container's view. The container must
// not have been stopped or killed since the checkpoint.
func (c *Container) RestoreCheckpoint() {
	if !c.chkValid {
		panic("container: RestoreCheckpoint without Checkpoint")
	}
	if c.state != StateRunning {
		panic(fmt.Sprintf("container: RestoreCheckpoint from state %v", c.state))
	}
	clear(c.tasks)
	c.tasks = append(c.tasks[:0], c.chkTasks...)
	for c.group.PIDs() > c.chkPids {
		c.group.Exit()
	}
	// Re-forking up to a previously admitted count cannot exceed any
	// limit: counts only shrank since the checkpoint.
	for c.group.PIDs() < c.chkPids {
		if err := c.group.Fork(); err != nil {
			panic(fmt.Sprintf("container: RestoreCheckpoint re-fork failed: %v", err))
		}
	}
}

// AtCheckpoint reports whether the container's bookkeeping (task list
// and cgroup process count) still matches its Checkpoint — true at any
// point of a run before attack or fault onset. The fork campaign's
// snapshot relies on this: a container still at its checkpoint needs no
// snapshot state of its own, because RestoreCheckpoint reproduces it
// exactly.
func (c *Container) AtCheckpoint() bool {
	if !c.chkValid || len(c.tasks) != len(c.chkTasks) {
		return false
	}
	for i, t := range c.tasks {
		if c.chkTasks[i] != t {
			return false
		}
	}
	return c.group.PIDs() == c.chkPids
}

// NetHost returns the container's network identity on the bridge.
func (c *Container) NetHost() string { return c.spec.Name }

// Bind exposes a container-side UDP port, returning its endpoint. Only
// mapped container ports may be bound (the sandboxed namespace has no
// other interfaces).
func (c *Container) Bind(port, queueCap int) (*netsim.Endpoint, error) {
	if !c.inPorts[port] {
		return nil, fmt.Errorf("%w: container port %d", ErrPortBlocked, port)
	}
	return c.runtime.net.Bind(netsim.Addr{Host: c.NetHost(), Port: port}, queueCap), nil
}

// Send transmits a datagram from the container to a host port. The
// sandboxed network namespace only reaches host ports that were
// explicitly mapped; everything else (the Internet, other hosts) is
// unreachable.
func (c *Container) Send(srcPort, hostPort int, payload []byte) error {
	if c.state != StateRunning {
		return ErrNotRunning
	}
	for i := range c.routes {
		if r := &c.routes[i]; r.srcPort == srcPort && r.hostPort == hostPort {
			r.route.Send(payload)
			return nil
		}
	}
	if !c.hostOK[hostPort] {
		return fmt.Errorf("%w: host port %d", ErrPortBlocked, hostPort)
	}
	src := netsim.Addr{Host: c.NetHost(), Port: srcPort}
	dst := netsim.Addr{Host: c.runtime.hostName, Port: hostPort}
	route := c.runtime.net.Route(src, dst)
	c.routes = append(c.routes, portRoute{srcPort: srcPort, hostPort: hostPort, route: route})
	route.Send(payload)
	return nil
}

// HostSend transmits from the host into a published container port —
// the feeder-thread direction (HCE → CCE sensor streams). The
// datagram is addressed to the host's own port and rewritten by the
// DNAT table, exactly how the paper's hairpin-NAT port mapping works.
func (r *Runtime) HostSend(c *Container, srcPort, hostPort int, payload []byte) error {
	if c.state != StateRunning {
		return ErrNotRunning
	}
	for i := range c.hostRoutes {
		hr := &c.hostRoutes[i]
		if hr.srcPort != srcPort || hr.hostPort != hostPort {
			continue
		}
		if hr.natGen == r.nat.Gen() {
			*hr.conntrack++
			hr.route.Send(payload)
			return nil
		}
		// The DNAT rule set changed (container stop/kill): drop the
		// stale entry and re-resolve below.
		c.hostRoutes = append(c.hostRoutes[:i], c.hostRoutes[i+1:]...)
		break
	}
	src := netsim.Addr{Host: r.hostName, Port: srcPort}
	addressed := netsim.Addr{Host: r.hostName, Port: hostPort}
	dst, conntrack := r.nat.Resolve(src, addressed)
	if conntrack != nil {
		// A rule applied: count the rewrite even if it publishes a
		// different container (matching Translate's accounting).
		*conntrack++
	}
	if dst == addressed || dst.Host != c.NetHost() {
		return fmt.Errorf("%w: host port %d does not publish container %q", ErrPortBlocked, hostPort, c.spec.Name)
	}
	route := r.net.Route(src, dst)
	c.hostRoutes = append(c.hostRoutes, hostRoute{
		srcPort: srcPort, hostPort: hostPort,
		natGen: r.nat.Gen(), conntrack: conntrack, route: route,
	})
	route.Send(payload)
	return nil
}
