package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"containerdrone/internal/fault"
	"containerdrone/internal/sim"
)

// stateAllowlist names the only fields TestStateComplete does not
// compare, keyed "<package>.<Type>.<field>". Every entry is a pool or
// a cache: storage whose contents depend on past traffic or past
// ticks but never feed what a run computes next. Anything else that a
// rewind leaves behind is a missing piece of captured state.
var stateAllowlist = map[string]string{
	"netsim.Network.free":            "payload buffer pool; its population depends on past traffic, and every buffer is overwritten before use",
	"netsim.Endpoint.handed":         "pool buffers lent by the last receive call; they return to the pool on the next one and are never read again",
	"sim.Engine.due":                 "per-Step scratch of the slow processes due this tick; truncated at the start of every Step",
	"sched.CPU.running":              "per-core winner cache; RestoreFrom marks every core dirty and the next Tick re-picks it from the restored ready set",
	"sched.CPU.dirty":                "invalidation flags of the per-core winner cache (see sched.CPU.running)",
	"sched.CPU.dirtyCount":           "count of the winner-cache invalidation flags (see sched.CPU.running)",
	"sched.CPU.demand":               "per-tick scratch; Tick rewrites every core's demand before it reads it",
	"container.Container.routes":     "resolved container-to-host send paths, cached on first use of each port pair",
	"container.Container.hostRoutes": "resolved host-to-container send paths, cached on first use of each port pair",
	"netsim.Route.gen":               "generation stamp of the route's cached resolution (see netsim.Route.ep)",
	"netsim.Route.ep":                "destination endpoint cached on first send, re-resolved whenever the topology generation moves",
	"netsim.Route.tb":                "destination rate limiter cached alongside netsim.Route.ep",
	"core.System.tick0":              "build-time cache of the just-built System that Reset restores; written once by New, read-only after, and it holds the build seed's RNG streams",
	"core.System.violScratch":        "reused backing storage for a swarm result's violation list",
	"core.System.gcsPayload":         "fleet downlink encode scratch, rewritten before every send",
	"core.System.gcsFrame":           "fleet downlink encode scratch, rewritten before every send",
	"core.Drone.sendPayload":         "sensor-stream encode scratch, rewritten before every send",
	"core.Drone.sendFrame":           "sensor-stream encode scratch, rewritten before every send",
	"core.Drone.hostIn":              "host controller-input scratch, fully rewritten by every hostInputs call",
	"core.Drone.cceMotorPayload":     "container motor-stream encode scratch, rewritten before every send",
	"core.Drone.cceMotorFrame":       "container motor-stream encode scratch, rewritten before every send",
}

// stateDiff walks two System graphs in lockstep and records where
// they differ. Pointers are followed once per (left, right) pair;
// func values are skipped (closures are wiring, rebuilt identically
// by New); slices compare by length and elements, never capacity;
// maps compare by content.
type stateDiff struct {
	seen  map[statePair]bool
	used  map[string]bool
	path  []string
	diffs []string
}

type statePair struct {
	a, b uintptr
	t    reflect.Type
}

const maxStateDiffs = 12

func diffState(a, b *System, used map[string]bool) []string {
	d := &stateDiff{seen: map[statePair]bool{}, used: used}
	d.walk(reflect.ValueOf(a), reflect.ValueOf(b))
	return d.diffs
}

func (d *stateDiff) report(format string, args ...any) {
	if len(d.diffs) < maxStateDiffs {
		d.diffs = append(d.diffs, "System"+strings.Join(d.path, "")+": "+fmt.Sprintf(format, args...))
	}
}

func (d *stateDiff) walk(a, b reflect.Value) {
	if len(d.diffs) >= maxStateDiffs {
		return
	}
	switch a.Kind() {
	case reflect.Func:
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.report("nil %v vs %v", a.IsNil(), b.IsNil())
			}
			return
		}
		key := statePair{a.Pointer(), b.Pointer(), a.Type()}
		if d.seen[key] {
			return
		}
		d.seen[key] = true
		d.walk(a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				d.report("nil %v vs %v", a.IsNil(), b.IsNil())
			}
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			d.report("dynamic type %v vs %v", a.Elem().Type(), b.Elem().Type())
			return
		}
		d.walk(a.Elem(), b.Elem())
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.Field(i).Name
			if key := t.String() + "." + name; stateAllowlist[key] != "" {
				d.used[key] = true
				continue
			}
			d.path = append(d.path, "."+name)
			d.walk(a.Field(i), b.Field(i))
			d.path = d.path[:len(d.path)-1]
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			d.report("len %d vs %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			d.path = append(d.path, fmt.Sprintf("[%d]", i))
			d.walk(a.Index(i), b.Index(i))
			d.path = d.path[:len(d.path)-1]
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			d.report("map len %d vs %d", a.Len(), b.Len())
			return
		}
		if a.Type().Key().Kind() == reflect.Pointer {
			d.report("map keyed by pointer cannot be matched across graphs")
			return
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			d.path = append(d.path, fmt.Sprintf("[%v]", iter.Key()))
			if !bv.IsValid() {
				d.report("key missing on the right")
			} else {
				d.walk(iter.Value(), bv)
			}
			d.path = d.path[:len(d.path)-1]
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			d.report("%v vs %v", a.Float(), b.Float())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			d.report("%v vs %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			d.report("%d vs %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			d.report("%d vs %d", a.Uint(), b.Uint())
		}
	case reflect.String:
		if a.String() != b.String() {
			d.report("%q vs %q", a.String(), b.String())
		}
	default:
		d.report("unsupported kind %v", a.Kind())
	}
}

// stateForkTick is where TestStateComplete snapshots a source: the
// earliest attack or fault onset (rounded the way Engine.At rounds, so
// the onset one-shot is still pending), or two seconds in when the
// scenario schedules none.
func stateForkTick(cfg Config) int64 {
	var onset time.Duration
	consider := func(t time.Duration) {
		if t > 0 && (onset == 0 || t < onset) {
			onset = t
		}
	}
	if cfg.Attack.Active() {
		consider(cfg.Attack.Start)
	}
	for _, sp := range cfg.Faults.Specs {
		if sp.Kind != fault.KindNone {
			consider(sp.Start)
		}
	}
	if onset == 0 {
		onset = 2 * time.Second
	}
	return int64((onset + sim.Tick/2) / sim.Tick)
}

// TestStateComplete checks, field by field, that the rewind mechanism
// captures all run state. For every registry scenario:
//
//   - a System that flew 20 s under a decoy seed and was then Reset to
//     seed must equal a fresh core.New at seed;
//   - a source flown to its fork tick and snapshotted, restored onto a
//     warm System that flew a full attacked flight, must equal the
//     source.
//
// The walk covers the whole System graph; only stateAllowlist's pool
// and cache fields are exempt, and each of them must still exist.
func TestStateComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("flies two full flights per registry scenario; run without -short")
	}
	const seed, decoy = 21, 0xDECAF
	const dur = 20 * time.Second
	ctx := context.Background()
	used := map[string]bool{}
	ran := 0
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			ran++
			build := func(s uint64) *System {
				t.Helper()
				cfg, err := Build(sc.Name, Options{Seed: s, Duration: dur})
				if err != nil {
					t.Fatal(err)
				}
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}

			warm := build(decoy)
			warm.Run()
			warm.Reset(seed)
			if diffs := diffState(warm, build(seed), used); len(diffs) > 0 {
				t.Errorf("Reset(seed) after a flight differs from New at seed:\n  %s", strings.Join(diffs, "\n  "))
			}

			src := build(seed)
			if err := src.RunToTickContext(ctx, stateForkTick(src.Cfg)); err != nil {
				t.Fatal(err)
			}
			snap := src.Snapshot()
			warm = build(decoy)
			warm.Run()
			warm.RestoreFrom(seed, snap)
			if diffs := diffState(warm, src, used); len(diffs) > 0 {
				t.Errorf("RestoreFrom onto a flown System differs from the snapshot source:\n  %s", strings.Join(diffs, "\n  "))
			}
		})
	}
	if ran < len(Scenarios()) {
		return // a filtered run need not meet every allowlisted field
	}
	for key := range stateAllowlist {
		if !used[key] {
			t.Errorf("allowlist entry %s matches no field of any System", key)
		}
	}
}
