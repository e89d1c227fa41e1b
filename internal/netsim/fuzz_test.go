package netsim

import (
	"bytes"
	"testing"
	"time"

	"containerdrone/internal/mavlink"
	"containerdrone/internal/sensors"
)

// FuzzRecv drives the pooled ring-buffer receive path with an
// arbitrary op script and checks it against a reference model: every
// payload handed out must match, byte for byte, what was sent — in
// FIFO order, with queue-full drops accounted — no matter how sends,
// steps, Recv, and Drain interleave. This layer recycles payloads
// through free lists and grows rings on demand; the fuzzer hunts for
// recycling bugs (a pooled buffer handed out twice, a drop that leaks,
// a ring wrap that reorders, a ring doubling that loses or reorders
// the wrapped packets) that a fixed test sequence would never hit. The
// queue capacity is fuzzed too (1 + depth%32), on both sides of the
// ring's initial size, so growth at every head position is in reach.
func FuzzRecv(f *testing.F) {
	// Seed corpus: captured MAVLink frames as payload material (the
	// real traffic mix), plus op scripts covering each op.
	motor := mavlink.Encode(mavlink.Frame{
		MsgID: mavlink.MsgIDMotor,
		Payload: mavlink.EncodeMotor(mavlink.MotorCommand{
			TimeUS: 12_500_000, Motors: [4]float64{0.52, 0.51, 0.52, 0.51}, Seq: 42, Armed: true,
		}),
	})
	imu := mavlink.Encode(mavlink.Frame{
		MsgID:   mavlink.MsgIDIMU,
		Payload: mavlink.EncodeIMU(sensors.IMUReading{TimeUS: 12_500_000}),
	})
	f.Add([]byte{0, 1, 2, 0, 0, 1, 3, 0, 1, 2, 2, 3}, motor, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 0, 1, 3}, imu, uint8(3))
	f.Add(bytes.Repeat([]byte{0, 1, 2}, 40), motor, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 3, 2}, []byte{0xA5}, uint8(3))
	// Queues deeper than the initial ring: move head off slot 0, then
	// overfill so the ring doubles (8 → 16 → 20) while wrapped and
	// finally drops at capacity.
	wrapFill := append([]byte{0, 0, 0, 0, 0, 1, 2, 2, 2}, bytes.Repeat([]byte{0}, 30)...)
	wrapFill = append(wrapFill, 1, 2, 2, 0, 0, 1, 3)
	f.Add(wrapFill, motor, uint8(19))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 1, 2}, 30), imu, uint8(19))
	f.Add(bytes.Repeat([]byte{0, 0, 1, 2}, 30), motor, uint8(31))
	f.Fuzz(func(t *testing.T, script, payload []byte, depth uint8) {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		queueCap := 1 + int(depth%32)
		n := New(nil, nil)
		src := Addr{Host: "a", Port: 1}
		dst := Addr{Host: "b", Port: 2}
		ep := n.Bind(dst, queueCap)

		// Reference model: payload copies in flight and queued.
		var inflight, queued [][]byte
		var seq byte
		now := time.Duration(0)

		mkPayload := func() []byte {
			// Unique, variable-length content derived from the fuzzed
			// material: a slice of payload plus a sequence byte.
			end := 1 + int(seq)%len(payload)
			p := append([]byte(nil), payload[:end]...)
			p = append(p, seq)
			seq++
			return p
		}
		checkPacket := func(pkt Packet, op string) {
			if len(queued) == 0 {
				t.Fatalf("%s returned a packet but model queue is empty", op)
			}
			if !bytes.Equal(pkt.Payload, queued[0]) {
				t.Fatalf("%s payload = %x, want %x (FIFO head)", op, pkt.Payload, queued[0])
			}
			queued = queued[1:]
		}

		for _, op := range script {
			switch op % 4 {
			case 0: // send
				p := mkPayload()
				if n.Send(src, dst, p) {
					inflight = append(inflight, p)
				} else {
					t.Fatal("send into a bound, unlimited endpoint failed")
				}
			case 1: // step: zero-latency fabric delivers everything
				now += time.Millisecond
				n.Step(now)
				for _, p := range inflight {
					if len(queued) < queueCap {
						queued = append(queued, p)
					} // else: queue-full drop, recycled to the pool
				}
				inflight = inflight[:0]
			case 2: // recv one
				pkt, ok := ep.Recv()
				if ok != (len(queued) > 0) {
					t.Fatalf("Recv ok=%v with %d queued", ok, len(queued))
				}
				if ok {
					checkPacket(pkt, "Recv")
				}
			case 3: // drain all
				pkts := ep.Drain()
				if len(pkts) != len(queued) {
					t.Fatalf("Drain returned %d packets, model holds %d", len(pkts), len(queued))
				}
				for _, pkt := range pkts {
					checkPacket(pkt, "Drain")
				}
			}
			if ep.Pending() != len(queued) {
				t.Fatalf("Pending() = %d, model holds %d", ep.Pending(), len(queued))
			}
		}

		// Drain the remainder; totals must reconcile exactly.
		now += time.Millisecond
		n.Step(now)
		for _, p := range inflight {
			if len(queued) < queueCap {
				queued = append(queued, p)
			}
		}
		for _, pkt := range ep.Drain() {
			checkPacket(pkt, "final Drain")
		}
		if len(queued) != 0 {
			t.Fatalf("%d modeled packets never delivered", len(queued))
		}
		st := ep.Stats()
		if st.Received != st.Delivered {
			t.Fatalf("stats: received %d != delivered %d after full drain", st.Received, st.Delivered)
		}
	})
}

// FuzzRecvMultiEndpoint is the fleet reading of FuzzRecv: three member
// endpoints — the swarm scenarios' hce/hce1/hce2 — bound on ONE shared
// fabric, driven by an arbitrary interleaving of sends, steps, and
// receives. The payload pool is Network-owned and shared by every
// endpoint, so the property under attack is cross-member isolation:
// a buffer lent to member A must never be recycled into member B's
// traffic while A still holds it, and each member's FIFO order must
// survive interleaved delivery. Each op byte's high bits pick the
// member, low bits the op, so the corpus drives asymmetric loads
// (one member flooded while another drains) the single-endpoint
// fuzzer cannot express. The queue capacity is fuzzed as in FuzzRecv.
func FuzzRecvMultiEndpoint(f *testing.F) {
	motor := mavlink.Encode(mavlink.Frame{
		MsgID: mavlink.MsgIDMotor,
		Payload: mavlink.EncodeMotor(mavlink.MotorCommand{
			TimeUS: 12_500_000, Motors: [4]float64{0.52, 0.51, 0.52, 0.51}, Seq: 42, Armed: true,
		}),
	})
	// Round-robin across members; flood member 0 while 1 and 2 drain;
	// deliver to all then drain in reverse member order.
	f.Add([]byte{0x00, 0x10, 0x20, 0x03, 0x02, 0x12, 0x22}, motor, uint8(3))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x13, 0x23, 0x12, 0x22}, motor, uint8(3))
	f.Add([]byte{0x00, 0x10, 0x20, 0x03, 0x23, 0x13, 0x03}, []byte{0xA5, 0x5A}, uint8(3))
	f.Add(bytes.Repeat([]byte{0x00, 0x13, 0x20, 0x02}, 24), motor, uint8(3))
	// Queues deeper than the initial ring: member 0's head moves off
	// slot 0, then members 0 and 1 take 12 packets in one delivery, so
	// both rings double (member 0's while wrapped) amid member 2's
	// drains; the last seed fills member 1 until it drops.
	wrapFill := []byte{0x00, 0x00, 0x00, 0x01, 0x02, 0x02, 0x02}
	wrapFill = append(wrapFill, bytes.Repeat([]byte{0x00, 0x10, 0x20, 0x23}, 12)...)
	wrapFill = append(wrapFill, 0x01, 0x02, 0x12, 0x03, 0x13)
	f.Add(wrapFill, motor, uint8(19))
	f.Add(bytes.Repeat([]byte{0x00, 0x10, 0x10, 0x01, 0x02, 0x22}, 20), motor, uint8(12))
	f.Fuzz(func(t *testing.T, script, payload []byte, depth uint8) {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		const members = 3
		queueCap := 1 + int(depth%32)
		n := New(nil, nil)
		src := Addr{Host: "gcs", Port: 9}
		var eps [members]*Endpoint
		var dst [members]Addr
		for m := 0; m < members; m++ {
			host := "hce"
			if m > 0 {
				host += string(rune('0' + m))
			}
			dst[m] = Addr{Host: host, Port: 100 + m}
			eps[m] = n.Bind(dst[m], queueCap)
		}

		// Per-member reference model, plus the last payload each member
		// was handed: it must stay intact until that member's next
		// receive call, no matter what the other members do in between.
		var inflight, queued [members][][]byte
		var held, heldWant [members][]byte
		var seq byte
		now := time.Duration(0)

		mkPayload := func(m int) []byte {
			end := 1 + int(seq)%len(payload)
			p := append([]byte(nil), payload[:end]...)
			p = append(p, seq, byte(m))
			seq++
			return p
		}
		checkHeld := func(m int) {
			if held[m] != nil && !bytes.Equal(held[m], heldWant[m]) {
				t.Fatalf("member %d's lent payload clobbered by other members' traffic: %x, want %x",
					m, held[m], heldWant[m])
			}
		}
		checkPacket := func(m int, pkt Packet, op string) {
			if len(queued[m]) == 0 {
				t.Fatalf("%s on member %d returned a packet but model queue is empty", op, m)
			}
			if !bytes.Equal(pkt.Payload, queued[m][0]) {
				t.Fatalf("%s on member %d payload = %x, want %x (FIFO head)", op, m, pkt.Payload, queued[m][0])
			}
			queued[m] = queued[m][1:]
			held[m], heldWant[m] = pkt.Payload, append(heldWant[m][:0], pkt.Payload...)
		}

		for _, op := range script {
			m := int(op>>4) % members
			switch op % 4 {
			case 0: // send to member m
				p := mkPayload(m)
				if n.Send(src, dst[m], p) {
					inflight[m] = append(inflight[m], p)
				} else {
					t.Fatal("send into a bound, unlimited endpoint failed")
				}
			case 1: // step: zero-latency fabric delivers to every member
				now += time.Millisecond
				n.Step(now)
				for k := 0; k < members; k++ {
					for _, p := range inflight[k] {
						if len(queued[k]) < queueCap {
							queued[k] = append(queued[k], p)
						}
					}
					inflight[k] = inflight[k][:0]
				}
			case 2: // recv one at member m
				pkt, ok := eps[m].Recv()
				if ok != (len(queued[m]) > 0) {
					t.Fatalf("member %d Recv ok=%v with %d queued", m, ok, len(queued[m]))
				}
				if ok {
					checkPacket(m, pkt, "Recv")
				} else {
					held[m] = nil
				}
			case 3: // drain member m
				pkts := eps[m].Drain()
				if len(pkts) != len(queued[m]) {
					t.Fatalf("member %d Drain returned %d packets, model holds %d", m, len(pkts), len(queued[m]))
				}
				held[m] = nil // an empty drain still recycles the lent buffers
				for _, pkt := range pkts {
					checkPacket(m, pkt, "Drain")
				}
			}
			for k := 0; k < members; k++ {
				checkHeld(k)
				if eps[k].Pending() != len(queued[k]) {
					t.Fatalf("member %d Pending() = %d, model holds %d", k, eps[k].Pending(), len(queued[k]))
				}
			}
		}

		// Deliver and drain every member; totals must reconcile.
		now += time.Millisecond
		n.Step(now)
		for m := 0; m < members; m++ {
			for _, p := range inflight[m] {
				if len(queued[m]) < queueCap {
					queued[m] = append(queued[m], p)
				}
			}
			for _, pkt := range eps[m].Drain() {
				checkPacket(m, pkt, "final Drain")
			}
			if len(queued[m]) != 0 {
				t.Fatalf("member %d: %d modeled packets never delivered", m, len(queued[m]))
			}
			st := eps[m].Stats()
			if st.Received != st.Delivered {
				t.Fatalf("member %d stats: received %d != delivered %d after full drain", m, st.Received, st.Delivered)
			}
		}
	})
}
