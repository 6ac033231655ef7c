package main

import (
	"net"
	"sync"
	"time"

	"biscatter/internal/netio"
	"biscatter/internal/telemetry"
)

// side tells a decorated Conn which end of the session it carries.
type side int

const (
	clientSide side = iota
	gatewaySide
)

// roundKey identifies one tag's submission for one round on the wire.
type roundKey struct{ sid, round uint64 }

// wireTap collects the traced run's netio timestamps from outside the
// program: a Conn decorator on every endpoint and an ExchangeFunc decorator
// on the gateway's handler report here. Only the first timestamp per key is
// kept, so a retransmission does not move a chain's start. Collection is
// off until start, so set-up traffic is not counted.
type wireTap struct {
	// metrics is handed to the decorated clients, so their existing retry
	// counter (netio.client.retries) is readable afterwards.
	metrics *telemetry.Metrics

	mu                                     sync.Mutex
	on                                     bool
	clientSend, gwRecv, gwSend, clientRecv map[roundKey]time.Time
	handlerIn, handlerOut                  map[uint64]time.Time
	sendUs                                 dist
	msgs, bytes                            int
	retries0                               int64
}

func newWireTap() *wireTap {
	return &wireTap{
		metrics:    telemetry.New(),
		clientSend: make(map[roundKey]time.Time),
		gwRecv:     make(map[roundKey]time.Time),
		gwSend:     make(map[roundKey]time.Time),
		clientRecv: make(map[roundKey]time.Time),
		handlerIn:  make(map[uint64]time.Time),
		handlerOut: make(map[uint64]time.Time),
	}
}

func (t *wireTap) retries() int64 {
	return t.metrics.Snapshot().Counters["netio.client.retries"]
}

func (t *wireTap) start() {
	r := t.retries()
	t.mu.Lock()
	t.on, t.retries0 = true, r
	t.mu.Unlock()
}

func (t *wireTap) stop() {
	t.mu.Lock()
	t.on = false
	t.mu.Unlock()
}

func setFirst(m map[roundKey]time.Time, k roundKey, at time.Time) {
	if _, ok := m[k]; !ok {
		m[k] = at
	}
}

// conn decorates a Conn. The decorated endpoint behaves exactly like the
// bare one: the wrapper only reads the messages and the clock.
func (t *wireTap) conn(c netio.Conn, s side) netio.Conn {
	return &tapConn{Conn: c, tap: t, side: s}
}

type tapConn struct {
	netio.Conn
	tap  *wireTap
	side side
}

func (c *tapConn) Send(addr *net.UDPAddr, m netio.Message) error {
	t0 := time.Now()
	err := c.Conn.Send(addr, m)
	t1 := time.Now()
	c.tap.sent(c.side, m, t0, t1)
	return err
}

func (c *tapConn) Recv(timeout time.Duration) (netio.Message, *net.UDPAddr, error) {
	m, from, err := c.Conn.Recv(timeout)
	if err == nil {
		c.tap.received(c.side, m, time.Now())
	}
	return m, from, err
}

func (t *wireTap) sent(s side, m netio.Message, t0, t1 time.Time) {
	// The wire size is the marshalled envelope; marshalling again here is
	// tracing cost, paid only in the traced run.
	size := 0
	if buf, err := netio.Marshal(m); err == nil {
		size = len(buf)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.msgs++
	t.bytes += size
	t.sendUs.add(float64(t1.Sub(t0)) / 1e3)
	switch msg := m.(type) {
	case *netio.SubmitRound:
		if s == clientSide {
			setFirst(t.clientSend, roundKey{msg.SessionID, msg.Round}, t0)
		}
	case *netio.RoundResult:
		if s == gatewaySide {
			setFirst(t.gwSend, roundKey{msg.SessionID, msg.Round}, t0)
		}
	}
}

func (t *wireTap) received(s side, m netio.Message, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	switch msg := m.(type) {
	case *netio.SubmitRound:
		if s == gatewaySide {
			setFirst(t.gwRecv, roundKey{msg.SessionID, msg.Round}, at)
		}
	case *netio.RoundResult:
		if s == clientSide {
			setFirst(t.clientRecv, roundKey{msg.SessionID, msg.Round}, at)
		}
	}
}

// handler decorates the gateway's ExchangeFunc with entry and exit stamps.
func (t *wireTap) handler(fn netio.ExchangeFunc) netio.ExchangeFunc {
	return func(round uint64, bits map[uint8][]bool) (map[uint8]netio.Outcome, error) {
		in := time.Now()
		out, err := fn(round, bits)
		exit := time.Now()
		t.mu.Lock()
		if t.on {
			t.handlerIn[round], t.handlerOut[round] = in, exit
		}
		t.mu.Unlock()
		return out, err
	}
}

// wireReport splits each client's round time into chained parts:
//
//	SubmitRound call → client Send            client (not netio)
//	client Send → gateway Recv                wireIn
//	this submit's Recv → the round's last     (skew is first → last, per round)
//	last Recv → handler entry                 barrier (one per round)
//	handler entry → exit                      service (one per round)
//	handler exit → the result's Send          resultQueue
//	gateway Send → client Recv                wireOut
//	client Recv → SubmitRound return          client (not netio)
//
// The parts telescope, so chained/total is the share of client round time
// the netio and core timestamps account for.
type wireReport struct {
	wireIn, wireOut, skew, barrier, resultQueue, service, sendUs dist
	msgsPerRound, bytesPerRound, attemptsPerSubmit               float64
	chained, total                                               float64 // ms
	matched, unmatched                                           int
}

// report matches the timed loop's submissions against the stamps. sids[i]
// is client i's session ID.
func (t *wireTap) report(subs []submission, sids []uint64, rounds int) wireReport {
	retries := t.retries()
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := wireReport{sendUs: t.sendUs}
	if rounds > 0 {
		rep.msgsPerRound = float64(t.msgs) / float64(rounds)
		rep.bytesPerRound = float64(t.bytes) / float64(rounds)
	}
	if len(subs) > 0 {
		rep.attemptsPerSubmit = float64(int64(len(subs))+retries-t.retries0) / float64(len(subs))
	}
	firstRecv, lastRecv := make(map[uint64]time.Time), make(map[uint64]time.Time)
	for _, sub := range subs {
		at, ok := t.gwRecv[roundKey{sids[sub.nodes[0].node], sub.round}]
		if !ok {
			continue
		}
		if first, seen := firstRecv[sub.round]; !seen || at.Before(first) {
			firstRecv[sub.round] = at
		}
		if at.After(lastRecv[sub.round]) {
			lastRecv[sub.round] = at
		}
	}
	for r, last := range lastRecv {
		rep.skew.addDur(last.Sub(firstRecv[r]))
		in, ok := t.handlerIn[r]
		if !ok {
			continue
		}
		rep.barrier.addDur(in.Sub(last))
		rep.service.addDur(t.handlerOut[r].Sub(in))
	}
	for _, sub := range subs {
		k := roundKey{sids[sub.nodes[0].node], sub.round}
		cs, ok1 := t.clientSend[k]
		gr, ok2 := t.gwRecv[k]
		gs, ok3 := t.gwSend[k]
		cr, ok4 := t.clientRecv[k]
		hin, ok5 := t.handlerIn[sub.round]
		if !(ok1 && ok2 && ok3 && ok4 && ok5) {
			rep.unmatched++
			continue
		}
		rep.matched++
		hout, last := t.handlerOut[sub.round], lastRecv[sub.round]
		parts := []struct {
			d  *dist
			at time.Duration
		}{
			{&rep.wireIn, gr.Sub(cs)},
			{nil, last.Sub(gr)},
			{nil, hin.Sub(last)},
			{nil, hout.Sub(hin)},
			{&rep.resultQueue, gs.Sub(hout)},
			{&rep.wireOut, cr.Sub(gs)},
		}
		for _, p := range parts {
			if p.d != nil {
				p.d.addDur(p.at)
			}
			rep.chained += float64(p.at) / 1e6
		}
		rep.total += float64(sub.end.Sub(sub.start)) / 1e6
	}
	return rep
}

// coverage is the chained parts' share of client round time.
func (r wireReport) coverage() float64 {
	if r.total == 0 {
		return 0
	}
	return r.chained / r.total
}
