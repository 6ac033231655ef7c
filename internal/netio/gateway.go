package netio

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"biscatter/internal/mac"
	"biscatter/internal/retry"
	"biscatter/internal/telemetry"
)

// ExchangeFunc runs one exchange round for the submitted tags and returns a
// per-tag outcome digest. The gateway owns round sequencing and session
// supervision; the function owns the physics (in production it drives
// core.Network.Exchange through an ExchangeRecorder — see core.Serve).
// Called from the gateway's single supervision goroutine, never
// concurrently.
type ExchangeFunc func(round uint64, uplinkBits map[uint8][]bool) (map[uint8]Outcome, error)

// Gateway defaults.
const (
	DefaultHeartbeatInterval = 200 * time.Millisecond
	DefaultSessionTimeout    = 2 * time.Second
	DefaultRoundTimeout      = time.Second
	DefaultBreakerThreshold  = 2
	DefaultPoll              = 20 * time.Millisecond
)

// resultCache bounds the per-session cache of recent round results used to
// answer retransmitted submissions idempotently.
const resultCache = 8

// GatewayConfig parameterizes a Gateway. The zero value is usable: every
// field has a default.
type GatewayConfig struct {
	// MinSessions gates round 0: the first round does not run until this
	// many tags hold sessions, so a fleet can assemble before the exchange
	// starts. Later rounds run with whoever is live.
	MinSessions int
	// Rounds bounds the run (0 = unbounded): after serving Rounds rounds
	// the gateway lingers until every session says Goodbye (or Linger
	// expires) and Run returns nil.
	Rounds uint64
	// HeartbeatInterval is advertised to clients in the HelloAck.
	HeartbeatInterval time.Duration
	// SessionTimeout evicts a session with no traffic for this long.
	SessionTimeout time.Duration
	// RoundTimeout runs a partially-submitted round this long after its
	// first submission instead of waiting for stragglers forever.
	RoundTimeout time.Duration
	// Schedule, when set, makes the gateway schedule-aware: sessions are
	// admitted into the schedule's TDMA frame groups (tag ID 1+i maps to
	// the schedule's tag index i unless GroupOf overrides it) and the round
	// barrier is evaluated per frame group; with a matching
	// core.Config.Schedule each round runs as one ExchangeScheduled cycle.
	Schedule *mac.FrameSchedule
	// GroupOf overrides the tag → frame-group mapping (e.g. a multi-network
	// GatewayMux numbers groups across networks). Called only from the
	// supervision goroutine.
	//
	// The planned group decides admission: a tag is admitted exactly when
	// GroupOf, else the Schedule, places it (-1 means it is not deployed,
	// and its Hello is answered HelloRejectUnknown). With neither set every
	// tag is planned into group 0 and admitted.
	GroupOf func(tagID uint8) int
	// FrameTimeout is the per-frame-group barrier timeout: a group whose
	// first submission is this old stops waiting for its stragglers even
	// though RoundTimeout has not passed globally (default RoundTimeout,
	// which degenerates to the unscheduled all-active barrier).
	FrameTimeout time.Duration
	// BreakerThreshold opens a session's circuit breaker after this many
	// consecutive missed rounds (default 2). An open session is quarantined:
	// the round barrier stops waiting for it, and its next submission is the
	// half-open probe that closes the breaker again.
	BreakerThreshold int
	// Poll is the receive-poll granularity of the supervision loop.
	Poll time.Duration
	// Linger bounds the post-Rounds wait for Goodbyes (default
	// SessionTimeout).
	Linger time.Duration
	// Metrics receives netio.* counters/gauges/histograms (nil = disabled).
	Metrics *telemetry.Metrics
	// Tracer receives a Trip on session eviction, breaker opening and
	// exchange errors (nil = disabled).
	Tracer *telemetry.Tracer
	// Logf, when set, receives supervision-event logs.
	Logf func(format string, args ...any)
}

func (c *GatewayConfig) applyDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = DefaultSessionTimeout
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = DefaultRoundTimeout
	}
	if c.FrameTimeout <= 0 {
		c.FrameTimeout = c.RoundTimeout
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.Poll <= 0 {
		c.Poll = DefaultPoll
	}
	if c.Linger <= 0 {
		c.Linger = c.SessionTimeout
	}
}

// session is one tag's supervised connection, owned by the supervision
// goroutine.
type session struct {
	id    uint64
	tagID uint8
	addr  *net.UDPAddr
	seen  time.Time

	// group is the session's TDMA frame group, assigned at admission (and
	// re-derived on replace, so a tag whose assignment changed between
	// attempts lands in its new group while keeping the round cursor).
	group int

	// breaker counts consecutive missed rounds toward quarantine.
	breaker retry.Breaker

	// pending round submission.
	hasPending  bool
	pendingBits []bool

	// results caches recent round results (keyed by round) so
	// retransmitted submissions are answered idempotently; order tracks
	// insertion for bounded eviction.
	results map[uint64]*RoundResult
	order   []uint64
}

// Gateway supervises many tag sessions over one Conn and drives the
// exchange round loop: handshake with protocol-version check and admission
// of exactly the tags its frame plan places, heartbeat liveness with
// deadline-based eviction, and per-session circuit breakers that
// quarantine unresponsive tags while the rest of the fleet keeps
// exchanging. Every reply is sent from the supervision goroutine.
type Gateway struct {
	conn Conn
	cfg  GatewayConfig
	fn   ExchangeFunc

	sessions map[uint8]*session // by tag ID
	nextSID  uint64
	round    uint64

	firstSubmit time.Time // zero when no pending submission
	roundsDone  time.Time // zero until cfg.Rounds rounds served

	// groupFirst tracks, per frame group, when the current round's first
	// submission from that group arrived — the per-group barrier clock.
	groupFirst map[int]time.Time

	// telemetry
	gSessions                          *telemetry.Gauge
	cAccepted, cResumed, cReplaced     *telemetry.Counter
	cRejected, cEvicted, cGoodbye      *telemetry.Counter
	cRounds, cRetries                  *telemetry.Counter
	cBreakerOpen, cBreakerClose        *telemetry.Counter
	cExchangeErr, cHello, cAdmRejected *telemetry.Counter
}

// NewGateway builds a Gateway serving fn over conn. Run starts it.
func NewGateway(conn Conn, cfg GatewayConfig, fn ExchangeFunc) *Gateway {
	cfg.applyDefaults()
	g := &Gateway{
		conn: conn, cfg: cfg, fn: fn,
		sessions:   make(map[uint8]*session),
		groupFirst: make(map[int]time.Time),
	}
	if m := cfg.Metrics; m != nil {
		g.gSessions = m.Gauge("netio.sessions")
		g.cHello = m.Counter("netio.hello")
		g.cAccepted = m.Counter("netio.sessions.accepted")
		g.cResumed = m.Counter("netio.sessions.resumed")
		g.cReplaced = m.Counter("netio.sessions.replaced")
		g.cRejected = m.Counter("netio.sessions.rejected")
		g.cEvicted = m.Counter("netio.evicted")
		g.cGoodbye = m.Counter("netio.goodbye")
		g.cRounds = m.Counter("netio.rounds")
		g.cRetries = m.Counter("netio.retries")
		g.cBreakerOpen = m.Counter("netio.breaker.open")
		g.cBreakerClose = m.Counter("netio.breaker.close")
		g.cExchangeErr = m.Counter("netio.exchange.errors")
		g.cAdmRejected = m.Counter("netio.admission.rejected")
	}
	return g
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// Run drives the supervision loop until ctx is cancelled, the socket
// closes, or (when cfg.Rounds > 0) every round has been served and every
// session has departed (or Linger expired). Single-goroutine by design:
// session and round state need no locks, and every send happens here.
func (g *Gateway) Run(ctx context.Context) error {
	defer func() {
		for _, s := range g.sessions {
			g.dropSession(s)
		}
	}()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		now := time.Now()
		g.evictExpired(now)
		g.maybeRunRound(now)
		if done, err := g.finished(now); done {
			return err
		}
		m, from, err := g.conn.Recv(g.cfg.Poll)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return err
			}
			// ErrTimeout is the idle tick; malformed datagrams were already
			// counted by the Conn.
			continue
		}
		g.dispatch(time.Now(), m, from)
	}
}

// finished reports whether a bounded run is complete.
func (g *Gateway) finished(now time.Time) (bool, error) {
	if g.cfg.Rounds == 0 || g.round < g.cfg.Rounds {
		return false, nil
	}
	if g.roundsDone.IsZero() {
		g.roundsDone = now
	}
	if len(g.sessions) == 0 {
		return true, nil
	}
	if now.Sub(g.roundsDone) > g.cfg.Linger {
		g.logf("gateway: linger expired with %d sessions still open", len(g.sessions))
		return true, nil
	}
	return false, nil
}

func (g *Gateway) dispatch(now time.Time, m Message, from *net.UDPAddr) {
	switch msg := m.(type) {
	case *Hello:
		g.onHello(now, msg, from)
	case *Heartbeat:
		g.onHeartbeat(now, msg, from)
	case *SubmitRound:
		g.onSubmit(now, msg, from)
	case *Goodbye:
		g.onGoodbye(msg)
	default:
		g.logf("gateway: unexpected %v from %v", m.Type(), from)
	}
}

func (g *Gateway) onHello(now time.Time, h *Hello, from *net.UDPAddr) {
	g.cHello.Inc()
	if h.Version != ProtocolVersion {
		g.cRejected.Inc()
		g.send(from, &HelloAck{
			Code:   HelloRejectVersion,
			Reason: fmt.Sprintf("gateway speaks protocol %d, client sent %d", ProtocolVersion, h.Version),
		})
		return
	}
	code := HelloAccept
	s, ok := g.sessions[h.TagID]
	if ok && h.SessionID == s.id {
		// The tag found its way back (new source address after a restart
		// of its socket): adopt in place.
		code = HelloResume
		s.addr = from
		g.cResumed.Inc()
	} else {
		group := g.plannedGroup(h.TagID)
		if group < 0 {
			g.cAdmRejected.Inc()
			g.cRejected.Inc()
			g.logf("gateway: tag %d rejected: not deployed", h.TagID)
			g.send(from, &HelloAck{
				Code:   HelloRejectUnknown,
				Reason: fmt.Sprintf("tag %d is not deployed on this gateway", h.TagID),
			})
			return
		}
		if ok {
			// Same tag, unknown/zero session: replace the stale session. The
			// frame group is re-derived, so an assignment that changed while
			// the tag was away takes effect here — while the round cursor in
			// the ack below still resumes the tag at the gateway's next round.
			code = HelloResume
			g.dropSession(s)
			g.cReplaced.Inc()
		} else {
			g.cAccepted.Inc()
		}
		s = g.newSession(h.TagID, from)
		s.group = group
	}
	s.seen = now
	g.gSessions.Set(float64(len(g.sessions)))
	g.logf("gateway: hello tag %d → %v session %d (next round %d)", h.TagID, code, s.id, g.round)
	g.send(s.addr, &HelloAck{
		Code:            code,
		SessionID:       s.id,
		NextRound:       g.round,
		HeartbeatMillis: uint32(g.cfg.HeartbeatInterval / time.Millisecond),
	})
}

// plannedGroup is a tag's planned frame group: GroupOf's, else the
// schedule's tag-index convention, else 0; -1 for a tag outside the plan.
func (g *Gateway) plannedGroup(tagID uint8) int {
	switch {
	case g.cfg.GroupOf != nil:
		return g.cfg.GroupOf(tagID)
	case g.cfg.Schedule != nil:
		return g.cfg.Schedule.GroupOf(int(tagID) - 1)
	}
	return 0
}

func (g *Gateway) newSession(tagID uint8, from *net.UDPAddr) *session {
	g.nextSID++
	s := &session{
		id:      g.nextSID,
		tagID:   tagID,
		addr:    from,
		results: make(map[uint64]*RoundResult),
	}
	g.sessions[tagID] = s
	return s
}

// send transmits m to addr; a failed send is logged, and the peer's
// retransmission or the liveness deadline recovers from it.
func (g *Gateway) send(addr *net.UDPAddr, m Message) {
	if err := g.conn.Send(addr, m); err != nil {
		g.logf("gateway: send %v to %v: %v", m.Type(), addr, err)
	}
}

// dropSession removes a session.
func (g *Gateway) dropSession(s *session) {
	delete(g.sessions, s.tagID)
	g.gSessions.Set(float64(len(g.sessions)))
}

// track refreshes the session's liveness and return address on an
// in-session message.
func (s *session) track(now time.Time, from *net.UDPAddr) {
	s.seen = now
	s.addr = from
}

func (g *Gateway) sessionByID(id uint64) *session {
	for _, s := range g.sessions {
		if s.id == id {
			return s
		}
	}
	return nil
}

func (g *Gateway) onHeartbeat(now time.Time, hb *Heartbeat, from *net.UDPAddr) {
	if s := g.sessionByID(hb.SessionID); s != nil {
		s.track(now, from)
	}
}

func (g *Gateway) onGoodbye(gb *Goodbye) {
	s := g.sessionByID(gb.SessionID)
	if s == nil {
		return
	}
	g.cGoodbye.Inc()
	g.logf("gateway: goodbye tag %d (session %d)", s.tagID, s.id)
	g.dropSession(s)
}

func (g *Gateway) onSubmit(now time.Time, sub *SubmitRound, from *net.UDPAddr) {
	s := g.sessionByID(sub.SessionID)
	if s == nil {
		// Unknown session (evicted, or the gateway restarted): tell the
		// client to re-handshake.
		g.send(from, &Evict{SessionID: sub.SessionID, Reason: "unknown session"})
		return
	}
	s.track(now, from)

	switch {
	case sub.Round < g.round:
		// A retransmission of an already-served round: answer from the
		// result cache, idempotently.
		g.cRetries.Inc()
		if rr, ok := s.results[sub.Round]; ok {
			g.send(s.addr, rr)
		} else {
			g.send(s.addr, &RoundResult{SessionID: s.id, Round: sub.Round, Status: RoundSkipped})
		}
	case sub.Round > g.round:
		g.logf("gateway: tag %d submitted future round %d (current %d)", s.tagID, sub.Round, g.round)
	case s.hasPending:
		// Duplicate submission for the pending round (client retry racing
		// the barrier): first write wins, the response is on its way.
		g.cRetries.Inc()
	default:
		s.hasPending = true
		s.pendingBits = sub.GetBits()
		if g.firstSubmit.IsZero() {
			g.firstSubmit = now
		}
		if _, ok := g.groupFirst[s.group]; !ok {
			g.groupFirst[s.group] = now
		}
		if s.breaker.Probe() {
			// The quarantined tag is answering again: this submission is
			// the half-open probe.
			g.logf("gateway: breaker half-open for tag %d (probe round %d)", s.tagID, g.round)
		}
	}
}

// maybeRunRound runs the current round when the barrier is met: at least
// one submission, and either every frame group's barrier is satisfied or
// RoundTimeout has passed since the round's first submission (the global
// backstop). On an unscheduled gateway every session is in group 0 and
// FrameTimeout defaults to RoundTimeout, so this degenerates to the
// original all-active barrier.
func (g *Gateway) maybeRunRound(now time.Time) {
	if g.cfg.Rounds > 0 && g.round >= g.cfg.Rounds {
		return
	}
	if g.firstSubmit.IsZero() {
		return
	}
	if g.round == 0 && len(g.sessions) < g.cfg.MinSessions {
		return
	}
	if now.Sub(g.firstSubmit) < g.cfg.RoundTimeout && !g.groupsReady(now) {
		return
	}
	g.runRound()
}

// groupsReady evaluates the round barrier per frame group: a waiting
// (non-quarantined, not-yet-submitted) session blocks the round only until
// its group's FrameTimeout elapses, measured from that group's own first
// submission. A group whose members are all silent never starts its clock;
// the global RoundTimeout in maybeRunRound covers it.
func (g *Gateway) groupsReady(now time.Time) bool {
	for _, s := range g.sessions {
		if s.breaker.State == retry.Open || s.hasPending {
			continue
		}
		first, ok := g.groupFirst[s.group]
		if !ok || now.Sub(first) < g.cfg.FrameTimeout {
			return false
		}
	}
	return true
}

func (g *Gateway) runRound() {
	round := g.round
	bits := make(map[uint8][]bool)
	for _, s := range g.sessions {
		if s.hasPending {
			bits[s.tagID] = s.pendingBits
		}
	}
	if len(bits) == 0 {
		// Every submitter was evicted before the barrier fired; there is
		// no round to run.
		g.firstSubmit = time.Time{}
		clear(g.groupFirst)
		return
	}
	outcomes, err := g.fn(round, bits)
	g.cRounds.Inc()
	if err != nil {
		g.cExchangeErr.Inc()
		g.cfg.Tracer.Trip(fmt.Sprintf("netio: exchange error round %d: %v", round, err))
		g.logf("gateway: round %d exchange error: %v", round, err)
	}

	for _, s := range g.sessions {
		var rr *RoundResult
		switch {
		case !s.hasPending:
			// Missed the barrier: BreakerThreshold misses in a row open
			// the breaker (a miss after a half-open probe reopens it). The
			// skipped result is cached so the straggler's eventual
			// submission gets a truthful answer.
			rr = &RoundResult{SessionID: s.id, Round: round, Status: RoundSkipped}
			if s.breaker.Fail(g.cfg.BreakerThreshold) {
				g.cBreakerOpen.Inc()
				g.cfg.Tracer.Trip(fmt.Sprintf("netio: breaker open: tag %d missed %d rounds", s.tagID, s.breaker.Fails))
				g.logf("gateway: breaker open for tag %d after %d misses", s.tagID, s.breaker.Fails)
			}
		case err != nil:
			rr = &RoundResult{SessionID: s.id, Round: round, Status: RoundError,
				Outcome: Outcome{Err: err.Error()}}
		default:
			out, ok := outcomes[s.tagID]
			if !ok {
				out = Outcome{Err: fmt.Sprintf("no outcome for tag %d", s.tagID)}
			}
			rr = &RoundResult{SessionID: s.id, Round: round, Status: RoundOK, Outcome: out}
		}
		g.cacheResult(s, rr)
		if s.hasPending {
			// A served round ends the miss run; after a half-open probe it
			// closes the breaker.
			if s.breaker.Succeed() {
				g.cBreakerClose.Inc()
				g.logf("gateway: breaker closed for tag %d", s.tagID)
			}
			g.send(s.addr, rr)
		}
		s.hasPending = false
		s.pendingBits = nil
	}
	g.round++
	g.firstSubmit = time.Time{}
	clear(g.groupFirst)
	g.logf("gateway: round %d served (%d tags)", round, len(bits))
}

func (g *Gateway) cacheResult(s *session, rr *RoundResult) {
	if _, ok := s.results[rr.Round]; !ok {
		s.order = append(s.order, rr.Round)
		for len(s.order) > resultCache {
			delete(s.results, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.results[rr.Round] = rr
}

// evictExpired removes sessions whose liveness deadline passed, notifying
// the client so it can re-handshake.
func (g *Gateway) evictExpired(now time.Time) {
	for _, s := range g.sessions {
		if now.Sub(s.seen) <= g.cfg.SessionTimeout {
			continue
		}
		g.logf("gateway: evicting tag %d (session %d): silent past %v", s.tagID, s.id, g.cfg.SessionTimeout)
		g.send(s.addr, &Evict{SessionID: s.id, Reason: "heartbeat deadline passed"})
		// Drop first, so an observer that sees the eviction counted also
		// sees the sessions gauge without it.
		g.dropSession(s)
		g.cEvicted.Inc()
		g.cfg.Tracer.Trip(fmt.Sprintf("netio: session evicted: tag %d silent for %v", s.tagID, now.Sub(s.seen).Round(time.Millisecond)))
	}
}
