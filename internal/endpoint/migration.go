package endpoint

import (
	crand "crypto/rand"
	"encoding/binary"
	"net"

	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
)

// Path migration (QUIC-style address validation, cf. RFC 9000 §8.2/§9;
// DESIGN.md "Path migration" is the design). A packet for a known ConnID
// from a new address opens a probing episode toward that address:
//
//	idle ──foreign packet──▶ probing ──matching PATH_RESPONSE──▶ validated
//	                            │                                (→ idle,
//	                            └──timeout / budget exhausted──▶ rejected
//
// Only a PATH_RESPONSE echoing the episode's crypto-random token from the
// challenged address validates it. Until then the address receives at
// most 3× the bytes it sent and its other frames are held back from the
// engines; validation resets the transport's path-derived state, and a
// failed candidate is latched rejected.
const (
	// migrationTimeout bounds one probing episode: a candidate address
	// that has not echoed the token within this window is rejected. Sized
	// like a handshake: several retransmit doublings beyond any sane RTT.
	migrationTimeout = 3 * sim.Second
	// migAmplificationFactor caps bytes sent to an unvalidated address as
	// a multiple of bytes received from it (RFC 9000 §8.1's 3×).
	migAmplificationFactor = 3
)

// pathState is the migration state of a connection's candidate path.
type pathState uint8

const (
	pathIdle     pathState = iota // no candidate address
	pathProbing                   // challenge outstanding to migAddr
	pathRejected                  // migAddr failed validation; latched
)

func (s pathState) String() string {
	switch s {
	case pathProbing:
		return "probing"
	case pathRejected:
		return "rejected"
	default:
		return "idle"
	}
}

// randToken draws the 64-bit challenge token from crypto/rand: the token
// is the only thing standing between an off-path attacker and a
// connection hijack, so it must be unguessable.
func randToken() (uint64, error) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

// wireSize is the bytes the packet occupies on the wire (encoding plus
// the CRC frame trailer) — the unit the amplification budget counts.
func wireSize(p *packet.Packet) int64 {
	return int64(p.EncodedLen() + frameTrailerLen)
}

// onForeignPacket handles a packet for an established connection arriving
// from an address other than the bound peer. Shard goroutine only.
func (sh *shard) onForeignPacket(c *Conn, p *packet.Packet, from *net.UDPAddr) {
	if !sh.ep.cfg.EnableMigration || !c.established {
		sh.rejectForeign(c, p)
		return
	}
	switch c.migState {
	case pathProbing:
		if addrEqual(from, c.migAddr) {
			c.migRx += wireSize(p)
			if p.Type == packet.TypePathResponse && p.Token == c.migToken {
				sh.completeMigration(c, p)
				return
			}
			// Non-response traffic from the candidate is held back until
			// the path validates (~1 RTT); the loss machinery repairs the
			// gap afterwards. Its bytes still widen the send budget.
			if c.migBlocked {
				sh.sendChallenge(c)
			}
			return
		}
		// The peer moved again mid-probe: chase the newest address with a
		// fresh token (the old episode's token dies with it).
		sh.startProbing(c, p, from)
	case pathRejected:
		if addrEqual(from, c.migAddr) {
			// The latched failed candidate: today's reject path.
			sh.rejectForeign(c, p)
			return
		}
		sh.startProbing(c, p, from)
	default: // pathIdle
		if p.Type == packet.TypePathResponse {
			// A response with no challenge outstanding proves nothing
			// (replay, or an attacker guessing): reject, don't probe.
			sh.rejectForeign(c, p)
			return
		}
		sh.startProbing(c, p, from)
	}
}

// rejectForeign is the pre-migration behavior, kept for disabled /
// unestablished / failed-candidate cases: count, tally for the
// migration-storm anomaly detector, trace through the flight recorder.
func (sh *shard) rejectForeign(c *Conn, p *packet.Packet) {
	sh.ep.mMigrationRejected.Inc()
	c.anom.migRejects++
	sh.touch(c) // feeds the migration-storm detector
	c.tracer.MigrationRejected(sh.loop.Now(), c.id, p.PktSeq, p.EncodedLen())
}

// startProbing opens a probing episode toward a new candidate address,
// seeded by the foreign packet p that announced it.
func (sh *shard) startProbing(c *Conn, p *packet.Packet, from *net.UDPAddr) {
	tok, err := randToken()
	if err != nil {
		// No entropy, no safe challenge: fall back to rejecting.
		sh.rejectForeign(c, p)
		return
	}
	c.migState = pathProbing
	c.migAddr = cloneAddr(from)
	c.migToken = tok
	c.migRx = wireSize(p)
	c.migTx = 0
	c.migRetries = 0
	c.migChallenges = 0
	c.migStarted = sh.loop.Now()
	c.migDeadline = c.migStarted + migrationTimeout
	sh.sendChallenge(c)
	sh.poke(c)
}

// sendChallenge emits one PATH_CHALLENGE to the candidate address, unless
// the anti-amplification budget is exhausted — then the challenge waits
// for the candidate to send more bytes (see onForeignPacket).
func (sh *shard) sendChallenge(c *Conn) {
	chp := &packet.Packet{
		Type: packet.TypePathChallenge, ConnID: c.id,
		SentAt: sh.loop.Now(), Token: c.migToken,
	}
	size := wireSize(chp)
	// Budget-blocked: the episode deadline still bounds how long a silent
	// candidate is tolerated.
	c.migBlocked = c.migTx+size > migAmplificationFactor*c.migRx
	if c.migBlocked {
		return
	}
	c.migTx += size
	c.migChallenges++
	c.migNext = sh.loop.Now() + sh.ep.cfg.handshakeRetryRTO(c.migRetries)
	c.migRetries++
	sh.ep.mMigProbes.Inc()
	c.tracer.PathChallenge(sh.loop.Now(), c.id, c.migChallenges, int(size))
	sh.enqueue(chp, c.migAddr)
}

// failMigration latches a candidate that never proved itself: subsequent
// packets from it take the reject path, a different address may still
// open a fresh probe.
func (sh *shard) failMigration(c *Conn) {
	c.migState = pathRejected
	sh.ep.mMigFailed.Inc()
	sh.refreshSnapshot(c)
}

// completeMigration repoints the connection at the validated address and
// resets the transport's path-derived state (slow-start restart, fresh
// RTT estimators) — everything learned about the old path is stale.
func (sh *shard) completeMigration(c *Conn, p *packet.Packet) {
	now := sh.loop.Now()
	c.peer = c.migAddr
	c.migState = pathIdle
	c.migAddr = nil
	c.migCompleted++
	c.lastRecv = now
	c.tracer.PathResponse(now, c.id, p.EncodedLen())
	if c.snd != nil {
		c.snd.OnPathMigration()
	}
	if c.rcv != nil {
		c.rcv.OnPathMigration()
	}
	sh.ep.mMigCompleted.Inc()
	c.tracer.MigrationCompleted(now, c.id, c.migChallenges, now-c.migStarted)
	sh.refreshSnapshot(c)
}

// onPathChallenge answers an on-path PATH_CHALLENGE from the bound peer:
// echo the token so the peer (whose view of *our* address changed — e.g.
// its NAT mapping for us expired) can validate this path. Answering is
// unconditional — it proves nothing beyond "we are here" — but only to
// the bound peer: echoing tokens for arbitrary third parties would make
// the endpoint a validation oracle. Shard goroutine only.
func (sh *shard) onPathChallenge(c *Conn, p *packet.Packet) {
	c.output(&packet.Packet{
		Type: packet.TypePathResponse, ConnID: c.id,
		SentAt: sh.loop.Now(), Token: p.Token,
	})
}
