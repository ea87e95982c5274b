//! Transports carrying RADIUS datagrams between login nodes and servers.
//!
//! Two implementations:
//!
//! * [`InMemoryTransport`] — deterministic, in-process delivery to a
//!   [`RadiusServer`], with a [`FaultPlan`]
//!   for outage/packet-loss injection. The rollout simulator and the
//!   chaos harness use this.
//! * [`UdpTransport`] — real UDP datagrams, used by integration tests to
//!   prove the wire format is sound end to end.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use crate::server::RadiusServer;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Transport failures a client must survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No reply within the timeout (server down or datagram lost).
    Timeout,
    /// The server actively refused (simulated host-down).
    Unreachable,
    /// OS-level I/O failure.
    Io(String),
    /// Reply was not a decodable RADIUS packet.
    GarbledReply,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout => write!(f, "timeout waiting for reply"),
            TransportError::Unreachable => write!(f, "server unreachable"),
            TransportError::Io(e) => write!(f, "I/O error: {e}"),
            TransportError::GarbledReply => write!(f, "garbled reply"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A synchronous datagram exchange: one request, one reply.
pub trait Transport: Send + Sync {
    /// Send `request` bytes and receive the reply into `reply` (cleared
    /// first). The client walk reuses one reply buffer across retries and
    /// servers, so no attempt allocates for its reply.
    fn exchange_into(&self, request: &[u8], reply: &mut Vec<u8>) -> Result<(), TransportError>;

    /// [`Transport::exchange_into`] into a fresh buffer.
    /// Kept for `benchmark/src/sut.rs` until ROADMAP item 2.
    fn exchange(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let mut reply = Vec::new();
        self.exchange_into(request, &mut reply)?;
        Ok(reply)
    }

    /// Diagnostic name for logs and stats.
    fn name(&self) -> String;

    /// Simulated round-trip latency an answered exchange currently costs,
    /// in microseconds. Clients charge this to their virtual clock so the
    /// request-duration histogram — and the latency alert rules reading
    /// it — see injected latency spikes. Real transports return 0: their
    /// latency is wall time, which the virtual clock deliberately ignores.
    fn round_trip_latency_us(&self) -> u64 {
        0
    }
}

/// Deterministic fault injection for [`InMemoryTransport`].
///
/// All knobs are atomics so tests and the chaos harness can flip
/// them while clients run on other threads — exactly the "specific RADIUS
/// servers are unavailable" scenario §3.4 designs for.
///
/// **Ordering contract.** Configuration knobs (`down`, `drop_every`,
/// `garble_every`, `flap_period`, …) are plain flags: writers use `SeqCst`
/// stores and readers may observe a flip one exchange late, which is fine —
/// fault injection needs no cross-knob consistency. The cadence *counters*
/// are different: every `1-in-n` decision must be taken exactly once per
/// exchange even when several client threads exchange concurrently, so the
/// counters use `SeqCst` RMWs and the decision is made from the value the
/// RMW returned (never from a separate re-read).
#[derive(Default)]
pub struct FaultPlan {
    /// Host down: every exchange fails with `Unreachable`.
    pub down: AtomicBool,
    /// Drop one datagram in every `n` (0 = never): `Timeout`s.
    pub drop_every: AtomicU64,
    drop_counter: AtomicU64,
    /// Garble one reply in every `n` (0 = never): the client receives an
    /// undecodable datagram instead of the server's answer.
    pub garble_every: AtomicU64,
    garble_counter: AtomicU64,
    /// Flapping host: alternates `n` exchanges up, `n` exchanges down
    /// (0 = never flaps). Down phases fail with `Unreachable`.
    pub flap_period: AtomicU64,
    flap_counter: AtomicU64,
    /// Simulated one-way latency in microseconds, accumulated into
    /// `total_latency_us` rather than slept, keeping simulations fast and
    /// deterministic.
    pub latency_us: AtomicU64,
    /// Additional one-way latency during a spike (added to `latency_us`).
    pub extra_latency_us: AtomicU64,
    /// Sum of simulated latency incurred (2× per exchange).
    pub total_latency_us: AtomicU64,
}

impl FaultPlan {
    /// A healthy, zero-latency plan.
    pub fn healthy() -> Arc<Self> {
        Arc::new(FaultPlan::default())
    }

    /// Mark the host down/up.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// Drop one datagram in every `n` (0 disables).
    pub fn set_drop_every(&self, n: u64) {
        self.drop_every.store(n, Ordering::SeqCst);
    }

    /// Garble one reply in every `n` (0 disables).
    pub fn set_garble_every(&self, n: u64) {
        self.garble_every.store(n, Ordering::SeqCst);
    }

    /// Flap with half-period `n` exchanges (0 disables).
    pub fn set_flap_period(&self, n: u64) {
        self.flap_period.store(n, Ordering::SeqCst);
    }

    /// Add (or clear, with 0) a one-way latency spike.
    pub fn set_extra_latency_us(&self, us: u64) {
        self.extra_latency_us.store(us, Ordering::SeqCst);
    }

    /// One deterministic 1-in-`every` decision: advances `counter` and
    /// reports whether this exchange is selected. See the ordering
    /// contract in the type docs.
    fn cadence_hit(every: &AtomicU64, counter: &AtomicU64) -> bool {
        let n = every.load(Ordering::SeqCst);
        if n == 0 {
            return false;
        }
        let c = counter.fetch_add(1, Ordering::SeqCst).wrapping_add(1);
        c.is_multiple_of(n)
    }

    /// Returns whether this exchange should be dropped, advancing the
    /// deterministic counter.
    fn should_drop(&self) -> bool {
        Self::cadence_hit(&self.drop_every, &self.drop_counter)
    }

    /// Returns whether this exchange's reply should be garbled.
    fn should_garble(&self) -> bool {
        Self::cadence_hit(&self.garble_every, &self.garble_counter)
    }

    /// Returns whether the host is in the down half of a flap cycle,
    /// advancing the flap counter.
    fn flapping_down(&self) -> bool {
        let period = self.flap_period.load(Ordering::SeqCst);
        if period == 0 {
            return false;
        }
        let c = self.flap_counter.fetch_add(1, Ordering::SeqCst);
        c.checked_div(period).is_some_and(|half| half & 1 == 1)
    }

    /// Simulated round trip: twice the one-way latency, spike included.
    fn round_trip_us(&self) -> u64 {
        self.latency_us
            .load(Ordering::SeqCst)
            .saturating_add(self.extra_latency_us.load(Ordering::SeqCst))
            .saturating_mul(2)
    }

    fn charge_latency(&self) {
        let rt = self.round_trip_us();
        if rt > 0 {
            self.total_latency_us.fetch_add(rt, Ordering::SeqCst);
        }
    }
}

/// In-process transport delivering datagrams straight to a server's
/// datagram handler, through the full encode/decode path.
pub struct InMemoryTransport {
    server: Arc<RadiusServer>,
    faults: Arc<FaultPlan>,
    label: String,
    /// Number of exchanges attempted through this transport.
    pub exchanges: AtomicU64,
}

impl InMemoryTransport {
    /// Wire a transport to `server` with `faults`.
    pub fn new(label: &str, server: Arc<RadiusServer>, faults: Arc<FaultPlan>) -> Self {
        InMemoryTransport {
            server,
            faults,
            label: label.to_string(),
            exchanges: AtomicU64::new(0),
        }
    }
}

impl Transport for InMemoryTransport {
    fn exchange_into(&self, request: &[u8], reply: &mut Vec<u8>) -> Result<(), TransportError> {
        reply.clear();
        self.exchanges.fetch_add(1, Ordering::Relaxed);
        if self.faults.down.load(Ordering::SeqCst) || self.faults.flapping_down() {
            return Err(TransportError::Unreachable);
        }
        if self.faults.should_drop() {
            return Err(TransportError::Timeout);
        }
        self.faults.charge_latency();
        // A server that discards the datagram looks like a timeout to the
        // client, exactly as over UDP.
        if !self.server.process_into(request, reply, &mut Vec::new()) {
            return Err(TransportError::Timeout);
        }
        if self.faults.should_garble() {
            // Corrupt the reply on the wire: shorter than any legal RADIUS
            // packet and bit-flipped, so parsing fails at the client.
            reply.truncate(crate::MIN_PACKET_LEN - 8);
            reply.iter_mut().for_each(|b| *b ^= 0xa5);
        }
        Ok(())
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn round_trip_latency_us(&self) -> u64 {
        self.faults.round_trip_us()
    }
}

/// Real-UDP transport over one persistent socket.
///
/// Earlier revisions bound a fresh ephemeral socket and allocated a fresh
/// receive buffer for every exchange; at wire rate both dominated the
/// syscall budget. The socket is now bound lazily on first use and kept
/// for the transport's lifetime, and one receive buffer (guarded together
/// with the socket) is reused across exchanges.
///
/// Reusing a socket means a reply to a *timed-out earlier* exchange can
/// still be queued when the next exchange starts, so receives drain any
/// datagram whose RADIUS identifier byte does not match the in-flight
/// request until the deadline — a stale reply must surface as the original
/// timeout, never as an identifier mismatch on the next request. A
/// datagram from any address but the server's is drained the same way:
/// whoever can reach the ephemeral port must not be able to answer for the
/// server, nor have its junk charged to the server's breaker.
///
/// The receive timeout (`SO_RCVTIMEO`) is set once, at bind, to the
/// exchange timeout, not with a syscall before every receive. It runs
/// from the receive call, so an exchange's deadline can overshoot by the
/// gap between its send and its receive: well under a microsecond,
/// against a timeout of seconds. Only after draining a stale or foreign
/// datagram is it re-armed with what is left of the deadline, and the
/// next exchange restores the full timeout first.
pub struct UdpTransport {
    server_addr: SocketAddr,
    timeout: Duration,
    /// Lazily-bound socket plus the reusable receive buffer; one lock
    /// serializes exchanges so replies cannot cross between callers.
    io: parking_lot::Mutex<Option<UdpIo>>,
}

/// A [`UdpTransport`]'s bound socket, its receive buffer, and the receive
/// timeout the socket is armed with.
struct UdpIo {
    sock: UdpSocket,
    buf: Box<[u8; crate::MAX_PACKET_LEN]>,
    armed: Duration,
}

impl UdpTransport {
    /// Target `server_addr` with a per-exchange `timeout`.
    pub fn new(server_addr: SocketAddr, timeout: Duration) -> Self {
        UdpTransport {
            server_addr,
            timeout,
            io: parking_lot::Mutex::new(None),
        }
    }
}

impl Transport for UdpTransport {
    fn exchange_into(&self, request: &[u8], reply: &mut Vec<u8>) -> Result<(), TransportError> {
        reply.clear();
        let io_err = |e: std::io::Error| TransportError::Io(e.to_string());
        let mut guard = self.io.lock();
        let io = match guard.take() {
            Some(io) => io,
            None => {
                // The unspecified address of the server's family: a socket
                // bound to loopback can reach nothing but loopback.
                let local: SocketAddr = match self.server_addr {
                    SocketAddr::V4(_) => (Ipv4Addr::UNSPECIFIED, 0).into(),
                    SocketAddr::V6(_) => (Ipv6Addr::UNSPECIFIED, 0).into(),
                };
                let sock = UdpSocket::bind(local).map_err(io_err)?;
                sock.set_read_timeout(Some(self.timeout)).map_err(io_err)?;
                UdpIo {
                    sock,
                    buf: Box::new([0u8; crate::MAX_PACKET_LEN]),
                    armed: self.timeout,
                }
            }
        };
        let UdpIo { sock, buf, armed } = guard.insert(io);
        if *armed != self.timeout {
            sock.set_read_timeout(Some(self.timeout)).map_err(io_err)?;
            *armed = self.timeout;
        }
        sock.send_to(request, self.server_addr).map_err(io_err)?;
        let deadline = std::time::Instant::now()
            .checked_add(self.timeout)
            .ok_or_else(|| TransportError::Io("exchange timeout overflows the clock".into()))?;
        let mut drained = false;
        loop {
            if drained {
                // What was received was not the reply: wait out only what
                // is left of the deadline.
                let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    return Err(TransportError::Timeout);
                }
                sock.set_read_timeout(Some(remaining)).map_err(io_err)?;
                *armed = remaining;
            }
            drained = true;
            match sock.recv_from(buf.as_mut()) {
                // Not the server's: no reply, whatever it says. (Address
                // and port only — a V6 source also carries flow info and a
                // scope the configured address need not repeat.)
                Ok((_, from))
                    if (from.ip(), from.port())
                        != (self.server_addr.ip(), self.server_addr.port()) =>
                {
                    continue
                }
                // Drain stale replies (identifier byte differs from the
                // in-flight request's) left over from timed-out exchanges.
                Ok((n, _)) if n >= 2 && request.get(1).is_some_and(|id| buf.get(1) != Some(id)) => {
                    continue
                }
                Ok((n, _)) => {
                    // recv_from never reports more than the buffer holds.
                    reply.extend_from_slice(buf.get(..n).ok_or(TransportError::GarbledReply)?);
                    return Ok(());
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(TransportError::Timeout)
                }
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    fn name(&self) -> String {
        format!("udp://{}", self.server_addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_drop_cadence() {
        let plan = FaultPlan::default();
        plan.drop_every.store(3, Ordering::SeqCst);
        let pattern: Vec<bool> = (0..9).map(|_| plan.should_drop()).collect();
        assert_eq!(
            pattern,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn fault_plan_no_drops_by_default() {
        let plan = FaultPlan::default();
        assert!((0..100).all(|_| !plan.should_drop()));
    }

    #[test]
    fn latency_accounting() {
        let plan = FaultPlan::default();
        plan.latency_us.store(250, Ordering::SeqCst);
        plan.charge_latency();
        plan.charge_latency();
        assert_eq!(plan.total_latency_us.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn latency_spike_adds_to_base_latency() {
        let plan = FaultPlan::default();
        plan.latency_us.store(250, Ordering::SeqCst);
        plan.set_extra_latency_us(750);
        plan.charge_latency();
        assert_eq!(plan.total_latency_us.load(Ordering::SeqCst), 2000);
        plan.set_extra_latency_us(0);
        plan.charge_latency();
        assert_eq!(plan.total_latency_us.load(Ordering::SeqCst), 2500);
    }

    #[test]
    fn garble_cadence_is_deterministic() {
        let plan = FaultPlan::default();
        plan.set_garble_every(2);
        let pattern: Vec<bool> = (0..6).map(|_| plan.should_garble()).collect();
        assert_eq!(pattern, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn flap_alternates_up_and_down_phases() {
        let plan = FaultPlan::default();
        plan.set_flap_period(3);
        let pattern: Vec<bool> = (0..12).map(|_| plan.flapping_down()).collect();
        assert_eq!(
            pattern,
            vec![false, false, false, true, true, true, false, false, false, true, true, true]
        );
    }

    #[test]
    fn drop_and_garble_counters_are_independent() {
        let plan = FaultPlan::default();
        plan.set_drop_every(2);
        plan.set_garble_every(2);
        // Interleaved queries must not perturb each other's cadence.
        assert!(!plan.should_drop());
        assert!(!plan.should_garble());
        assert!(plan.should_drop());
        assert!(plan.should_garble());
    }
}
