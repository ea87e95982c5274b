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
    /// Send `request` bytes, wait for the reply bytes.
    fn exchange(&self, request: &[u8]) -> Result<Vec<u8>, TransportError>;

    /// [`Transport::exchange`] into a caller-provided buffer (cleared
    /// first). The client walk reuses one reply buffer across retries and
    /// servers, so per-attempt allocation disappears from the hot path.
    /// The default copies; [`UdpTransport`] receives straight into `reply`.
    fn exchange_into(&self, request: &[u8], reply: &mut Vec<u8>) -> Result<(), TransportError> {
        let r = self.exchange(request)?;
        reply.clear();
        reply.extend_from_slice(&r);
        Ok(())
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
        let c = counter.fetch_add(1, Ordering::SeqCst) + 1;
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
        (c / period) % 2 == 1
    }

    fn charge_latency(&self) {
        let l =
            self.latency_us.load(Ordering::SeqCst) + self.extra_latency_us.load(Ordering::SeqCst);
        if l > 0 {
            self.total_latency_us.fetch_add(2 * l, Ordering::SeqCst);
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
    fn exchange(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
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
        let reply = self
            .server
            .process_datagram(request)
            .ok_or(TransportError::Timeout)?;
        if self.faults.should_garble() {
            // Corrupt the reply on the wire: shorter than any legal RADIUS
            // packet and bit-flipped, so decode must fail at the client.
            let garbled: Vec<u8> = reply
                .iter()
                .take(crate::MIN_PACKET_LEN - 8)
                .map(|b| b ^ 0xa5)
                .collect();
            return Ok(garbled);
        }
        Ok(reply)
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn round_trip_latency_us(&self) -> u64 {
        2 * (self.faults.latency_us.load(Ordering::SeqCst)
            + self.faults.extra_latency_us.load(Ordering::SeqCst))
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
pub struct UdpTransport {
    server_addr: SocketAddr,
    timeout: Duration,
    /// Lazily-bound socket plus the reusable receive buffer; one lock
    /// serializes exchanges so replies cannot cross between callers.
    io: parking_lot::Mutex<Option<(UdpSocket, Box<[u8; crate::MAX_PACKET_LEN]>)>>,
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
    fn exchange(&self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        let mut reply = Vec::new();
        self.exchange_into(request, &mut reply)?;
        Ok(reply)
    }

    fn exchange_into(&self, request: &[u8], reply: &mut Vec<u8>) -> Result<(), TransportError> {
        reply.clear();
        let io_err = |e: std::io::Error| TransportError::Io(e.to_string());
        let mut guard = self.io.lock();
        if guard.is_none() {
            // The unspecified address of the server's family: a socket
            // bound to loopback can reach nothing but loopback.
            let local: SocketAddr = match self.server_addr {
                SocketAddr::V4(_) => (Ipv4Addr::UNSPECIFIED, 0).into(),
                SocketAddr::V6(_) => (Ipv6Addr::UNSPECIFIED, 0).into(),
            };
            let sock = UdpSocket::bind(local).map_err(io_err)?;
            *guard = Some((sock, Box::new([0u8; crate::MAX_PACKET_LEN])));
        }
        let (sock, buf) = guard.as_mut().expect("socket bound above");
        sock.send_to(request, self.server_addr).map_err(io_err)?;
        let deadline = std::time::Instant::now() + self.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(TransportError::Timeout);
            }
            sock.set_read_timeout(Some(remaining)).map_err(io_err)?;
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
                Ok((n, _)) if n >= 2 && request.len() >= 2 && buf[1] != request[1] => continue,
                Ok((n, _)) => {
                    reply.extend_from_slice(&buf[..n]);
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
