//! RADIUS proxy chaining (§3.2: the protocol "allows for flexible deployment
//! that is capable of load balancing and proxy chaining across servers").
//!
//! A [`ProxyHandler`] is a [`Handler`] that forwards each Access-Request to
//! an upstream pool through a [`RadiusClient`], tagging the request with a
//! `Proxy-State` attribute (RFC 2865 §5.33) and stripping it from the reply.
//! In the paper's deployment the FreeRADIUS tier proxies between login nodes
//! and the LinOTP host exactly this way.

use crate::attribute::{Attribute, AttributeType};
use crate::client::{Outcome, RadiusClient};
use crate::packet::Packet;
use crate::server::{Handler, ServerDecision};
use crate::tracewire;
use hpcmfa_telemetry::{MetricsRegistry, SecurityEventKind, SpanStatus};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A handler that relays requests to an upstream client pool.
pub struct ProxyHandler {
    upstream: Arc<RadiusClient>,
    /// Identifier stamped into the Proxy-State attribute.
    proxy_id: String,
    /// RNG for upstream request authenticators.
    rng: Mutex<StdRng>,
    /// Requests proxied.
    pub forwarded: AtomicU64,
    /// Upstream failures turned into local discards.
    pub upstream_failures: AtomicU64,
    /// Shared registry; defaults to the upstream client's.
    metrics: Arc<MetricsRegistry>,
}

impl ProxyHandler {
    /// Create a proxy relaying to `upstream`. `seed` keeps simulations
    /// deterministic. Metrics and spans go to the upstream client's
    /// registry.
    pub fn new(proxy_id: &str, upstream: Arc<RadiusClient>, seed: u64) -> Self {
        let metrics = Arc::clone(upstream.metrics());
        Self::with_metrics(proxy_id, upstream, seed, metrics)
    }

    /// Create a proxy recording into an explicit registry.
    pub(crate) fn with_metrics(
        proxy_id: &str,
        upstream: Arc<RadiusClient>,
        seed: u64,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        ProxyHandler {
            upstream,
            proxy_id: proxy_id.to_string(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            forwarded: AtomicU64::new(0),
            upstream_failures: AtomicU64::new(0),
            metrics,
        }
    }
}

/// The names one forwarding hop goes by.
pub(crate) struct Hop<'a> {
    /// Span component: `radius.proxy` / `radius.realm`.
    pub component: &'static str,
    /// What the hop's name is filed under in the span attributes and the
    /// failure event: `proxy` / `realm`.
    pub key: &'static str,
    /// The proxy id / realm name.
    pub name: &'a str,
    /// Span detail of a forward the upstream pool did not answer.
    pub failed: &'static str,
    /// The event such a failure raises, and what its detail says after
    /// `key=name`.
    pub event: (SecurityEventKind, &'static str),
}

/// Relay one Access-Request to `upstream` and turn the verified outcome
/// back into a reply: `Some` of the outcome's label and the decision, or
/// `None` when the pool gave no usable answer — the span is closed in
/// error and the hop's event raised; what the downstream client is told
/// then is the caller's policy.
///
/// The caller's trace context is re-forwarded upstream so the home
/// server's audit rows carry the id the login node minted: the `forward`
/// span opens on the caller's wire clock under the caller's attempt span,
/// and the upstream client's request span nests under it in turn.
pub(crate) fn forward(
    metrics: &MetricsRegistry,
    upstream: &RadiusClient,
    rng: &Mutex<StdRng>,
    hop: &Hop<'_>,
    request: &Packet,
    password: &[u8],
) -> Option<(&'static str, ServerDecision)> {
    let username = request.text(AttributeType::UserName).unwrap_or_default();
    let calling = request
        .text(AttributeType::CallingStationId)
        .unwrap_or_default();
    let state = request.attribute(AttributeType::State);
    let wire_ctx = tracewire::trace_ctx_of(request);

    let mut guard = wire_ctx.map(|w| {
        let mut g = metrics
            .tracer()
            .start(&w.span_ctx(), hop.component, "forward");
        g.attr_str(hop.key, hop.name);
        g
    });
    let span_id = guard.as_ref().map(|g| g.id());
    let child_ctx = guard.as_ref().map(|g| g.child_ctx());
    let result = upstream.request(
        &mut *rng.lock(),
        username,
        password,
        calling,
        state.map(|a| a.value.as_slice()),
        child_ctx.as_ref(),
    );

    let label = match &result {
        Ok(Outcome::Accept { .. }) => "accept",
        Ok(Outcome::Reject { .. }) => "reject",
        Ok(Outcome::Challenge { .. }) => "challenge",
        Err(_) => hop.failed,
    };
    if let Some(g) = guard.as_mut() {
        g.set_detail(label);
        if result.is_err() {
            g.set_status(SpanStatus::Error);
        }
    }
    drop(guard);

    let decision = match result {
        Ok(Outcome::Accept { message }) => ServerDecision::Accept(reply_attrs(message)),
        Ok(Outcome::Reject { message }) => ServerDecision::Reject(reply_attrs(message)),
        Ok(Outcome::Challenge { state, message }) => {
            let mut attrs = reply_attrs(message);
            attrs.push(Attribute::new(AttributeType::State, state));
            ServerDecision::Challenge(attrs)
        }
        Err(_) => {
            let (kind, what) = hop.event;
            metrics.emit_event(
                kind,
                wire_ctx.map(|w| w.trace),
                span_id,
                upstream.vclock_us(),
                format!("{}={} {what}", hop.key, hop.name),
            );
            return None;
        }
    };
    // Report our trace clock (advanced by the upstream exchange) back to
    // the caller so its attempt span encloses this whole hop.
    Some((label, decision.with_clock(child_ctx.as_ref())))
}

impl Handler for ProxyHandler {
    fn handle(&self, request: &Packet, password: Option<&[u8]>) -> ServerDecision {
        // A proxy cannot forward a password it cannot decrypt; RFC behaviour
        // is to decrypt with the downstream secret and re-hide upstream —
        // our client re-hides on send, so we need the cleartext here.
        let Some(password) = password else {
            return ServerDecision::Discard;
        };
        let proxy = [("proxy", self.proxy_id.as_str())];
        self.forwarded.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .counter("hpcmfa_radius_proxy_forwarded_total", &proxy)
            .inc();
        let hop = Hop {
            component: "radius.proxy",
            key: "proxy",
            name: &self.proxy_id,
            failed: "upstream_failed",
            event: (SecurityEventKind::BreakerFlap, "upstream_failed"),
        };
        match forward(
            &self.metrics,
            &self.upstream,
            &self.rng,
            &hop,
            request,
            password,
        ) {
            Some((_, decision)) => decision,
            None => {
                // RFC: a proxy that cannot reach its home server stays
                // silent; the NAS will fail over to another proxy.
                self.upstream_failures.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .counter("hpcmfa_radius_proxy_upstream_failures_total", &proxy)
                    .inc();
                ServerDecision::Discard
            }
        }
    }
}

impl ProxyHandler {}

fn reply_attrs(message: Option<String>) -> Vec<Attribute> {
    message
        .map(|m| vec![Attribute::text(AttributeType::ReplyMessage, &m)])
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, ClientError};
    use crate::server::RadiusServer;
    use crate::transport::{FaultPlan, InMemoryTransport, Transport};

    const HOME_SECRET: &[u8] = b"home-secret";
    const EDGE_SECRET: &[u8] = b"edge-secret";

    /// Build home server (token logic) ← proxy ← client, with *different*
    /// shared secrets on each hop, as real deployments use.
    fn chain() -> (RadiusClient, Arc<FaultPlan>) {
        let home_handler: Arc<dyn Handler> =
            Arc::new(|_req: &Packet, pw: Option<&[u8]>| match pw {
                Some(b"") => ServerDecision::Challenge(vec![
                    Attribute::new(AttributeType::State, b"st".to_vec()),
                    Attribute::text(AttributeType::ReplyMessage, "TACC Token:"),
                ]),
                Some(b"123456") => ServerDecision::Accept(vec![]),
                _ => ServerDecision::Reject(vec![]),
            });
        let home = Arc::new(RadiusServer::new(HOME_SECRET, home_handler));
        let home_faults = FaultPlan::healthy();
        let home_transport: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(
            "home",
            home,
            Arc::clone(&home_faults),
        ));
        let upstream = Arc::new(RadiusClient::new(
            ClientConfig::new(HOME_SECRET, "proxy1"),
            vec![home_transport],
        ));
        let proxy_handler = Arc::new(ProxyHandler::new("proxy1", upstream, 99));
        let edge = Arc::new(RadiusServer::new(EDGE_SECRET, proxy_handler));
        let client = RadiusClient::new(
            ClientConfig::new(EDGE_SECRET, "login1"),
            vec![Arc::new(InMemoryTransport::new(
                "edge",
                edge,
                FaultPlan::healthy(),
            ))],
        );
        (client, home_faults)
    }

    #[test]
    fn proxied_accept() {
        let (client, _) = chain();
        let mut rng = StdRng::seed_from_u64(1);
        let out = client
            .authenticate(&mut rng, "alice", b"123456", "1.2.3.4")
            .unwrap();
        assert!(matches!(out, Outcome::Accept { .. }));
    }

    #[test]
    fn proxied_challenge_round_trip() {
        let (client, _) = chain();
        let mut rng = StdRng::seed_from_u64(2);
        let out = client
            .authenticate(&mut rng, "alice", b"", "1.2.3.4")
            .unwrap();
        let Outcome::Challenge { state, message } = out else {
            panic!("expected challenge");
        };
        assert_eq!(message.as_deref(), Some("TACC Token:"));
        let fin = client
            .respond_to_challenge(&mut rng, "alice", b"123456", "1.2.3.4", &state)
            .unwrap();
        assert!(matches!(fin, Outcome::Accept { .. }));
    }

    #[test]
    fn proxied_reject() {
        let (client, _) = chain();
        let mut rng = StdRng::seed_from_u64(3);
        let out = client
            .authenticate(&mut rng, "alice", b"000000", "1.2.3.4")
            .unwrap();
        assert!(matches!(out, Outcome::Reject { .. }));
    }

    #[test]
    fn home_server_outage_silences_proxy() {
        let (client, home_faults) = chain();
        let mut rng = StdRng::seed_from_u64(4);
        home_faults.set_down(true);
        let err = client
            .authenticate(&mut rng, "alice", b"123456", "1.2.3.4")
            .unwrap_err();
        assert!(matches!(err, ClientError::AllServersFailed { .. }));
    }

    #[test]
    fn trace_id_survives_the_proxy_hop() {
        use hpcmfa_telemetry::{SpanCtx, TraceClock, TraceId};
        // Home handler that records the trace id it saw on the wire.
        let seen: Arc<Mutex<Vec<Option<TraceId>>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let home_handler: Arc<dyn Handler> = Arc::new(move |req: &Packet, _pw: Option<&[u8]>| {
            seen2.lock().push(tracewire::trace_id_of(req));
            ServerDecision::Accept(vec![])
        });
        let metrics = Arc::new(MetricsRegistry::new());
        let home = Arc::new(RadiusServer::new(HOME_SECRET, home_handler));
        let home_transport: Arc<dyn Transport> =
            Arc::new(InMemoryTransport::new("home", home, FaultPlan::healthy()));
        let upstream = Arc::new(RadiusClient::with_metrics(
            ClientConfig::new(HOME_SECRET, "proxy1"),
            vec![home_transport],
            Arc::clone(&metrics),
        ));
        let proxy = Arc::new(ProxyHandler::new("proxy1", upstream, 99));
        let edge = Arc::new(RadiusServer::new(EDGE_SECRET, proxy));
        let client = RadiusClient::with_metrics(
            ClientConfig::new(EDGE_SECRET, "login1"),
            vec![Arc::new(InMemoryTransport::new(
                "edge",
                edge,
                FaultPlan::healthy(),
            ))],
            Arc::clone(&metrics),
        );
        let mut rng = StdRng::seed_from_u64(7);
        let id = TraceId::from_u64(0xfeed);
        let ctx = SpanCtx::root(id, TraceClock::at(client.vclock_us()));
        let out = client
            .request(&mut rng, "alice", b"123456", "1.2.3.4", None, Some(&ctx))
            .unwrap();
        assert!(matches!(out, Outcome::Accept { .. }));
        assert_eq!(seen.lock().as_slice(), &[Some(id)], "id did not reach home");
        // Both client hops and the proxy hop recorded spans for one id:
        // request + attempt per client, plus the proxy's forward span.
        let components = metrics.tracer().components_for(id);
        assert_eq!(components, vec!["radius.client", "radius.proxy"]);
        let spans = metrics.tracer().spans_for(id);
        assert_eq!(spans.len(), 5);
        // The chain is fully parented: edge request ← edge attempt ←
        // proxy forward ← upstream request ← upstream attempt.
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(
            (root.component, root.label),
            ("radius.client", "authenticate")
        );
        let forward = spans
            .iter()
            .find(|s| s.component == "radius.proxy")
            .unwrap();
        let edge_attempt = spans
            .iter()
            .find(|s| s.id == forward.parent.unwrap())
            .unwrap();
        assert_eq!(edge_attempt.label, "attempt");
        assert_eq!(edge_attempt.parent, Some(root.id));
        // The proxy's span nests inside the edge attempt on one clock.
        assert!(edge_attempt.start_us <= forward.start_us);
        assert!(
            edge_attempt.end_us >= forward.end_us,
            "{edge_attempt:?} vs {forward:?}"
        );
        assert_eq!(
            metrics
                .snapshot()
                .counter("hpcmfa_radius_proxy_forwarded_total{proxy=\"proxy1\"}"),
            1
        );
    }

    #[test]
    fn secrets_differ_per_hop() {
        // The password must be re-encrypted per hop: the edge secret and
        // home secret differ, yet the cleartext arrives intact upstream.
        let (client, _) = chain();
        let mut rng = StdRng::seed_from_u64(5);
        assert_ne!(HOME_SECRET, EDGE_SECRET);
        let out = client
            .authenticate(&mut rng, "alice", b"123456", "1.2.3.4")
            .unwrap();
        assert!(matches!(out, Outcome::Accept { .. }));
    }
}
