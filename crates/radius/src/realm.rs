//! Federated realm routing (the "multiple participating sites" deployment
//! the paper's infrastructure was built to support), and with it the
//! RADIUS tier's "proxy chaining across servers" (§3.2).
//!
//! A [`RealmRouter`] is a [`Handler`] that splits `user@site` principals
//! and dispatches by realm:
//!
//! - **Home or bare names** go to the local handler with the realm suffix
//!   stripped, so the local OTP engine only ever sees bare usernames.
//! - **Allowed peer realms** are forwarded to that realm's upstream pool
//!   through a dedicated [`RadiusClient`] — each realm gets its own client
//!   and therefore its own per-server circuit breakers, so one partner
//!   site's outage cannot poison another's path. The full `user@site` name
//!   is forwarded unchanged: the remote router recognises its own realm
//!   and strips it there. Each hop re-hides the password under its own
//!   shared secret and carries the caller's trace context upstream.
//! - **Unknown realms** are rejected outright (the trust ACL is the
//!   federation boundary).
//!
//! Upstream failure fails closed: the login is rejected (the user sees a
//! clean denial) and a `realm_unreachable` security event fires — roaming
//! users stranded by a dead partner link are an operational page, not a
//! silent reject counter.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation,
    clippy::panic
)]

use crate::attribute::{Attribute, AttributeType};
use crate::client::{Outcome, RadiusClient};
use crate::packet::Packet;
use crate::server::{Handler, ServerDecision};
use crate::tracewire;
use hpcmfa_federation::{split_principal, TrustConfig};
use hpcmfa_telemetry::{MetricsRegistry, SecurityEventKind, SpanStatus};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Realm-splitting front handler for a federated site.
pub struct RealmRouter {
    /// Trust configuration: home realm name + allowed peers.
    trust: TrustConfig,
    /// The local site's handler (normally the OTP bridge).
    local: Arc<dyn Handler>,
    /// Per-realm upstream pools, keyed by realm name. Behind a lock so
    /// federated sites can be wired together after each site's own fleet
    /// is standing (trust is mutual; neither side exists first).
    routes: RwLock<BTreeMap<String, Arc<RadiusClient>>>,
    /// RNG for upstream request authenticators.
    rng: Mutex<StdRng>,
    metrics: Arc<MetricsRegistry>,
}

impl RealmRouter {
    /// Route for `trust.home_realm`, delegating home traffic to `local`.
    /// Peer pools are added with [`RealmRouter::add_route`].
    pub fn new(
        trust: TrustConfig,
        local: Arc<dyn Handler>,
        seed: u64,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        RealmRouter {
            trust,
            local,
            routes: RwLock::new(BTreeMap::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            metrics,
        }
    }

    /// Attach the upstream pool for a peer `realm`. The realm must be in
    /// the trust config's ACL to ever receive traffic; the client carries
    /// that realm's shared secret and its own breakers.
    pub fn add_route(&self, realm: &str, upstream: Arc<RadiusClient>) {
        self.routes.write().insert(realm.to_string(), upstream);
    }

    fn count(&self, realm: &str, outcome: &str) {
        self.metrics
            .counter(
                "hpcmfa_radius_proxy_forwards_total",
                &[("realm", realm), ("outcome", outcome)],
            )
            .inc();
    }

    /// Relay one Access-Request to a peer realm's pool and turn the
    /// verified outcome back into a reply, rejecting when the pool gives
    /// no usable answer.
    ///
    /// The caller's trace context is re-forwarded upstream so the home
    /// server's audit rows carry the id the login node minted: the
    /// `radius.realm` `forward` span opens on the caller's wire clock
    /// under the caller's attempt span, and the upstream client's request
    /// span nests under it in turn.
    fn forward(
        &self,
        realm: &str,
        upstream: &RadiusClient,
        request: &Packet,
        password: &[u8],
    ) -> ServerDecision {
        let username = request.text(AttributeType::UserName).unwrap_or_default();
        let calling = request
            .text(AttributeType::CallingStationId)
            .unwrap_or_default();
        let state = request.attribute(AttributeType::State);
        let wire_ctx = tracewire::trace_ctx_of(request);

        let mut guard = wire_ctx.map(|w| {
            let mut g = self
                .metrics
                .tracer()
                .start(&w.span_ctx(), "radius.realm", "forward");
            g.attr_str("realm", realm);
            g
        });
        let span_id = guard.as_ref().map(|g| g.id());
        let child_ctx = guard.as_ref().map(|g| g.child_ctx());
        let result = upstream.request(
            &mut *self.rng.lock(),
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
            Err(_) => "realm_unreachable",
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
                self.metrics.emit_event(
                    SecurityEventKind::RealmUnreachable,
                    wire_ctx.map(|w| w.trace),
                    span_id,
                    upstream.vclock_us(),
                    format!("realm={realm} upstream pool unreachable"),
                );
                self.count(realm, "unreachable");
                return authentication_error();
            }
        };
        self.count(realm, label);
        // Report our trace clock (advanced by the upstream exchange) back to
        // the caller so its attempt span encloses this whole hop.
        decision.with_clock(child_ctx.as_ref())
    }
}

/// The reply's attributes: the upstream Reply-Message, if any.
fn reply_attrs(message: Option<String>) -> Vec<Attribute> {
    message
        .map(|m| vec![Attribute::text(AttributeType::ReplyMessage, &m)])
        .unwrap_or_default()
}

/// The clean denial a roaming user sees for a refused or unreachable realm.
fn authentication_error() -> ServerDecision {
    ServerDecision::Reject(vec![Attribute::text(
        AttributeType::ReplyMessage,
        "Authentication error",
    )])
}

impl Handler for RealmRouter {
    fn handle(&self, request: &Packet, password: Option<&[u8]>) -> ServerDecision {
        let Some(name) = request.text(AttributeType::UserName) else {
            return ServerDecision::Discard;
        };
        let principal = split_principal(name);
        match &principal.realm {
            // Bare or home-realm names: strip the suffix and serve locally.
            None => self.local.handle(request, password),
            Some(realm) if self.trust.is_home(realm) => {
                let mut local_req = request.clone();
                for attr in &mut local_req.attributes {
                    if attr.ty == AttributeType::UserName {
                        attr.value = principal.user.clone().into_bytes();
                    }
                }
                self.local.handle(&local_req, password)
            }
            Some(realm) => {
                if !self.trust.is_allowed(realm) {
                    self.count(realm, "denied_acl");
                    return authentication_error();
                }
                let Some(password) = password else {
                    return ServerDecision::Discard;
                };
                let route = self.routes.read().get(realm.as_str()).map(Arc::clone);
                match route {
                    Some(upstream) => self.forward(realm, &upstream, request, password),
                    None => {
                        // In the ACL but no pool attached: treat as an
                        // unreachable realm (configuration half-done).
                        self.count(realm, "unreachable");
                        self.metrics.emit_event(
                            SecurityEventKind::RealmUnreachable,
                            tracewire::trace_id_of(request),
                            None,
                            0,
                            format!("realm={realm} no upstream pool configured"),
                        );
                        authentication_error()
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;
    use crate::client::{ClientConfig, Outcome};
    use crate::server::RadiusServer;
    use crate::transport::{FaultPlan, InMemoryTransport, Transport};
    use hpcmfa_federation::RealmPeer;
    use rand::SeedableRng;

    const TACC_SECRET: &[u8] = b"tacc-secret";
    const REMOTE_SECRET: &[u8] = b"remote-secret";

    /// Local handler that records the name it saw. An empty password
    /// opens a challenge with `State` "st"; "123456" is accepted unless it
    /// answers some other `State`.
    fn local_handler(seen: Arc<Mutex<Vec<String>>>) -> Arc<dyn Handler> {
        Arc::new(move |req: &Packet, pw: Option<&[u8]>| {
            seen.lock()
                .push(req.text(AttributeType::UserName).unwrap_or("").to_string());
            let state = req
                .attribute(AttributeType::State)
                .map(|a| a.value.as_slice());
            match (pw, state) {
                (Some(b""), None) => ServerDecision::Challenge(vec![
                    Attribute::new(AttributeType::State, b"st".to_vec()),
                    Attribute::text(AttributeType::ReplyMessage, "TACC Token:"),
                ]),
                (Some(b"123456"), None | Some(b"st")) => ServerDecision::Accept(vec![]),
                _ => ServerDecision::Reject(vec![]),
            }
        })
    }

    struct Rig {
        router: Arc<RealmRouter>,
        seen_local: Arc<Mutex<Vec<String>>>,
        seen_remote: Arc<Mutex<Vec<String>>>,
        remote_faults: Arc<FaultPlan>,
        metrics: Arc<MetricsRegistry>,
    }

    fn rig() -> Rig {
        let metrics = Arc::new(MetricsRegistry::new());
        let seen_local = Arc::new(Mutex::new(Vec::new()));
        let seen_remote = Arc::new(Mutex::new(Vec::new()));

        // Remote site: its own router would sit here; a plain handler is
        // enough to observe what crosses the trust boundary.
        let remote = Arc::new(RadiusServer::new(
            REMOTE_SECRET,
            local_handler(Arc::clone(&seen_remote)),
        ));
        let remote_faults = FaultPlan::healthy();
        let remote_transport: Arc<dyn Transport> = Arc::new(InMemoryTransport::new(
            "remote0",
            remote,
            Arc::clone(&remote_faults),
        ));
        let upstream = Arc::new(RadiusClient::with_metrics(
            ClientConfig::new(REMOTE_SECRET, "tacc-fed"),
            vec![remote_transport],
            Arc::clone(&metrics),
        ));

        let trust = TrustConfig {
            home_realm: "tacc".to_string(),
            peers: vec![RealmPeer::new("remote", REMOTE_SECRET.to_vec())],
        };
        let router = RealmRouter::new(
            trust,
            local_handler(Arc::clone(&seen_local)),
            7,
            Arc::clone(&metrics),
        );
        router.add_route("remote", upstream);
        Rig {
            router: Arc::new(router),
            seen_local,
            seen_remote,
            remote_faults,
            metrics,
        }
    }

    fn client_for(router: Arc<RealmRouter>) -> RadiusClient {
        let edge = Arc::new(RadiusServer::new(TACC_SECRET, router));
        RadiusClient::new(
            ClientConfig::new(TACC_SECRET, "login1"),
            vec![Arc::new(InMemoryTransport::new(
                "edge",
                edge,
                FaultPlan::healthy(),
            ))],
        )
    }

    #[test]
    fn bare_and_home_names_stay_local_and_are_stripped() {
        let rig = rig();
        let client = client_for(Arc::clone(&rig.router));
        let mut rng = StdRng::seed_from_u64(1);
        let out = client
            .authenticate(&mut rng, "alice", b"123456", "1.2.3.4")
            .unwrap();
        assert!(matches!(out, Outcome::Accept { .. }));
        let out = client
            .authenticate(&mut rng, "bob@tacc", b"123456", "1.2.3.4")
            .unwrap();
        assert!(matches!(out, Outcome::Accept { .. }));
        assert_eq!(rig.seen_local.lock().as_slice(), &["alice", "bob"]);
        assert!(rig.seen_remote.lock().is_empty());
    }

    #[test]
    fn peer_realm_forwards_full_principal() {
        let rig = rig();
        let client = client_for(Arc::clone(&rig.router));
        let mut rng = StdRng::seed_from_u64(2);
        let out = client
            .authenticate(&mut rng, "carol@remote", b"123456", "1.2.3.4")
            .unwrap();
        assert!(matches!(out, Outcome::Accept { .. }));
        // A challenge round trip: the remote's State and prompt cross the
        // hop back, and the answer carries that State upstream — an answer
        // to any other State is refused by the remote.
        let out = client
            .authenticate(&mut rng, "carol@remote", b"", "1.2.3.4")
            .unwrap();
        let Outcome::Challenge { state, message } = out else {
            panic!("expected a challenge, got {out:?}");
        };
        assert_eq!(message.as_deref(), Some("TACC Token:"));
        assert_eq!(state, b"st");
        let mut answer = |state: &[u8]| {
            client
                .respond_to_challenge(&mut rng, "carol@remote", b"123456", "1.2.3.4", state)
                .unwrap()
        };
        assert!(matches!(answer(&state), Outcome::Accept { .. }));
        assert!(matches!(answer(b"forged"), Outcome::Reject { .. }));
        // The remote side sees the unmodified principal (its own router
        // strips it); nothing leaked to the local handler.
        assert_eq!(rig.seen_remote.lock().as_slice(), &["carol@remote"; 4]);
        assert!(rig.seen_local.lock().is_empty());
        let forwards = |outcome: &str| {
            rig.metrics.snapshot().counter(&format!(
                "hpcmfa_radius_proxy_forwards_total{{outcome=\"{outcome}\",realm=\"remote\"}}"
            ))
        };
        assert_eq!(
            [
                forwards("accept"),
                forwards("challenge"),
                forwards("reject")
            ],
            [2, 1, 1]
        );
    }

    #[test]
    fn unknown_realm_rejected_by_acl() {
        let rig = rig();
        let client = client_for(Arc::clone(&rig.router));
        let mut rng = StdRng::seed_from_u64(3);
        let out = client
            .authenticate(&mut rng, "mallory@evil", b"123456", "1.2.3.4")
            .unwrap();
        assert!(matches!(out, Outcome::Reject { .. }));
        assert!(rig.seen_remote.lock().is_empty());
        assert!(rig.seen_local.lock().is_empty());
    }

    #[test]
    fn dead_realm_fail_closed_rejects_and_alarms() {
        let rig = rig();
        let client = client_for(Arc::clone(&rig.router));
        let mut rng = StdRng::seed_from_u64(4);
        // A challenge opened while the remote is up, answered after it
        // went down, fails closed like a single-shot login does.
        let out = client
            .authenticate(&mut rng, "carol@remote", b"", "1.2.3.4")
            .unwrap();
        let Outcome::Challenge { state, .. } = out else {
            panic!("expected a challenge, got {out:?}");
        };
        rig.remote_faults.set_down(true);
        let out = client
            .authenticate(&mut rng, "carol@remote", b"123456", "1.2.3.4")
            .unwrap();
        assert!(matches!(out, Outcome::Reject { .. }));
        let out = client
            .respond_to_challenge(&mut rng, "carol@remote", b"123456", "1.2.3.4", &state)
            .unwrap();
        assert!(matches!(out, Outcome::Reject { .. }));
        let events = rig.metrics.security_events().all();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == SecurityEventKind::RealmUnreachable)
                .count(),
            2
        );
        assert_eq!(
            rig.metrics.snapshot().counter(
                "hpcmfa_radius_proxy_forwards_total{outcome=\"unreachable\",realm=\"remote\"}"
            ),
            2
        );
    }
}
