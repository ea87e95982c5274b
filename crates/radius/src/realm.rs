//! Federated realm routing (the "multiple participating sites" deployment
//! the paper's infrastructure was built to support).
//!
//! A [`RealmRouter`] is a [`Handler`] that splits `user@site` principals
//! and dispatches by realm:
//!
//! - **Home or bare names** go to the local handler with the realm suffix
//!   stripped, so the local OTP engine only ever sees bare usernames.
//! - **Allowed peer realms** are proxied to that realm's upstream pool
//!   through a dedicated [`RadiusClient`] — each realm gets its own client
//!   and therefore its own per-server circuit breakers, so one partner
//!   site's outage cannot poison another's path. The full `user@site` name
//!   is forwarded unchanged: the remote router recognises its own realm
//!   and strips it there.
//! - **Unknown realms** are rejected outright (the trust ACL is the
//!   federation boundary).
//!
//! Upstream failure fails closed: the login is rejected (the user sees a
//! clean denial) and a `realm_unreachable` security event fires — roaming
//! users stranded by a dead partner link are an operational page, not a
//! silent reject counter.

use crate::attribute::{Attribute, AttributeType};
use crate::client::RadiusClient;
use crate::packet::Packet;
use crate::proxy::{forward, Hop};
use crate::server::{Handler, ServerDecision};
use crate::tracewire;
use hpcmfa_federation::{split_principal, TrustConfig};
use hpcmfa_telemetry::{MetricsRegistry, SecurityEventKind};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Realm-splitting front handler for a federated site.
pub struct RealmRouter {
    /// Trust configuration: home realm name + allowed peers.
    trust: TrustConfig,
    /// The local site's handler (normally the OTP bridge or a proxy).
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

    /// Forward to a peer realm's pool — the proxy tier's forward, on a
    /// `radius.realm` span — rejecting when the pool is unreachable.
    fn forward(
        &self,
        realm: &str,
        upstream: &RadiusClient,
        request: &Packet,
        password: &[u8],
    ) -> ServerDecision {
        let hop = Hop {
            component: "radius.realm",
            key: "realm",
            name: realm,
            failed: "realm_unreachable",
            event: (
                SecurityEventKind::RealmUnreachable,
                "upstream pool unreachable",
            ),
        };
        match forward(&self.metrics, upstream, &self.rng, &hop, request, password) {
            Some((outcome, decision)) => {
                self.count(realm, outcome);
                decision
            }
            None => {
                self.count(realm, "unreachable");
                ServerDecision::Reject(vec![Attribute::text(
                    AttributeType::ReplyMessage,
                    "Authentication error",
                )])
            }
        }
    }
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
                    return ServerDecision::Reject(vec![Attribute::text(
                        AttributeType::ReplyMessage,
                        "Authentication error",
                    )]);
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
                        ServerDecision::Reject(vec![Attribute::text(
                            AttributeType::ReplyMessage,
                            "Authentication error",
                        )])
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, Outcome};
    use crate::server::RadiusServer;
    use crate::transport::{FaultPlan, InMemoryTransport, Transport};
    use hpcmfa_federation::RealmPeer;
    use rand::SeedableRng;

    const TACC_SECRET: &[u8] = b"tacc-secret";
    const REMOTE_SECRET: &[u8] = b"remote-secret";

    /// Local handler that accepts "123456" and records the name it saw.
    fn local_handler(seen: Arc<Mutex<Vec<String>>>) -> Arc<dyn Handler> {
        Arc::new(move |req: &Packet, pw: Option<&[u8]>| {
            seen.lock()
                .push(req.text(AttributeType::UserName).unwrap_or("").to_string());
            match pw {
                Some(b"123456") => ServerDecision::Accept(vec![]),
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
        // The remote side sees the unmodified principal (its own router
        // strips it); nothing leaked to the local handler.
        assert_eq!(rig.seen_remote.lock().as_slice(), &["carol@remote"]);
        assert!(rig.seen_local.lock().is_empty());
        assert_eq!(
            rig.metrics
                .snapshot()
                .counter("hpcmfa_radius_proxy_forwards_total{outcome=\"accept\",realm=\"remote\"}"),
            1
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
        rig.remote_faults.set_down(true);
        let out = client
            .authenticate(&mut rng, "carol@remote", b"123456", "1.2.3.4")
            .unwrap();
        assert!(matches!(out, Outcome::Reject { .. }));
        let events = rig.metrics.security_events().all();
        assert!(events
            .iter()
            .any(|e| e.kind == SecurityEventKind::RealmUnreachable));
        assert_eq!(
            rig.metrics.snapshot().counter(
                "hpcmfa_radius_proxy_forwards_total{outcome=\"unreachable\",realm=\"remote\"}"
            ),
            1
        );
    }
}
