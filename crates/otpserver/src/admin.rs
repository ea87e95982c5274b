//! The administrative REST-style interface.
//!
//! "The portlet application communicates with the LinOTP back end via an
//! administrative interface, which is available as a Representational State
//! Transfer (REST) interface. The portal back end authenticates to the
//! admin API using HTTP Digest Authentication over a TLS-secured
//! connection." (§3.5)
//!
//! This module models that interface as typed request/response values (the
//! TLS channel itself adds nothing to the semantics being reproduced):
//! digest-authenticated admin routes for enrollment, removal, resync,
//! failure-counter reset, status, and audit search, plus the open
//! `/validate/check` route RADIUS-side components use. Response bodies
//! follow the LinOTP convention `{"result": {"status": ..., "value": ...}}`.

use crate::json::Json;
use crate::server::{LinotpServer, ValidationOutcome};
use crate::sms::PhoneNumber;
use hpcmfa_crypto::digestauth::{DigestAuthorization, DigestChallenge, DigestVerifier};
use hpcmfa_otp::secret::Secret;
use hpcmfa_otp::totp::TotpParams;
use hpcmfa_otp::uri::OtpauthUri;
use hpcmfa_telemetry::{AlertEngine, TraceCollector, TraceTree};
use parking_lot::Mutex;
use std::sync::Arc;

/// A request to the admin API.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// HTTP method (`GET`/`POST`).
    pub method: String,
    /// Route, e.g. `/admin/init`.
    pub path: String,
    /// JSON body (`Json::Null` for none).
    pub body: Json,
    /// Digest authorization header, if presented.
    pub authorization: Option<DigestAuthorization>,
}

impl HttpRequest {
    /// Build a request.
    pub fn new(method: &str, path: &str, body: Json) -> Self {
        HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            body,
            authorization: None,
        }
    }

    /// Attach a digest authorization.
    pub fn with_auth(mut self, auth: DigestAuthorization) -> Self {
        self.authorization = Some(auth);
        self
    }
}

/// A response from the admin API.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: Json,
    /// On 401, the digest challenge to answer.
    pub challenge: Option<DigestChallenge>,
}

impl HttpResponse {
    fn ok(value: Json) -> Self {
        HttpResponse {
            status: 200,
            body: Json::obj([(
                "result",
                Json::obj([("status", Json::Bool(true)), ("value", value)]),
            )]),
            challenge: None,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        HttpResponse {
            status,
            body: Json::obj([(
                "result",
                Json::obj([
                    ("status", Json::Bool(false)),
                    ("error", Json::obj([("message", Json::str(message))])),
                ]),
            )]),
            challenge: None,
        }
    }

    /// The `result.value` field, if present.
    pub fn value(&self) -> Option<&Json> {
        self.body.get("result")?.get("value")
    }

    /// Whether `result.status` is true.
    pub fn is_ok(&self) -> bool {
        self.body
            .get("result")
            .and_then(|r| r.get("status"))
            .and_then(Json::as_bool)
            .unwrap_or(false)
    }
}

/// The admin API endpoint.
pub struct AdminApi {
    server: Arc<LinotpServer>,
    verifier: Mutex<DigestVerifier>,
    /// Alert engine behind `GET /system/alerts`, attached by whoever wires
    /// the computing center together (the engine spans more components than
    /// this server, so it cannot be constructed here).
    alerts: Mutex<Option<Arc<AlertEngine>>>,
    /// Trace collector behind `GET /system/traces`, attached alongside the
    /// alert engine; it may aggregate several sites' registries.
    traces: Mutex<Option<Arc<TraceCollector>>>,
}

impl AdminApi {
    /// Wrap `server`; digest realm and nonce seed as given.
    pub fn new(server: Arc<LinotpServer>, realm: &str, seed: u64) -> Arc<Self> {
        Arc::new(AdminApi {
            server,
            verifier: Mutex::new(DigestVerifier::new(realm, seed)),
            alerts: Mutex::new(None),
            traces: Mutex::new(None),
        })
    }

    /// Register an API credential (e.g. the portal service account).
    pub fn add_admin(&self, username: &str, password: &str) {
        self.verifier.lock().add_user(username, password);
    }

    /// Attach the center-wide alert engine served by `/system/alerts`.
    pub fn attach_alerts(&self, engine: Arc<AlertEngine>) {
        *self.alerts.lock() = Some(engine);
    }

    /// Attach the trace collector served by `/system/traces`.
    pub fn attach_traces(&self, collector: Arc<TraceCollector>) {
        *self.traces.lock() = Some(collector);
    }

    /// Issue a digest challenge (the 401 `WWW-Authenticate` payload).
    pub fn issue_challenge(&self) -> DigestChallenge {
        self.verifier.lock().challenge()
    }

    /// Dispatch a request at time `now`.
    pub fn handle(&self, req: &HttpRequest, now: u64) -> HttpResponse {
        // /validate/check is the only route open without digest auth — it is
        // reachable solely from the trusted RADIUS hosts by firewall rule
        // (§3.1).
        if req.path != "/validate/check" {
            match &req.authorization {
                None => return self.unauthorized("missing credentials"),
                Some(auth) => {
                    let verdict = self.verifier.lock().verify(auth, &req.method, &req.path);
                    if let Err(e) = verdict {
                        return self.unauthorized(&e.to_string());
                    }
                }
            }
        }

        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/validate/check") => self.validate_check(req, now),
            ("POST", "/admin/init") => self.admin_init(req, now),
            ("POST", "/admin/remove") => self.admin_remove(req, now),
            ("POST", "/admin/resync") => self.admin_resync(req, now),
            ("POST", "/admin/reset") => self.admin_reset(req, now),
            ("POST", "/admin/smschallenge") => self.admin_smschallenge(req, now),
            ("GET", "/admin/show") => self.admin_show(req, now),
            ("GET", "/audit/search") => self.audit_search(req),
            ("GET", "/system/durability") => self.system_durability(),
            ("GET", "/system/metrics") => self.system_metrics(now),
            ("GET", "/system/alerts") => self.system_alerts(now),
            ("GET", "/system/traces") => self.system_traces(),
            _ => HttpResponse::error(404, "no such route"),
        }
    }

    fn unauthorized(&self, message: &str) -> HttpResponse {
        let mut resp = HttpResponse::error(401, message);
        resp.challenge = Some(self.issue_challenge());
        resp
    }

    fn str_field<'a>(body: &'a Json, key: &str) -> Option<&'a str> {
        body.get(key).and_then(Json::as_str)
    }

    fn validate_check(&self, req: &HttpRequest, now: u64) -> HttpResponse {
        let (Some(user), Some(pass)) = (
            Self::str_field(&req.body, "user"),
            Self::str_field(&req.body, "pass"),
        ) else {
            return HttpResponse::error(400, "user and pass required");
        };
        let outcome = self.server.validate(user, pass, now);
        HttpResponse::ok(Json::Bool(outcome == ValidationOutcome::Success))
    }

    fn admin_init(&self, req: &HttpRequest, now: u64) -> HttpResponse {
        let Some(user) = Self::str_field(&req.body, "user") else {
            return HttpResponse::error(400, "user required");
        };
        match Self::str_field(&req.body, "type").unwrap_or("soft") {
            "soft" => {
                let secret = self.server.enroll_soft(user, now);
                let uri = OtpauthUri::new("TACC", user, secret.clone(), TotpParams::default());
                HttpResponse::ok(Json::obj([
                    ("secret", Json::str(secret.to_base32())),
                    ("otpauth", Json::str(uri.render())),
                ]))
            }
            "hard" => {
                let (Some(serial), Some(otpkey)) = (
                    Self::str_field(&req.body, "serial"),
                    Self::str_field(&req.body, "otpkey"),
                ) else {
                    return HttpResponse::error(400, "serial and otpkey required for hard tokens");
                };
                let Ok(secret) = Secret::from_hex(otpkey) else {
                    return HttpResponse::error(400, "otpkey must be hex");
                };
                self.server.enroll_hard(user, serial, secret, now);
                HttpResponse::ok(Json::obj([("serial", Json::str(serial))]))
            }
            "sms" => {
                let Some(phone) = Self::str_field(&req.body, "phone") else {
                    return HttpResponse::error(400, "phone required for sms tokens");
                };
                match PhoneNumber::parse(phone) {
                    Ok(p) => {
                        self.server.enroll_sms(user, p, now);
                        HttpResponse::ok(Json::Bool(true))
                    }
                    Err(e) => HttpResponse::error(400, &e.to_string()),
                }
            }
            "static" => {
                let code = self.server.enroll_static(user, now);
                HttpResponse::ok(Json::obj([("code", Json::str(code))]))
            }
            other => HttpResponse::error(400, &format!("unknown token type {other}")),
        }
    }

    fn admin_remove(&self, req: &HttpRequest, now: u64) -> HttpResponse {
        let Some(user) = Self::str_field(&req.body, "user") else {
            return HttpResponse::error(400, "user required");
        };
        if self.server.remove_pairing(user, now) {
            HttpResponse::ok(Json::Bool(true))
        } else {
            HttpResponse::error(404, "no pairing for user")
        }
    }

    fn admin_resync(&self, req: &HttpRequest, now: u64) -> HttpResponse {
        let (Some(user), Some(otp1), Some(otp2)) = (
            Self::str_field(&req.body, "user"),
            Self::str_field(&req.body, "otp1"),
            Self::str_field(&req.body, "otp2"),
        ) else {
            return HttpResponse::error(400, "user, otp1, otp2 required");
        };
        HttpResponse::ok(Json::Bool(self.server.resync(user, otp1, otp2, now)))
    }

    fn admin_reset(&self, req: &HttpRequest, now: u64) -> HttpResponse {
        let Some(user) = Self::str_field(&req.body, "user") else {
            return HttpResponse::error(400, "user required");
        };
        HttpResponse::ok(Json::Bool(self.server.reset_failcount(user, now)))
    }

    /// Trigger an SMS code outside the RADIUS path — the portal uses this
    /// during SMS pairing to text the confirmation code (§3.5: "the portal
    /// then triggers the LinOTP server to send a token code to the user via
    /// SMS text message").
    fn admin_smschallenge(&self, req: &HttpRequest, now: u64) -> HttpResponse {
        let Some(user) = Self::str_field(&req.body, "user") else {
            return HttpResponse::error(400, "user required");
        };
        use crate::server::SmsTrigger;
        match self.server.trigger_sms(user, now) {
            SmsTrigger::Sent(_) => HttpResponse::ok(Json::str("sent")),
            SmsTrigger::AlreadyActive => HttpResponse::ok(Json::str("already_active")),
            SmsTrigger::NotSmsUser => HttpResponse::error(400, "user has no SMS pairing"),
            SmsTrigger::NoToken => HttpResponse::error(404, "no pairing for user"),
            SmsTrigger::Locked => HttpResponse::error(403, "account locked"),
            SmsTrigger::Unavailable => HttpResponse::error(503, "durable storage unavailable"),
        }
    }

    fn admin_show(&self, req: &HttpRequest, now: u64) -> HttpResponse {
        let Some(user) = Self::str_field(&req.body, "user") else {
            return HttpResponse::error(400, "user required");
        };
        match self.server.status(user, now) {
            Some(st) => HttpResponse::ok(Json::obj([
                ("kind", Json::str(st.kind)),
                ("failcount", Json::Num(st.fail_count as f64)),
                ("active", Json::Bool(st.active)),
                ("serial", st.serial.map(Json::Str).unwrap_or(Json::Null)),
                ("sms_pending", Json::Bool(st.sms_pending)),
            ])),
            None => HttpResponse::error(404, "no pairing for user"),
        }
    }

    /// Recovery/fsync counters for the operations dashboard. 404s when the
    /// server runs without a storage backend.
    fn system_durability(&self) -> HttpResponse {
        match self.server.durability_counters() {
            Some(c) => HttpResponse::ok(Json::obj([
                ("appends", Json::Num(c.appends as f64)),
                ("commits", Json::Num(c.commits as f64)),
                ("append_failures", Json::Num(c.append_failures as f64)),
                ("fsyncs", Json::Num(c.fsyncs as f64)),
                ("fsync_failures", Json::Num(c.fsync_failures as f64)),
                ("sync_waits", Json::Num(c.sync_waits as f64)),
                ("snapshots", Json::Num(c.snapshots as f64)),
                ("snapshot_failures", Json::Num(c.snapshot_failures as f64)),
                ("recoveries", Json::Num(c.recoveries as f64)),
                ("records_replayed", Json::Num(c.records_replayed as f64)),
                ("tail_truncations", Json::Num(c.tail_truncations as f64)),
                ("truncated_bytes", Json::Num(c.truncated_bytes as f64)),
                (
                    "audit_dropped",
                    Json::Num(self.server.audit().dropped() as f64),
                ),
            ])),
            None => HttpResponse::error(404, "no storage backend configured"),
        }
    }

    /// Prometheus text exposition of the server's telemetry registry. The
    /// scrape body rides in `result.value` (this typed model has no raw
    /// text/plain responses); it is valid `text/format` verbatim. Gauges
    /// are refreshed from the token store first — the same census
    /// `/system/alerts` reads.
    fn system_metrics(&self, now: u64) -> HttpResponse {
        self.server.refresh_gauges(now);
        HttpResponse::ok(Json::str(self.server.metrics().render_prometheus()))
    }

    /// Alerting surface: active and recently resolved alerts from the
    /// attached engine, the tail of the security-event ring, and the
    /// security-posture gauges — all read from the same registry pass as
    /// `/system/metrics` so the two routes cannot disagree.
    fn system_alerts(&self, now: u64) -> HttpResponse {
        self.server.refresh_gauges(now);
        let snap = self.server.metrics().snapshot();
        let status_json = |s: &hpcmfa_telemetry::AlertStatus| {
            Json::obj([
                ("rule", Json::str(s.rule.clone())),
                ("state", Json::str(s.state.label())),
                ("since", Json::Num(s.since as f64)),
            ])
        };
        let (active, recent_resolved) = match &*self.alerts.lock() {
            Some(engine) => (
                Json::Arr(engine.active().iter().map(status_json).collect()),
                Json::Arr(engine.recent_resolved().iter().map(status_json).collect()),
            ),
            None => (Json::Arr(Vec::new()), Json::Arr(Vec::new())),
        };
        let events: Vec<Json> = self
            .server
            .metrics()
            .security_events()
            .tail(64)
            .into_iter()
            .map(|e| {
                Json::obj([
                    ("kind", Json::str(e.kind.label())),
                    ("at", Json::Num(e.at as f64)),
                    (
                        "trace",
                        e.trace
                            .map(|t| Json::str(t.to_string()))
                            .unwrap_or(Json::Null),
                    ),
                    (
                        "span",
                        e.span.map(|s| Json::str(s.to_hex())).unwrap_or(Json::Null),
                    ),
                    ("detail", Json::str(e.detail)),
                ])
            })
            .collect();
        HttpResponse::ok(Json::obj([
            ("active", active),
            ("recent_resolved", recent_resolved),
            ("events", Json::Arr(events)),
            (
                "gauges",
                Json::obj([
                    (
                        "locked_users",
                        Json::Num(snap.gauge("hpcmfa_otp_locked_users") as f64),
                    ),
                    (
                        "sms_pending",
                        Json::Num(snap.gauge("hpcmfa_otp_sms_pending") as f64),
                    ),
                ]),
            ),
        ]))
    }

    /// Cross-site trace assembly: the most recent traces, the slowest
    /// traces with their critical paths, and the per-component self-time
    /// breakdown — everything the attached collector can assemble from its
    /// registered span sources. 404s when no collector is attached.
    fn system_traces(&self) -> HttpResponse {
        let Some(collector) = self.traces.lock().clone() else {
            return HttpResponse::error(404, "no trace collector attached");
        };
        let tree_json = |tree: &TraceTree| {
            let root = tree.root();
            Json::obj([
                ("trace", Json::str(tree.trace.to_string())),
                (
                    "root",
                    Json::str(format!("{}/{}", root.component, root.label)),
                ),
                ("duration_us", Json::Num(tree.duration_us() as f64)),
                ("spans", Json::Num(tree.spans.len() as f64)),
                (
                    "critical_path",
                    Json::Arr(
                        tree.critical_path()
                            .iter()
                            .map(|hop| {
                                Json::obj([
                                    ("span", Json::str(hop.span.to_hex())),
                                    ("op", Json::str(format!("{}/{}", hop.component, hop.label))),
                                    ("duration_us", Json::Num(hop.duration_us as f64)),
                                    ("self_time_us", Json::Num(hop.self_time_us as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let recent: Vec<Json> = collector.recent(8).iter().map(tree_json).collect();
        let slowest: Vec<Json> = collector.slowest(5).iter().map(tree_json).collect();
        HttpResponse::ok(Json::obj([
            ("traces", Json::Num(collector.trace_ids().len() as f64)),
            ("recent", Json::Arr(recent)),
            ("slowest", Json::Arr(slowest)),
            (
                "self_time_by_component",
                Json::Obj(
                    collector
                        .self_time_by_component()
                        .into_iter()
                        .map(|(component, us)| (component, Json::Num(us as f64)))
                        .collect(),
                ),
            ),
        ]))
    }

    fn audit_search(&self, req: &HttpRequest) -> HttpResponse {
        let Some(user) = Self::str_field(&req.body, "user") else {
            return HttpResponse::error(400, "user required");
        };
        let entries: Vec<Json> = self
            .server
            .audit()
            .for_user(user)
            .into_iter()
            .map(|e| {
                Json::obj([
                    ("at", Json::Num(e.at as f64)),
                    ("action", Json::str(e.action.label())),
                    ("success", Json::Bool(e.success)),
                    ("detail", Json::str(e.detail)),
                ])
            })
            .collect();
        HttpResponse::ok(Json::Arr(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::sms::TwilioSim;
    use hpcmfa_crypto::digestauth::answer_challenge;
    use hpcmfa_otp::device::SoftToken;

    const NOW: u64 = 1_475_000_000;

    fn api() -> Arc<AdminApi> {
        let server = LinotpServer::with_config(TwilioSim::new(1), 13, ServerConfig::default());
        let api = AdminApi::new(server, "LinOTP admin area", 7);
        api.add_admin("portal", "portal-pass");
        api
    }

    /// Sign a request like the portal's HTTP client does.
    fn signed(api: &AdminApi, method: &str, path: &str, body: Json) -> HttpRequest {
        let chal = api.issue_challenge();
        let auth = answer_challenge(&chal, "portal", "portal-pass", method, path, "cn", 1);
        HttpRequest::new(method, path, body).with_auth(auth)
    }

    #[test]
    fn unauthenticated_admin_calls_get_401_with_challenge() {
        let api = api();
        let resp = api.handle(
            &HttpRequest::new("POST", "/admin/init", Json::obj([("user", Json::str("a"))])),
            NOW,
        );
        assert_eq!(resp.status, 401);
        assert!(resp.challenge.is_some());
        assert!(!resp.is_ok());
    }

    #[test]
    fn wrong_password_rejected() {
        let api = api();
        let chal = api.issue_challenge();
        let auth = answer_challenge(&chal, "portal", "wrong", "POST", "/admin/init", "cn", 1);
        let req = HttpRequest::new("POST", "/admin/init", Json::obj([("user", Json::str("a"))]))
            .with_auth(auth);
        assert_eq!(api.handle(&req, NOW).status, 401);
    }

    #[test]
    fn replayed_authorization_rejected() {
        let api = api();
        let chal = api.issue_challenge();
        let auth = answer_challenge(
            &chal,
            "portal",
            "portal-pass",
            "GET",
            "/admin/show",
            "cn",
            1,
        );
        let req = HttpRequest::new("GET", "/admin/show", Json::obj([("user", Json::str("a"))]))
            .with_auth(auth);
        let first = api.handle(&req, NOW);
        assert_ne!(first.status, 401); // 404: no pairing, but auth passed
        let replay = api.handle(&req, NOW);
        assert_eq!(replay.status, 401);
    }

    #[test]
    fn soft_init_returns_scannable_uri() {
        let api = api();
        let resp = api.handle(
            &signed(
                &api,
                "POST",
                "/admin/init",
                Json::obj([("user", Json::str("alice")), ("type", Json::str("soft"))]),
            ),
            NOW,
        );
        assert!(resp.is_ok());
        let uri = resp
            .value()
            .unwrap()
            .get("otpauth")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        // The URI must be importable and generate codes the server accepts.
        let device = SoftToken::from_uri(&uri).unwrap();
        let code = device.displayed_code(NOW + 60);
        let check = api.handle(
            &HttpRequest::new(
                "POST",
                "/validate/check",
                Json::obj([("user", Json::str("alice")), ("pass", Json::str(code))]),
            ),
            NOW + 60,
        );
        assert_eq!(check.value().unwrap().as_bool(), Some(true));
    }

    #[test]
    fn validate_check_open_and_correct() {
        let api = api();
        let resp = api.handle(
            &HttpRequest::new(
                "POST",
                "/validate/check",
                Json::obj([("user", Json::str("ghost")), ("pass", Json::str("123456"))]),
            ),
            NOW,
        );
        assert_eq!(resp.status, 200);
        assert_eq!(resp.value().unwrap().as_bool(), Some(false));
    }

    #[test]
    fn hard_init_requires_serial_and_key() {
        let api = api();
        let missing = api.handle(
            &signed(
                &api,
                "POST",
                "/admin/init",
                Json::obj([("user", Json::str("c")), ("type", Json::str("hard"))]),
            ),
            NOW,
        );
        assert_eq!(missing.status, 400);
        let ok = api.handle(
            &signed(
                &api,
                "POST",
                "/admin/init",
                Json::obj([
                    ("user", Json::str("c")),
                    ("type", Json::str("hard")),
                    ("serial", Json::str("TACC-0009")),
                    (
                        "otpkey",
                        Json::str("3132333435363738393031323334353637383930"),
                    ),
                ]),
            ),
            NOW,
        );
        assert!(ok.is_ok());
        let show = api.handle(
            &signed(
                &api,
                "GET",
                "/admin/show",
                Json::obj([("user", Json::str("c"))]),
            ),
            NOW,
        );
        assert_eq!(
            show.value().unwrap().get("serial").unwrap().as_str(),
            Some("TACC-0009")
        );
        assert_eq!(
            show.value().unwrap().get("kind").unwrap().as_str(),
            Some("hard")
        );
    }

    #[test]
    fn sms_init_validates_phone() {
        let api = api();
        let bad = api.handle(
            &signed(
                &api,
                "POST",
                "/admin/init",
                Json::obj([
                    ("user", Json::str("b")),
                    ("type", Json::str("sms")),
                    ("phone", Json::str("not-a-phone")),
                ]),
            ),
            NOW,
        );
        assert_eq!(bad.status, 400);
        let ok = api.handle(
            &signed(
                &api,
                "POST",
                "/admin/init",
                Json::obj([
                    ("user", Json::str("b")),
                    ("type", Json::str("sms")),
                    ("phone", Json::str("5125551234")),
                ]),
            ),
            NOW,
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn static_init_returns_code() {
        let api = api();
        let resp = api.handle(
            &signed(
                &api,
                "POST",
                "/admin/init",
                Json::obj([
                    ("user", Json::str("train01")),
                    ("type", Json::str("static")),
                ]),
            ),
            NOW,
        );
        let code = resp
            .value()
            .unwrap()
            .get("code")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(code.len(), 6);
        let check = api.handle(
            &HttpRequest::new(
                "POST",
                "/validate/check",
                Json::obj([("user", Json::str("train01")), ("pass", Json::str(code))]),
            ),
            NOW,
        );
        assert_eq!(check.value().unwrap().as_bool(), Some(true));
    }

    #[test]
    fn remove_and_reset_routes() {
        let api = api();
        api.handle(
            &signed(
                &api,
                "POST",
                "/admin/init",
                Json::obj([("user", Json::str("a"))]),
            ),
            NOW,
        );
        let rm = api.handle(
            &signed(
                &api,
                "POST",
                "/admin/remove",
                Json::obj([("user", Json::str("a"))]),
            ),
            NOW,
        );
        assert!(rm.is_ok());
        let rm2 = api.handle(
            &signed(
                &api,
                "POST",
                "/admin/remove",
                Json::obj([("user", Json::str("a"))]),
            ),
            NOW,
        );
        assert_eq!(rm2.status, 404);
        let reset = api.handle(
            &signed(
                &api,
                "POST",
                "/admin/reset",
                Json::obj([("user", Json::str("a"))]),
            ),
            NOW,
        );
        assert_eq!(reset.value().unwrap().as_bool(), Some(false));
    }

    #[test]
    fn audit_route_lists_events() {
        let api = api();
        api.handle(
            &signed(
                &api,
                "POST",
                "/admin/init",
                Json::obj([("user", Json::str("a"))]),
            ),
            NOW,
        );
        api.handle(
            &HttpRequest::new(
                "POST",
                "/validate/check",
                Json::obj([("user", Json::str("a")), ("pass", Json::str("000000"))]),
            ),
            NOW + 1,
        );
        let audit = api.handle(
            &signed(
                &api,
                "GET",
                "/audit/search",
                Json::obj([("user", Json::str("a"))]),
            ),
            NOW + 2,
        );
        let entries = audit.value().unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("action").unwrap().as_str(), Some("enroll"));
        assert_eq!(entries[1].get("action").unwrap().as_str(), Some("validate"));
        assert_eq!(entries[1].get("success").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn metrics_route_serves_prometheus_text_to_authed_admins_only() {
        let api = api();
        // Produce some traffic so families exist.
        api.handle(
            &HttpRequest::new(
                "POST",
                "/validate/check",
                Json::obj([("user", Json::str("x")), ("pass", Json::str("y"))]),
            ),
            NOW,
        );
        let noauth = api.handle(&HttpRequest::new("GET", "/system/metrics", Json::Null), NOW);
        assert_eq!(noauth.status, 401);
        let resp = api.handle(&signed(&api, "GET", "/system/metrics", Json::Null), NOW);
        assert!(resp.is_ok());
        let text = resp.value().unwrap().as_str().unwrap();
        assert!(text.contains("# TYPE hpcmfa_otp_validations_total counter"));
        assert!(text.contains("hpcmfa_otp_validations_total{outcome=\"no_token\"} 1"));
        assert!(text.contains("hpcmfa_otp_validate_wall_us_count 1"));
    }

    #[test]
    fn metrics_route_renders_shed_and_risk_counters() {
        use crate::overload::OverloadConfig;

        // Overload protection pre-registers every shed reason, so the
        // exposition shows them at zero before any storm.
        let server = LinotpServer::with_config(
            TwilioSim::new(1),
            13,
            ServerConfig {
                overload: Some(OverloadConfig::default()),
                ..ServerConfig::default()
            },
        );
        // Risk decisions land in the same shared registry in
        // Center-driven runs; simulate that by pre-registering here.
        for d in ["allow", "step_up", "deny"] {
            server
                .metrics()
                .counter("hpcmfa_risk_decisions_total", &[("decision", d)]);
        }
        let api = AdminApi::new(server, "LinOTP admin area", 7);
        api.add_admin("portal", "portal-pass");
        let resp = api.handle(&signed(&api, "GET", "/system/metrics", Json::Null), NOW);
        assert!(resp.is_ok());
        let text = resp.value().unwrap().as_str().unwrap();
        assert!(text.contains("# TYPE hpcmfa_shed_total counter"));
        assert!(text.contains("hpcmfa_shed_total{reason=\"rate_limited\"} 0"));
        assert!(text.contains("hpcmfa_shed_total{reason=\"unauth_flood\"} 0"));
        assert!(text.contains("hpcmfa_shed_total{reason=\"queue_full\"} 0"));
        assert!(text.contains("# TYPE hpcmfa_risk_decisions_total counter"));
        assert!(text.contains("hpcmfa_risk_decisions_total{decision=\"deny\"} 0"));
        assert!(text.contains("hpcmfa_otp_validate_vtime_us_count{lane=\"trusted\"} 0"));
    }

    #[test]
    fn alerts_route_serves_events_and_gauges() {
        let api = api();
        api.handle(
            &signed(
                &api,
                "POST",
                "/admin/init",
                Json::obj([
                    ("user", Json::str("b")),
                    ("type", Json::str("sms")),
                    ("phone", Json::str("5125551234")),
                ]),
            ),
            NOW,
        );
        // First trigger sends; the immediate re-trigger is suppressed and
        // emits an sms_abuse security event.
        for _ in 0..2 {
            api.handle(
                &signed(
                    &api,
                    "POST",
                    "/admin/smschallenge",
                    Json::obj([("user", Json::str("b"))]),
                ),
                NOW,
            );
        }
        let noauth = api.handle(&HttpRequest::new("GET", "/system/alerts", Json::Null), NOW);
        assert_eq!(noauth.status, 401);
        let resp = api.handle(&signed(&api, "GET", "/system/alerts", Json::Null), NOW + 1);
        assert!(resp.is_ok());
        let value = resp.value().unwrap();
        // No engine attached: alert lists are present but empty.
        assert!(value.get("active").unwrap().as_arr().unwrap().is_empty());
        let events = value.get("events").unwrap().as_arr().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("kind").unwrap().as_str() == Some("sms_abuse")));
        // One outstanding SMS code, nobody locked.
        let gauges = value.get("gauges").unwrap();
        assert_eq!(gauges.get("sms_pending").unwrap().as_f64(), Some(1.0));
        assert_eq!(gauges.get("locked_users").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn unknown_route_404() {
        let api = api();
        let resp = api.handle(&signed(&api, "GET", "/admin/nope", Json::Null), NOW);
        // Route is unknown but auth for that path verified fine.
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn response_body_serializes_as_json() {
        let api = api();
        let resp = api.handle(
            &HttpRequest::new(
                "POST",
                "/validate/check",
                Json::obj([("user", Json::str("x")), ("pass", Json::str("y"))]),
            ),
            NOW,
        );
        assert_eq!(
            resp.body.to_string(),
            r#"{"result":{"status":true,"value":false}}"#
        );
    }
}
