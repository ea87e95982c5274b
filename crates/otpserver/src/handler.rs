//! The RADIUS [`Handler`] bridging Access-Requests to the validation engine
//! — the server half of Figure 2.
//!
//! Protocol (mirroring the paper's §3.2/§3.4 flow):
//!
//! 1. The PAM token module opens with a **null request** (empty
//!    `User-Password`). For SMS users this triggers the text message; for
//!    everyone it yields an Access-Challenge whose `Reply-Message` is the
//!    prompt and whose `State` must be echoed.
//! 2. The module answers the challenge with the user's code. The engine
//!    validates and the handler maps the outcome to Accept/Reject.
//!
//! A request that arrives with a non-empty password and no `State` is
//! treated as a direct single-shot validation (some SSH/SFTP clients send
//! the token concatenated this way).

use crate::durability::OtpCluster;
use crate::server::span_cost;
use crate::server::{
    Answer, Begun, LinotpServer, ResumeConsumeOutcome, SmsTrigger, ValidationOutcome,
};
use hpcmfa_federation::{ResumeAuthority, TokenError};
use hpcmfa_otp::clock::Clock;
use hpcmfa_radius::attribute::{Attribute, AttributeType};
use hpcmfa_radius::packet::PacketView;
use hpcmfa_radius::server::{Handler, PendingDecision, Reply, ServerDecision};
use hpcmfa_radius::tracewire;
use hpcmfa_telemetry::{Counter, DetachedSpan, SecurityEventKind, SpanCtx, SpanGuard, SpanStatus};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock, Weak};
use std::task::Waker;

/// Prompt shown for the token challenge.
pub const TOKEN_PROMPT: &str = "TACC Token:";

/// Message when an SMS was just dispatched.
pub(crate) const SMS_SENT_MSG: &str = "An SMS with your token code has been sent. TACC Token:";

/// Message when a still-valid code suppresses a resend (§3.3).
pub(crate) const SMS_ALREADY_SENT_MSG: &str = "SMS already sent; code still valid. TACC Token:";

/// Reject message — deliberately uninformative to outsiders.
pub(crate) const AUTH_ERROR_MSG: &str = "Authentication error";

pub use hpcmfa_federation::RESUME_REPLY_PREFIX;

/// Resumption-token issuing/validating state, attached when the site
/// participates in federation with session resumption enabled.
struct ResumeState {
    authority: ResumeAuthority,
    /// Deterministic nonce source (seeded at attach time).
    rng: StdRng,
}

/// Every `outcome` of `hpcmfa_otp_resume_validations_total`: the
/// handler's own five, then [`TokenError::label`]'s.
const RESUME_OUTCOMES: [&str; 10] = [
    "not_enabled",
    "no_address",
    "ok",
    "replayed",
    "unavailable",
    "malformed",
    "bad_mac",
    "wrong_user",
    "wrong_address",
    "expired",
];

/// The OTP-validating RADIUS handler.
pub struct OtpRadiusHandler {
    server: Arc<LinotpServer>,
    clock: Arc<dyn Clock>,
    challenge_counter: AtomicU64,
    /// Replicated storage, when the deployment runs a warm standby. The
    /// handler is the failover trigger point: requests arrive here with
    /// no store locks held, so a due promotion can safely reload the
    /// server from the new primary before the request proceeds.
    cluster: Option<Arc<OtpCluster>>,
    /// Session-resumption issuing/validating authority, when attached.
    resume: Mutex<Option<ResumeState>>,
    /// `hpcmfa_otp_resume_validations_total` by [`RESUME_OUTCOMES`] slot,
    /// each looked up on first use and held (see the server's held series).
    resume_validations: [OnceLock<Arc<Counter>>; 10],
    /// The handle a parked decision keeps the handler by: what concludes
    /// it runs on whichever thread led its commit's sync.
    me: Weak<OtpRadiusHandler>,
}

/// A decision whose commit was appended while another thread's sync was
/// in flight. The operation's finish waits with the pump; what it
/// concludes and the reply that sends it meet here, and whichever comes
/// second runs the reply, on its own thread. A caller that blocks instead
/// waits here for the decision.
struct Parked {
    /// The half that came first.
    first: Mutex<Option<Half>>,
    /// Tells a caller blocked in [`Parked::decision`] it is concluded.
    concluded: Condvar,
    /// The server whose pump holds the commit, the commit's sequence
    /// number, and the operation's time.
    server: Arc<LinotpServer>,
    seq: u64,
    now: u64,
}

enum Half {
    Decision(ServerDecision),
    Reply(Reply),
    /// A caller blocked in [`Parked::decision`].
    Waiter,
}

impl Parked {
    /// Bring in one half: keep it for the other, run the reply with the
    /// decision, or hand the decision to the caller waiting for it.
    fn meet(&self, half: Half) {
        let mut first = self.first.lock();
        match (first.take(), half) {
            (Some(Half::Reply(reply)), Half::Decision(decision))
            | (Some(Half::Decision(decision)), Half::Reply(reply)) => {
                drop(first);
                reply(decision);
            }
            (Some(Half::Waiter), Half::Decision(decision)) => {
                *first = Some(Half::Decision(decision));
                drop(first);
                self.concluded.notify_one();
            }
            (_, half) => *first = Some(half),
        }
    }

    /// Block until the decision is concluded, and take it.
    fn decision(&self) -> ServerDecision {
        let mut first = self.first.lock();
        loop {
            match first.take() {
                Some(Half::Decision(decision)) => return decision,
                _ => *first = Some(Half::Waiter),
            }
            first = self
                .concluded
                .wait(first)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl PendingDecision for Parked {
    fn deliver(&self, reply: Reply) {
        self.meet(Half::Reply(reply));
    }

    fn nudge(&self, waker: &Waker) -> bool {
        self.server.nudge(self.now, waker)
    }

    fn wait(self: Arc<Self>) -> ServerDecision {
        self.server.drive(self.seq);
        self.decision()
    }
}

/// A parked operation's finish holds its [`Parked`] by this, and concludes
/// it once: a finish that panicked concluded nothing, which is a deny.
struct Concluder(Option<Arc<Parked>>);

impl Concluder {
    fn conclude(mut self, decision: ServerDecision) {
        if let Some(parked) = self.0.take() {
            parked.meet(Half::Decision(decision));
        }
    }
}

impl Drop for Concluder {
    fn drop(&mut self) {
        if let Some(parked) = self.0.take() {
            parked.meet(Half::Decision(OtpRadiusHandler::reject()));
        }
    }
}

impl OtpRadiusHandler {
    /// Bridge `server` using `clock` for validation time.
    pub fn new(server: Arc<LinotpServer>, clock: Arc<dyn Clock>) -> Arc<Self> {
        Self::build(server, clock, None)
    }

    fn build(
        server: Arc<LinotpServer>,
        clock: Arc<dyn Clock>,
        cluster: Option<Arc<OtpCluster>>,
    ) -> Arc<Self> {
        Arc::new_cyclic(|me| OtpRadiusHandler {
            server,
            clock,
            challenge_counter: AtomicU64::new(0),
            cluster,
            resume: Mutex::new(None),
            resume_validations: Default::default(),
            me: me.clone(),
        })
    }

    /// Like [`OtpRadiusHandler::new`], but backed by a replicated storage
    /// cluster: when the primary's circuit breaker opens, the next request
    /// promotes the warm standby before being served.
    pub fn with_cluster(
        server: Arc<LinotpServer>,
        clock: Arc<dyn Clock>,
        cluster: Arc<OtpCluster>,
    ) -> Arc<Self> {
        cluster.attach_server(Arc::clone(&server));
        Self::build(server, clock, Some(cluster))
    }

    /// Enable session resumption: full-MFA Accepts carry a
    /// `resume=<token>` `Reply-Message`, and later requests presenting a
    /// token skip the OTP engine entirely for one HMAC verify plus a
    /// single-use ledger check. `seed` feeds the deterministic nonce RNG.
    pub fn attach_resume(&self, authority: ResumeAuthority, seed: u64) {
        *self.resume.lock() = Some(ResumeState {
            authority,
            rng: StdRng::seed_from_u64(seed),
        });
    }

    /// Take a begun operation to its decision. A commit that finds no
    /// sync in flight leads one here, on the caller's thread, and
    /// `conclude` runs here too — a lone login's whole path. One that
    /// finds a sync in flight is parked: the operation's finish and
    /// `conclude` run on the thread holding the pump's release turn once
    /// the covering sync is over — usually that sync's leader — and the
    /// caller gets a [`ServerDecision::Pending`]. The reply the caller
    /// hands it runs on that thread too; a caller that waits instead is
    /// handed the decision.
    fn drive<A: Answer>(
        &self,
        begun: Begun<'_, A>,
        conclude: impl FnOnce(&Self, &str, A::Reply) -> ServerDecision + Send + 'static,
    ) -> ServerDecision {
        let waits = begun.would_wait();
        let Some((seq, me)) = waits.and_then(|seq| Some((seq, self.me.upgrade()?))) else {
            let username = begun.user();
            return conclude(self, username, begun.settle());
        };
        let parked = Arc::new(Parked {
            first: Mutex::new(None),
            concluded: Condvar::new(),
            server: Arc::clone(&self.server),
            seq,
            now: begun.now(),
        });
        let concluder = Concluder(Some(Arc::clone(&parked)));
        let finish = move |username: &str, outcome| {
            concluder.conclude(conclude(&me, username, outcome));
        };
        if begun.park(Arc::clone(&parked.server), finish) {
            ServerDecision::Pending(parked)
        } else {
            parked.decision()
        }
    }

    fn count_resume(&self, outcome: &'static str) {
        let lookup = || {
            self.server.metrics().counter(
                "hpcmfa_otp_resume_validations_total",
                &[("outcome", outcome)],
            )
        };
        match RESUME_OUTCOMES.iter().position(|o| *o == outcome) {
            Some(slot) => self.resume_validations[slot].get_or_init(lookup).inc(),
            None => lookup().inc(),
        }
    }

    /// O(1) resumption path: one MAC verify + binding checks + a durable
    /// single-use nonce consume. Never touches the OTP window scan.
    fn handle_resume(
        &self,
        username: &str,
        token: &str,
        source: Option<Ipv4Addr>,
        now: u64,
        ctx: Option<SpanCtx>,
    ) -> ServerDecision {
        let tracer = self.server.metrics().tracer();
        let mut span = ctx.as_ref().map(|c| tracer.start(c, "otp", "resume"));
        let child = span.as_ref().map(|g| g.child_ctx());
        let refuse = |span: &mut Option<SpanGuard<'_>>, outcome: &'static str| {
            self.count_resume(outcome);
            if let Some(g) = span.as_mut() {
                g.set_status(SpanStatus::Error);
                g.set_detail(outcome);
            }
        };
        let mut guard = self.resume.lock();
        let Some(state) = guard.as_mut() else {
            // Token-shaped password at a site with resumption disabled.
            refuse(&mut span, "not_enabled");
            return Self::reject().with_clock(ctx.as_ref());
        };
        let Some(client) = source else {
            // Address binding is the point; no Calling-Station-Id, no entry.
            refuse(&mut span, "no_address");
            return Self::reject().with_clock(ctx.as_ref());
        };
        match state.authority.validate(token, username, client, now) {
            Ok(claims) => {
                let expires_at = state.authority.expires_at(claims.issued_step);
                drop(guard);
                let begun = self.server.resume_consume_begin(
                    username,
                    claims.nonce,
                    expires_at,
                    now,
                    child.as_ref(),
                );
                let span = span.map(SpanGuard::detach);
                self.drive(begun, move |this, _, outcome| {
                    this.conclude_resume(outcome, span, ctx.as_ref())
                })
            }
            Err(err) => {
                refuse(&mut span, err.label());
                if err == TokenError::WrongAddress {
                    // A valid token from outside its bound /16 is the
                    // stolen-token shape (RFC 9000 §8.1.4): the MAC passed,
                    // so someone holds a real token somewhere it was never
                    // issued to.
                    self.server.metrics().emit_event(
                        SecurityEventKind::ResumeReplay,
                        ctx.as_ref().map(|c| c.trace),
                        span.as_ref().map(|g| g.id()),
                        now,
                        format!("user={username} valid resume token from foreign /16 ({client})"),
                    );
                }
                Self::reject().with_clock(ctx.as_ref())
            }
        }
    }

    /// What a resume consume's outcome concludes, closing the `resume`
    /// span that was open across it.
    fn conclude_resume(
        &self,
        outcome: ResumeConsumeOutcome,
        span: Option<DetachedSpan>,
        ctx: Option<&SpanCtx>,
    ) -> ServerDecision {
        let mut span = span.map(|s| self.server.metrics().tracer().attach(s));
        let (label, decision) = match outcome {
            ResumeConsumeOutcome::Fresh => ("ok", ServerDecision::Accept(vec![])),
            ResumeConsumeOutcome::Replayed => ("replayed", Self::reject()),
            ResumeConsumeOutcome::Unavailable => ("unavailable", Self::reject()),
        };
        self.count_resume(label);
        if let Some(g) = span.as_mut() {
            g.set_detail(label);
            if outcome != ResumeConsumeOutcome::Fresh {
                g.set_status(SpanStatus::Error);
            }
        }
        decision.with_clock(ctx)
    }

    /// What an SMS trigger's outcome concludes.
    fn conclude_sms(&self, trigger: SmsTrigger, ctx: Option<&SpanCtx>) -> ServerDecision {
        let decision = match trigger {
            SmsTrigger::Sent(_) => self.challenge(SMS_SENT_MSG),
            SmsTrigger::AlreadyActive => self.challenge(SMS_ALREADY_SENT_MSG),
            // Soft/hard/static users just get the prompt; users with no
            // pairing are prompted too (the "full" enforcement mode
            // prompts regardless, §3.4) and will fail validation.
            SmsTrigger::NotSmsUser | SmsTrigger::NoToken => self.challenge(TOKEN_PROMPT),
            SmsTrigger::Locked | SmsTrigger::Unavailable => Self::reject(),
        };
        decision.with_clock(ctx)
    }

    /// What a validation's outcome concludes.
    fn conclude_validate(
        &self,
        outcome: ValidationOutcome,
        username: &str,
        source: Option<Ipv4Addr>,
        now: u64,
        ctx: Option<&SpanCtx>,
    ) -> ServerDecision {
        if !outcome.is_success() {
            return Self::reject().with_clock(ctx);
        }
        if self.cluster.is_some() {
            // Replicated deployments ship the accept's WAL frame to the
            // warm standby and wait for its ack before answering.
            if let Some(c) = ctx {
                let ack = self
                    .server
                    .metrics()
                    .tracer()
                    .start(c, "otp", "replication_ack");
                c.clock.advance_us(span_cost::REPLICATION_ACK_US);
                ack.finish();
            }
        }
        // Full MFA succeeded: hand back a resumption token bound to
        // this user and client /16, if the site issues them.
        let mut attrs = Vec::new();
        if let Some(client) = source {
            if let Some(state) = self.resume.lock().as_mut() {
                let token = state.authority.issue(&mut state.rng, username, client, now);
                attrs.push(Attribute::text(
                    AttributeType::ReplyMessage,
                    &format!("{RESUME_REPLY_PREFIX}{token}"),
                ));
            }
        }
        ServerDecision::Accept(attrs).with_clock(ctx)
    }

    fn fresh_state(&self) -> Vec<u8> {
        let n = self.challenge_counter.fetch_add(1, Ordering::Relaxed);
        let mut state = b"otp-chal-".to_vec();
        state.extend_from_slice(&n.to_be_bytes());
        state
    }

    fn challenge(&self, message: &str) -> ServerDecision {
        ServerDecision::Challenge(vec![
            Attribute::new(AttributeType::State, self.fresh_state()),
            Attribute::text(AttributeType::ReplyMessage, message),
        ])
    }

    fn reject() -> ServerDecision {
        ServerDecision::Reject(vec![Attribute::text(
            AttributeType::ReplyMessage,
            AUTH_ERROR_MSG,
        )])
    }
}

impl Handler for OtpRadiusHandler {
    /// Every field is read straight out of the receive buffer, so a full
    /// OTP validation performs no per-attribute allocation between socket
    /// and store.
    fn handle_view(&self, request: &PacketView<'_>, password: Option<&[u8]>) -> ServerDecision {
        // Failover safe point: promote a due standby before touching the
        // store (the promotion reloads the server's working set).
        if let Some(cluster) = &self.cluster {
            cluster.maybe_failover(self.clock.now());
        }
        let Some(username) = request.text(AttributeType::UserName) else {
            return ServerDecision::Discard;
        };
        let Some(password) = password else {
            // No decryptable password attribute at all: malformed client.
            return ServerDecision::Discard;
        };
        let now = self.clock.now();
        // The login node's span context, if the client stamped one on the
        // wire: the trace id threads the audit rows, the parent span id
        // hangs the responder's spans under the requesting attempt, and
        // the clock reading keeps virtual timestamps monotone across the
        // hop.
        let ctx = tracewire::trace_ctx_of_view(request).map(|w| w.span_ctx());
        // The client's source address (Calling-Station-Id) feeds the
        // per-network admission control when overload protection is on.
        let source = request
            .text(AttributeType::CallingStationId)
            .and_then(|s| s.parse().ok());

        if password.is_empty() {
            // Null request: open the challenge, texting SMS users first.
            let begun = self
                .server
                .trigger_sms_begin(username, now, ctx.as_ref(), source);
            return match begun {
                Ok(begun) => self.drive(begun, move |this, _, trigger| {
                    this.conclude_sms(trigger, ctx.as_ref())
                }),
                Err(shed) => self.conclude_sms(shed, ctx.as_ref()),
            };
        }

        let Ok(code) = std::str::from_utf8(password) else {
            return Self::reject().with_clock(ctx.as_ref());
        };
        if ResumeAuthority::is_token(code) {
            return self.handle_resume(username, code, source, now, ctx);
        }
        let begun = self
            .server
            .validate_begin(username, code, now, ctx.as_ref(), source);
        match begun {
            Ok(begun) => self.drive(begun, move |this, username, outcome| {
                this.conclude_validate(outcome, username, source, now, ctx.as_ref())
            }),
            Err(shed) => self.conclude_validate(shed, username, source, now, ctx.as_ref()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::sms::{PhoneNumber, SmsProvider, TwilioSim};
    use hpcmfa_otp::clock::SimClock;
    use hpcmfa_otp::device::SoftToken;
    use hpcmfa_otp::totp::TotpParams;
    use hpcmfa_radius::client::{ClientConfig, Outcome, RadiusClient};
    use hpcmfa_radius::packet::Packet;
    use hpcmfa_radius::server::RadiusServer;
    use hpcmfa_radius::transport::{FaultPlan, InMemoryTransport, Transport};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const NOW: u64 = 1_475_000_000;
    const SECRET: &[u8] = b"pool";

    /// The server's reply to `datagram`, if it answers.
    fn answer(server: &RadiusServer, datagram: &[u8]) -> Option<Vec<u8>> {
        let (mut reply, mut pw_scratch) = (Vec::new(), Vec::new());
        server
            .process_into(datagram, &mut reply, &mut pw_scratch)
            .then_some(reply)
    }

    struct Rig {
        client: RadiusClient,
        linotp: Arc<LinotpServer>,
        twilio: Arc<TwilioSim>,
        clock: SimClock,
        rng: StdRng,
    }

    fn rig() -> Rig {
        // Seed chosen so the carrier sim's 1% slow-path draw stays on the
        // fast path for the messages these tests send.
        let twilio = TwilioSim::new(10);
        let linotp = LinotpServer::with_config(
            Arc::clone(&twilio) as Arc<dyn SmsProvider>,
            77,
            ServerConfig::default(),
        );
        let clock = SimClock::at(NOW);
        let handler = OtpRadiusHandler::new(Arc::clone(&linotp), Arc::new(clock.clone()));
        let radius = Arc::new(RadiusServer::new(SECRET, handler));
        let transport: Arc<dyn Transport> =
            Arc::new(InMemoryTransport::new("r0", radius, FaultPlan::healthy()));
        let client = RadiusClient::new(ClientConfig::new(SECRET, "login1"), vec![transport]);
        Rig {
            client,
            linotp,
            twilio,
            clock,
            rng: StdRng::seed_from_u64(5),
        }
    }

    #[test]
    fn totp_challenge_flow_end_to_end() {
        let mut rig = rig();
        let secret = rig.linotp.enroll_soft("alice", NOW);
        let device = SoftToken::new(secret, TotpParams::default());

        let out = rig
            .client
            .authenticate(&mut rig.rng, "alice", b"", "198.51.100.7")
            .unwrap();
        let Outcome::Challenge { state, message } = out else {
            panic!("expected challenge, got {out:?}");
        };
        assert_eq!(message.as_deref(), Some(TOKEN_PROMPT));

        let code = device.displayed_code(rig.clock.now());
        let fin = rig
            .client
            .respond_to_challenge(
                &mut rig.rng,
                "alice",
                code.as_bytes(),
                "198.51.100.7",
                &state,
            )
            .unwrap();
        assert!(matches!(fin, Outcome::Accept { .. }));
    }

    #[test]
    fn wrong_code_rejected_with_message() {
        let mut rig = rig();
        rig.linotp.enroll_soft("alice", NOW);
        let out = rig
            .client
            .authenticate(&mut rig.rng, "alice", b"000000", "198.51.100.7")
            .unwrap();
        assert!(matches!(out, Outcome::Reject { message: Some(m) } if m == AUTH_ERROR_MSG));
    }

    #[test]
    fn sms_flow_end_to_end() {
        let mut rig = rig();
        let phone = PhoneNumber::parse("5125551234").unwrap();
        rig.linotp.enroll_sms("bob", phone.clone(), NOW);

        // Null request triggers the text.
        let out = rig
            .client
            .authenticate(&mut rig.rng, "bob", b"", "198.51.100.7")
            .unwrap();
        let Outcome::Challenge { state, message } = out else {
            panic!("expected challenge");
        };
        assert_eq!(message.as_deref(), Some(SMS_SENT_MSG));

        // Another null request while the code is active: suppressed resend.
        let out2 = rig
            .client
            .authenticate(&mut rig.rng, "bob", b"", "198.51.100.7")
            .unwrap();
        assert!(
            matches!(out2, Outcome::Challenge { ref message, .. } if message.as_deref() == Some(SMS_ALREADY_SENT_MSG))
        );
        assert_eq!(rig.twilio.sent_count(), 1);

        // The phone receives the message after carrier latency.
        rig.clock.advance(15);
        let text = rig.twilio.latest_delivered(&phone, rig.clock.now());
        let code = text.unwrap().code().to_string();

        let fin = rig
            .client
            .respond_to_challenge(&mut rig.rng, "bob", code.as_bytes(), "198.51.100.7", &state)
            .unwrap();
        assert!(matches!(fin, Outcome::Accept { .. }));
    }

    #[test]
    fn unpaired_user_is_prompted_then_rejected() {
        let mut rig = rig();
        let out = rig
            .client
            .authenticate(&mut rig.rng, "ghost", b"", "198.51.100.7")
            .unwrap();
        let Outcome::Challenge { state, .. } = out else {
            panic!("expected challenge");
        };
        let fin = rig
            .client
            .respond_to_challenge(&mut rig.rng, "ghost", b"123456", "198.51.100.7", &state)
            .unwrap();
        assert!(matches!(fin, Outcome::Reject { .. }));
    }

    #[test]
    fn locked_user_rejected_at_null_request() {
        let mut rig = rig();
        let phone = PhoneNumber::parse("5125551234").unwrap();
        rig.linotp.enroll_sms("bob", phone, NOW);
        rig.linotp.store().with_record("bob", |r| r.active = false);
        let out = rig
            .client
            .authenticate(&mut rig.rng, "bob", b"", "198.51.100.7")
            .unwrap();
        assert!(matches!(out, Outcome::Reject { .. }));
    }

    #[test]
    fn missing_username_discarded() {
        let rig = rig();
        // Hand-build a request without User-Name.
        use hpcmfa_radius::auth::{fixture_authenticator, hide_password};
        use hpcmfa_radius::packet::Code;
        let ra = fixture_authenticator("x");
        let req = Packet::new(Code::AccessRequest, 1, ra).with_attribute(Attribute::new(
            AttributeType::UserPassword,
            hide_password(b"123456", &ra, SECRET),
        ));
        // Route straight through a server to observe the discard.
        let handler = OtpRadiusHandler::new(Arc::clone(&rig.linotp), Arc::new(SimClock::at(NOW)));
        let server = RadiusServer::new(SECRET, handler);
        assert_eq!(answer(&server, &req.encode()), None);
    }

    #[test]
    fn retired_flat_id_attribute_is_served_untraced() {
        use hpcmfa_radius::auth::{fixture_authenticator, hide_password};
        use hpcmfa_radius::packet::Code;
        use hpcmfa_radius::tracewire::{TRACE_VENDOR_ID, TRACE_VENDOR_TYPE};
        let rig = rig();
        rig.linotp.enroll_soft("alice", NOW);
        let handler = OtpRadiusHandler::new(Arc::clone(&rig.linotp), Arc::new(SimClock::at(NOW)));
        let server = RadiusServer::new(SECRET, handler);
        let ra = fixture_authenticator("x");
        let plain = Packet::new(Code::AccessRequest, 1, ra)
            .with_attribute(Attribute::text(AttributeType::UserName, "alice"))
            .with_attribute(Attribute::new(
                AttributeType::UserPassword,
                hide_password(b"000000", &ra, SECRET),
            ));
        // What a pre-span sender put on the wire: the bare 8-byte trace id.
        let mut flat_id = TRACE_VENDOR_ID.to_be_bytes().to_vec();
        flat_id.extend([TRACE_VENDOR_TYPE, 10]);
        flat_id.extend(0xabcd_u64.to_be_bytes());
        let flat = plain
            .clone()
            .with_attribute(Attribute::new(AttributeType::VendorSpecific, flat_id));
        // Same reply to the byte, no span, no trace id in the audit rows.
        let untraced = answer(&server, &plain.encode());
        assert!(untraced.is_some());
        assert_eq!(answer(&server, &flat.encode()), untraced);
        assert!(rig.linotp.metrics().tracer().is_empty());
        let rows = rig.linotp.audit().for_user("alice");
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|e| !e.detail.contains("trace=")));
    }

    #[test]
    fn challenge_states_are_unique() {
        let rig = rig();
        let handler = OtpRadiusHandler::new(Arc::clone(&rig.linotp), Arc::new(SimClock::at(NOW)));
        let s1 = handler.fresh_state();
        let s2 = handler.fresh_state();
        assert_ne!(s1, s2);
    }
}
