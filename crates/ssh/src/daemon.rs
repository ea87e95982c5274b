//! The sshd authentication state machine.
//!
//! The §3.4 flow: "SSH would be configured to test for an authorized public
//! key and then hand off the authentication decision, including password
//! check, if necessary, to PAM." On a failed password "the PAM stack is
//! restarted and the user is prompted once again for a password, up to a
//! maximum of two more times before SSH disconnect."

use crate::authlog::{AuthLog, AuthMethod, LogEntry};
use crate::client::{ClientProfile, ConnectionRequest, CredentialResponder, ProfileResponder};
use crate::keys::PublicKey;
use hpcmfa_otp::clock::Clock;
use hpcmfa_pam::conv::{ConvError, Conversation, Prompt};
use hpcmfa_pam::stack::{PamStack, PamVerdict};
use hpcmfa_telemetry::{trace, Counter, MetricsRegistry, SpanStatus, TraceClock, TraceId};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// sshd's `MaxAuthTries`-equivalent: one initial try plus "two more times".
pub(crate) const MAX_STACK_ATTEMPTS: u32 = 3;

/// What one connection attempt produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// Whether entry was granted.
    pub granted: bool,
    /// Number of PAM stack runs consumed.
    pub attempts: u32,
    /// Whether the first factor was a public key.
    pub used_pubkey: bool,
    /// Whether an MFA token prompt was shown (Figure 4's MFA/non-MFA
    /// traffic classification).
    pub mfa_prompted: bool,
    /// Every prompt text shown during the session.
    pub prompts: Vec<String>,
    /// The banner text presented before authentication.
    pub banner: String,
    /// One trace id per PAM stack attempt, in order. Derived
    /// deterministically from the daemon name and a per-daemon sequence, so
    /// identical simulations mint identical ids.
    pub trace_ids: Vec<TraceId>,
    /// Session-resumption token issued by the OTP server when this login
    /// completed full MFA at a federation-enabled site. The client may
    /// present it in place of a code on its next connection from the same
    /// /16.
    pub issued_resume_token: Option<String>,
}

/// Bridges a [`CredentialResponder`] into a PAM [`Conversation`], recording
/// prompts.
struct RecordingConversation<'a> {
    responder: &'a mut dyn CredentialResponder,
    clock: Arc<dyn Clock>,
    prompts: Vec<String>,
    /// Set when the client proved unable to converse; retrying the stack
    /// would deny identically, so the daemon disconnects instead.
    conversation_dead: bool,
}

impl Conversation for RecordingConversation<'_> {
    fn converse(&mut self, prompt: &Prompt) -> Result<String, ConvError> {
        self.prompts.push(prompt.text().to_string());
        let out = self.responder.respond(prompt, self.clock.now());
        if out.is_err() {
            self.conversation_dead = true;
        }
        out
    }
}

/// A login node's sshd.
pub struct SshDaemon {
    /// NAS identifier, e.g. `login1.stampede`. Shared, so every session
    /// span stamps it without a copy.
    pub name: Arc<str>,
    authorized: RwLock<HashMap<String, HashSet<String>>>,
    stack: Arc<PamStack>,
    authlog: AuthLog,
    clock: Arc<dyn Clock>,
    banner: RwLock<String>,
    /// Trace-id namespace, derived from the daemon name.
    trace_ns: u64,
    /// Per-daemon attempt sequence feeding deterministic trace ids.
    trace_seq: AtomicU64,
    /// Optional telemetry registry for session counters.
    metrics: Option<Arc<MetricsRegistry>>,
    /// `hpcmfa_ssh_sessions_total` by outcome (denied, granted) and
    /// `hpcmfa_ssh_stack_attempts_total`, each looked up in `metrics` the
    /// first time it is counted and held from then on.
    sessions: [OnceLock<Arc<Counter>>; 2],
    stack_attempts: OnceLock<Arc<Counter>>,
}

impl SshDaemon {
    /// Bring up a daemon with `stack` and a shared `authlog`.
    pub fn new(name: &str, stack: Arc<PamStack>, authlog: AuthLog, clock: Arc<dyn Clock>) -> Self {
        SshDaemon {
            name: name.into(),
            authorized: RwLock::new(HashMap::new()),
            stack,
            authlog,
            clock,
            banner: RwLock::new(String::new()),
            trace_ns: trace::namespace(name),
            trace_seq: AtomicU64::new(0),
            metrics: None,
            sessions: Default::default(),
            stack_attempts: OnceLock::new(),
        }
    }

    /// Like [`SshDaemon::new`], additionally counting sessions and attempts
    /// in `metrics` under `hpcmfa_ssh_*` with a `daemon` label.
    pub fn with_metrics(
        name: &str,
        stack: Arc<PamStack>,
        authlog: AuthLog,
        clock: Arc<dyn Clock>,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let mut daemon = Self::new(name, stack, authlog, clock);
        daemon.metrics = Some(metrics);
        daemon
    }

    /// Install a public key for `user` (an `authorized_keys` line).
    pub fn authorize_key(&self, user: &str, key: &PublicKey) {
        self.authorized
            .write()
            .entry(user.to_string())
            .or_default()
            .insert(key.fingerprint());
    }

    /// The shared auth log.
    pub fn authlog(&self) -> &AuthLog {
        &self.authlog
    }

    fn key_authorized(&self, user: &str, fingerprint: &str) -> bool {
        self.authorized
            .read()
            .get(user)
            .is_some_and(|set| set.contains(fingerprint))
    }

    /// Handle a full connection from `profile`.
    pub fn connect(&self, profile: &ClientProfile) -> SessionReport {
        let request = ConnectionRequest {
            username: profile.username.clone(),
            source_ip: profile.source_ip,
            offered_key_fingerprint: profile.key.as_ref().map(|k| k.public().fingerprint()),
            wants_tty: profile.wants_tty,
        };
        let mut responder = ProfileResponder::new(profile);
        self.connect_with(&request, &mut responder)
    }

    /// Handle a connection with an explicit responder (lets the
    /// multiplexing layer and tests drive the conversation directly).
    pub(crate) fn connect_with(
        &self,
        request: &ConnectionRequest,
        responder: &mut dyn CredentialResponder,
    ) -> SessionReport {
        let now = self.clock.now();

        // Phase 1: sshd's own public key verification, logged so the PAM
        // pubkey module can discover it.
        let used_pubkey = match &request.offered_key_fingerprint {
            Some(fp) if self.key_authorized(&request.username, fp) => {
                self.authlog.record(LogEntry {
                    at: now,
                    user: request.username.clone(),
                    rhost: request.source_ip,
                    method: AuthMethod::Publickey,
                    success: true,
                    tty: request.wants_tty,
                });
                true
            }
            Some(fp) => {
                self.authlog.record(LogEntry {
                    at: now,
                    user: request.username.clone(),
                    rhost: request.source_ip,
                    method: AuthMethod::Publickey,
                    success: false,
                    tty: request.wants_tty,
                });
                let _ = fp;
                false
            }
            None => false,
        };

        // Phase 2: PAM, with sshd's retry-on-deny loop.
        let mut conv = RecordingConversation {
            responder,
            clock: Arc::clone(&self.clock),
            prompts: Vec::new(),
            conversation_dead: false,
        };
        let banner = self.banner.read().clone();

        let mut attempts = 0;
        let mut granted = false;
        let mut trace_ids = Vec::new();
        let mut issued_resume_token = None;
        // One virtual trace clock for the whole connection: attempts are
        // sequential, so later attempts' spans start after earlier ones
        // even though each attempt is its own trace.
        let session_clock = TraceClock::at(now.saturating_mul(1_000_000));
        while attempts < MAX_STACK_ATTEMPTS {
            attempts += 1;
            let mut ctx = hpcmfa_pam::context::PamContext::new(
                &request.username,
                request.source_ip,
                Arc::clone(&self.clock),
                &mut conv,
            );
            ctx.pubkey_succeeded = false;
            // Replace the minted fallback with a deterministic per-daemon
            // id so simulation output stays seed-reproducible.
            ctx.trace_id = TraceId::derive(
                self.trace_ns,
                self.trace_seq.fetch_add(1, Ordering::Relaxed),
            );
            ctx.trace_clock = session_clock.clone();
            trace_ids.push(ctx.trace_id);
            // Root span of this attempt's trace: the sshd session hop.
            let session_span = self.metrics.as_ref().map(|m| {
                let mut guard = m.tracer().start(&ctx.span_ctx(), "ssh", "session");
                guard.attr_str("daemon", Arc::clone(&self.name));
                guard.attr_u64("attempt", u64::from(attempts));
                guard
            });
            ctx.parent_span = session_span.as_ref().map(|g| g.id());
            let verdict = self.stack.authenticate(&mut ctx);
            if let Some(mut guard) = session_span {
                if verdict == PamVerdict::Denied {
                    guard.set_status(SpanStatus::Error);
                }
                guard.finish();
            }
            match verdict {
                PamVerdict::Granted => {
                    granted = true;
                    issued_resume_token = ctx.issued_resume_token.take();
                    break;
                }
                PamVerdict::Denied => {
                    // Only a fresh password attempt justifies restarting
                    // the stack; a dead conversation or a token denial is
                    // final for this connection.
                    if conv.conversation_dead
                        || !conv
                            .prompts
                            .last()
                            .is_some_and(|p| p.to_ascii_lowercase().contains("password"))
                    {
                        break;
                    }
                }
            }
        }

        let mfa_prompted = conv
            .prompts
            .iter()
            .any(|p| p.contains("Token") || p.contains("token"));

        self.authlog.record(LogEntry {
            at: self.clock.now(),
            user: request.username.clone(),
            rhost: request.source_ip,
            method: if mfa_prompted {
                AuthMethod::KeyboardInteractive
            } else if used_pubkey {
                AuthMethod::Publickey
            } else {
                AuthMethod::Password
            },
            success: granted,
            tty: request.wants_tty,
        });

        if let Some(metrics) = &self.metrics {
            let outcome = if granted { "granted" } else { "denied" };
            self.sessions[usize::from(granted)]
                .get_or_init(|| {
                    metrics.counter(
                        "hpcmfa_ssh_sessions_total",
                        &[("daemon", &*self.name), ("outcome", outcome)],
                    )
                })
                .inc();
            self.stack_attempts
                .get_or_init(|| {
                    metrics.counter(
                        "hpcmfa_ssh_stack_attempts_total",
                        &[("daemon", &*self.name)],
                    )
                })
                .add(u64::from(attempts));
        }

        SessionReport {
            granted,
            attempts,
            used_pubkey,
            mfa_prompted,
            prompts: conv.prompts,
            banner,
            trace_ids,
            issued_resume_token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TokenSource;
    use crate::keys::KeyPair;
    use hpcmfa_directory::ldap::{Directory, Entry};
    use hpcmfa_otp::clock::SimClock;
    use hpcmfa_pam::modules::password::{hash_password, UnixPasswordModule, PASSWORD_ATTR};
    use hpcmfa_pam::modules::pubkey::PubkeyCheckModule;
    use hpcmfa_pam::stack::ControlFlag;
    use std::net::Ipv4Addr;

    /// A two-factor-free stack: pubkey skips password, password otherwise.
    fn first_factor_stack(directory: Directory, authlog: AuthLog) -> Arc<PamStack> {
        let mut stack = PamStack::new();
        stack.push(
            ControlFlag::SuccessSkip(1),
            PubkeyCheckModule::new(Arc::new(authlog)),
        );
        stack.push(
            ControlFlag::Requisite,
            UnixPasswordModule::new(directory, "dc=tacc"),
        );
        // A terminal "permit" so the stack has a granting module when the
        // pubkey path skipped the password.
        struct Permit;
        impl hpcmfa_pam::stack::PamModule for Permit {
            fn name(&self) -> &'static str {
                "pam_permit"
            }
            fn authenticate(
                &self,
                _: &mut hpcmfa_pam::context::PamContext<'_>,
            ) -> hpcmfa_pam::stack::PamResult {
                hpcmfa_pam::stack::PamResult::Success
            }
        }
        stack.push(ControlFlag::Required, Arc::new(Permit));
        Arc::new(stack)
    }

    fn directory_with(user: &str, password: &str) -> Directory {
        let dir = Directory::new();
        dir.add(
            Entry::new(format!("uid={user},ou=people,dc=tacc"))
                .with_attr("uid", user)
                .with_attr(PASSWORD_ATTR, &hash_password(password, "na")),
        )
        .unwrap();
        dir
    }

    fn daemon() -> SshDaemon {
        let authlog = AuthLog::new();
        let dir = directory_with("alice", "hunter2");
        let stack = first_factor_stack(dir, authlog.clone());
        SshDaemon::new("login1", stack, authlog, Arc::new(SimClock::at(1_000_000)))
    }

    #[test]
    fn password_login_succeeds() {
        let d = daemon();
        let profile =
            ClientProfile::interactive_user("alice", Ipv4Addr::new(8, 8, 8, 8), "hunter2");
        let report = d.connect(&profile);
        assert!(report.granted);
        assert!(!report.used_pubkey);
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn wrong_password_retries_then_disconnects() {
        let d = daemon();
        let profile = ClientProfile::interactive_user("alice", Ipv4Addr::new(8, 8, 8, 8), "wrong");
        let report = d.connect(&profile);
        assert!(!report.granted);
        assert_eq!(report.attempts, MAX_STACK_ATTEMPTS);
        // Three password prompts were shown.
        assert_eq!(
            report
                .prompts
                .iter()
                .filter(|p| p.contains("Password"))
                .count(),
            3
        );
    }

    #[test]
    fn pubkey_login_skips_password() {
        let d = daemon();
        let key = KeyPair::generate("alice@laptop");
        d.authorize_key("alice", key.public());
        let profile = ClientProfile::batch_client("alice", Ipv4Addr::new(8, 8, 8, 8), key);
        let report = d.connect(&profile);
        assert!(report.granted);
        assert!(report.used_pubkey);
        assert!(report.prompts.is_empty(), "no prompts for key login");
    }

    #[test]
    fn unauthorized_key_falls_back_to_password_and_fails_for_batch() {
        let d = daemon();
        let key = KeyPair::generate("stranger@box");
        let profile = ClientProfile::batch_client("alice", Ipv4Addr::new(8, 8, 8, 8), key);
        let report = d.connect(&profile);
        assert!(!report.granted);
        // Batch client can't answer the password prompt: single attempt.
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn auth_log_records_both_phases() {
        let d = daemon();
        let key = KeyPair::generate("alice@laptop");
        d.authorize_key("alice", key.public());
        let profile = ClientProfile::batch_client("alice", Ipv4Addr::new(8, 8, 8, 8), key);
        d.connect(&profile);
        let entries = d.authlog().entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].method, AuthMethod::Publickey);
        assert!(entries[0].success);
        assert!(entries[1].success);
    }

    #[test]
    fn trace_ids_are_deterministic_per_daemon_and_counted() {
        use hpcmfa_telemetry::MetricsRegistry;
        let metrics = Arc::new(MetricsRegistry::new());
        let build = |metrics: Arc<MetricsRegistry>| {
            let authlog = AuthLog::new();
            let dir = directory_with("alice", "hunter2");
            let stack = first_factor_stack(dir, authlog.clone());
            SshDaemon::with_metrics(
                "login1",
                stack,
                authlog,
                Arc::new(SimClock::at(1_000_000)),
                metrics,
            )
        };
        let d1 = build(Arc::clone(&metrics));
        let d2 = build(Arc::new(MetricsRegistry::new()));
        let profile =
            ClientProfile::interactive_user("alice", Ipv4Addr::new(8, 8, 8, 8), "hunter2");
        let r1 = d1.connect(&profile);
        let r2 = d2.connect(&profile);
        // One attempt, one trace id, identical across identically-named
        // daemons (seed reproducibility for simulations).
        assert_eq!(r1.trace_ids.len(), 1);
        assert_eq!(r1.trace_ids, r2.trace_ids);
        // A second session on the same daemon mints a fresh id.
        let r3 = d1.connect(&profile);
        assert_ne!(r1.trace_ids, r3.trace_ids);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter_family("hpcmfa_ssh_sessions_total"),
            2,
            "both d1 sessions counted"
        );
        assert_eq!(snap.counter_family("hpcmfa_ssh_stack_attempts_total"), 2);
    }

    #[test]
    fn fixed_token_source_marks_mfa_prompted() {
        // Stack with a prompt containing "Token" to verify classification.
        struct TokenPrompt;
        impl hpcmfa_pam::stack::PamModule for TokenPrompt {
            fn name(&self) -> &'static str {
                "fake_token"
            }
            fn authenticate(
                &self,
                ctx: &mut hpcmfa_pam::context::PamContext<'_>,
            ) -> hpcmfa_pam::stack::PamResult {
                match ctx.conv.converse(&Prompt::EchoOff("TACC Token:".into())) {
                    Ok(code) if code == "424242" => hpcmfa_pam::stack::PamResult::Success,
                    Ok(_) => hpcmfa_pam::stack::PamResult::AuthErr,
                    Err(_) => hpcmfa_pam::stack::PamResult::Abort,
                }
            }
        }
        let authlog = AuthLog::new();
        let mut stack = PamStack::new();
        stack.push(ControlFlag::Required, Arc::new(TokenPrompt));
        let d = SshDaemon::new(
            "login1",
            Arc::new(stack),
            authlog,
            Arc::new(SimClock::at(0)),
        );
        let profile = ClientProfile::interactive_user("alice", Ipv4Addr::new(8, 8, 8, 8), "x")
            .with_token(TokenSource::Fixed("424242".into()));
        let report = d.connect(&profile);
        assert!(report.granted);
        assert!(report.mfa_prompted);
    }
}
