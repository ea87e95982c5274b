//! The PAM stack engine.
//!
//! Implements the Linux-PAM control-flag semantics the paper's Figure 1
//! stack relies on, including the bracketed jump form
//! (`[success=N default=ignore]`) that the in-house pubkey module uses to
//! skip the password prompt when public key authentication already
//! succeeded.

use crate::context::PamContext;
use hpcmfa_telemetry::{Counter, MetricsRegistry, SecurityEventKind, SpanStatus};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Consecutive denials before the stack reports an auth-failure burst on
/// the security-event ring. Well under the OTP server's 20-failure
/// lockout, so operators hear about a credential-stuffing run before
/// accounts start locking.
pub(crate) const FAILURE_BURST_THRESHOLD: u32 = 5;

/// A module's result for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PamResult {
    /// `PAM_SUCCESS`.
    Success,
    /// `PAM_IGNORE` — contributes nothing to the verdict.
    Ignore,
    /// `PAM_AUTH_ERR` — authentication failed.
    AuthErr,
    /// `PAM_ABORT` — unrecoverable (conversation unsupported, etc.).
    Abort,
}

/// How a module's result steers the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFlag {
    /// Failure marks the stack failed but processing continues (so an
    /// attacker can't probe which module rejected them).
    Required,
    /// Failure returns immediately.
    Requisite,
    /// Success (with no earlier `required` failure) returns success
    /// immediately; failure is ignored.
    Sufficient,
    /// Result ignored unless it is the only module.
    Optional,
    /// `[success=N default=ignore]`: on success skip the next `N` modules;
    /// anything else is ignored. This is how "Public Key Success?" bypasses
    /// the password module in Figure 1.
    SuccessSkip(usize),
}

/// A PAM authentication module.
pub trait PamModule: Send + Sync {
    /// Module name for logs and config files (e.g. `pam_mfa_token`).
    fn name(&self) -> &'static str;

    /// Run the module.
    fn authenticate(&self, ctx: &mut PamContext<'_>) -> PamResult;
}

/// The final stack verdict handed back to sshd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PamVerdict {
    /// Grant system entry.
    Granted,
    /// Deny (sshd may restart the stack for another password attempt).
    Denied,
}

/// One configured stack line.
pub(crate) struct StackEntry {
    /// Control flag.
    pub flag: ControlFlag,
    /// The module.
    pub module: std::sync::Arc<dyn PamModule>,
}

/// An ordered PAM stack.
#[derive(Default)]
pub struct PamStack {
    entries: Vec<StackEntry>,
    /// Optional telemetry: verdict counters and a per-login span. `None`
    /// keeps bare test stacks free of any registry.
    metrics: Option<Arc<MetricsRegistry>>,
    /// `hpcmfa_pam_stack_runs_total` by verdict, each series looked up in
    /// `metrics` the first time it is counted (so an uncounted verdict
    /// stays unrendered) and held from then on: the lookup costs several
    /// times the increment.
    runs: [OnceLock<Arc<Counter>>; 2],
    /// Consecutive denied verdicts since the last grant; at
    /// [`FAILURE_BURST_THRESHOLD`] an `auth_failure_burst` security event
    /// is emitted (once per streak — the counter keeps climbing but only
    /// the crossing emits).
    denied_streak: AtomicU32,
}

/// A trace of one stack evaluation, for the Figure 1 walkthrough example
/// and for debugging stack configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackTraceLine {
    /// Module name.
    pub module: &'static str,
    /// Control flag (downgraded to a label).
    pub flag: String,
    /// The module's result.
    pub result: PamResult,
    /// Whether this line was skipped by an earlier `SuccessSkip`.
    pub skipped: bool,
}

impl std::fmt::Debug for PamStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(
                self.entries
                    .iter()
                    .map(|e| format!("{} {}", flag_label(e.flag), e.module.name())),
            )
            .finish()
    }
}

impl PamStack {
    /// Empty stack (denies by default when run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a module line.
    pub fn push(&mut self, flag: ControlFlag, module: std::sync::Arc<dyn PamModule>) -> &mut Self {
        self.entries.push(StackEntry { flag, module });
        self
    }

    /// Attach a telemetry registry: every subsequent evaluation counts its
    /// verdict under `hpcmfa_pam_stack_runs_total{verdict=…}` and records a
    /// `pam` span for the context's trace id.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) -> &mut Self {
        self.metrics = Some(metrics);
        self.runs = Default::default();
        self
    }

    /// Evaluate the stack.
    pub fn authenticate(&self, ctx: &mut PamContext<'_>) -> PamVerdict {
        self.run(ctx, None)
    }

    /// Evaluate the stack, appending one line per module to `trace` when
    /// given (the path listings of Figures 1 and 2).
    pub fn run(
        &self,
        ctx: &mut PamContext<'_>,
        trace: Option<&mut Vec<StackTraceLine>>,
    ) -> PamVerdict {
        let Some(metrics) = self.metrics.clone() else {
            return self.eval(ctx, trace);
        };
        // Open the stack's timed span and reparent the context under it
        // for the duration of the evaluation, so every module span (the
        // RADIUS token module in particular) hangs off the pam hop.
        let mut guard = metrics.tracer().start(&ctx.span_ctx(), "pam", "stack");
        let outer_parent = ctx.parent_span.replace(guard.id());
        let pam_span = guard.id();
        let verdict = self.eval(ctx, trace);
        ctx.parent_span = outer_parent;
        let label = match verdict {
            PamVerdict::Granted => "granted",
            PamVerdict::Denied => "denied",
        };
        guard.set_detail(label);
        if verdict == PamVerdict::Denied {
            guard.set_status(SpanStatus::Error);
        }
        guard.finish();
        self.runs[verdict as usize]
            .get_or_init(|| metrics.counter("hpcmfa_pam_stack_runs_total", &[("verdict", label)]))
            .inc();
        match verdict {
            PamVerdict::Granted => {
                self.denied_streak.store(0, Ordering::Relaxed);
            }
            PamVerdict::Denied => {
                let streak = self.denied_streak.fetch_add(1, Ordering::Relaxed) + 1;
                if streak == FAILURE_BURST_THRESHOLD {
                    metrics.emit_event(
                        SecurityEventKind::AuthFailureBurst,
                        Some(ctx.trace_id),
                        Some(pam_span),
                        ctx.now(),
                        format!("user={} {streak} consecutive denials", ctx.username),
                    );
                }
            }
        }
        verdict
    }

    fn eval(
        &self,
        ctx: &mut PamContext<'_>,
        mut trace: Option<&mut Vec<StackTraceLine>>,
    ) -> PamVerdict {
        if self.entries.is_empty() {
            return PamVerdict::Denied;
        }
        let mut required_failed = false;
        let mut saw_success = false;
        let mut skip = 0usize;

        for entry in &self.entries {
            if skip > 0 {
                skip -= 1;
                if let Some(t) = trace.as_deref_mut() {
                    t.push(StackTraceLine {
                        module: entry.module.name(),
                        flag: flag_label(entry.flag),
                        result: PamResult::Ignore,
                        skipped: true,
                    });
                }
                continue;
            }
            let result = entry.module.authenticate(ctx);
            if let Some(t) = trace.as_deref_mut() {
                t.push(StackTraceLine {
                    module: entry.module.name(),
                    flag: flag_label(entry.flag),
                    result,
                    skipped: false,
                });
            }
            match (entry.flag, result) {
                (_, PamResult::Abort) => return PamVerdict::Denied,

                (ControlFlag::Required, PamResult::Success) => saw_success = true,
                (ControlFlag::Required, PamResult::AuthErr) => required_failed = true,
                (ControlFlag::Required, PamResult::Ignore) => {}

                (ControlFlag::Requisite, PamResult::Success) => saw_success = true,
                (ControlFlag::Requisite, PamResult::AuthErr) => return PamVerdict::Denied,
                (ControlFlag::Requisite, PamResult::Ignore) => {}

                (ControlFlag::Sufficient, PamResult::Success) => {
                    if !required_failed {
                        return PamVerdict::Granted;
                    }
                }
                (ControlFlag::Sufficient, _) => {}

                (ControlFlag::Optional, PamResult::Success) => {
                    if self.entries.len() == 1 {
                        saw_success = true;
                    }
                }
                (ControlFlag::Optional, _) => {}

                (ControlFlag::SuccessSkip(n), PamResult::Success) => skip = n,
                (ControlFlag::SuccessSkip(_), _) => {}
            }
        }

        if required_failed || !saw_success {
            PamVerdict::Denied
        } else {
            PamVerdict::Granted
        }
    }
}

fn flag_label(flag: ControlFlag) -> String {
    match flag {
        ControlFlag::Required => "required".into(),
        ControlFlag::Requisite => "requisite".into(),
        ControlFlag::Sufficient => "sufficient".into(),
        ControlFlag::Optional => "optional".into(),
        ControlFlag::SuccessSkip(n) => format!("[success={n} default=ignore]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ScriptedConversation;
    use hpcmfa_otp::clock::SimClock;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    /// A module returning a fixed result.
    struct Fixed(&'static str, PamResult);
    impl PamModule for Fixed {
        fn name(&self) -> &'static str {
            self.0
        }
        fn authenticate(&self, _ctx: &mut PamContext<'_>) -> PamResult {
            self.1
        }
    }

    fn fixed(name: &'static str, r: PamResult) -> Arc<dyn PamModule> {
        Arc::new(Fixed(name, r))
    }

    fn run(stack: &PamStack) -> PamVerdict {
        let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new(
            "u",
            Ipv4Addr::LOCALHOST,
            Arc::new(SimClock::at(0)),
            &mut conv,
        );
        stack.authenticate(&mut ctx)
    }

    #[test]
    fn empty_stack_denies() {
        assert_eq!(run(&PamStack::new()), PamVerdict::Denied);
    }

    #[test]
    fn single_required_success_grants() {
        let mut s = PamStack::new();
        s.push(ControlFlag::Required, fixed("a", PamResult::Success));
        assert_eq!(run(&s), PamVerdict::Granted);
    }

    #[test]
    fn required_failure_denies_but_continues() {
        // The second module must still run (we observe via a counter).
        use std::sync::atomic::{AtomicU32, Ordering};
        struct Counting(Arc<AtomicU32>);
        impl PamModule for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn authenticate(&self, _: &mut PamContext<'_>) -> PamResult {
                self.0.fetch_add(1, Ordering::SeqCst);
                PamResult::Success
            }
        }
        let count = Arc::new(AtomicU32::new(0));
        let mut s = PamStack::new();
        s.push(ControlFlag::Required, fixed("fail", PamResult::AuthErr));
        s.push(
            ControlFlag::Required,
            Arc::new(Counting(Arc::clone(&count))),
        );
        assert_eq!(run(&s), PamVerdict::Denied);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn requisite_failure_stops_immediately() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct Counting(Arc<AtomicU32>);
        impl PamModule for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn authenticate(&self, _: &mut PamContext<'_>) -> PamResult {
                self.0.fetch_add(1, Ordering::SeqCst);
                PamResult::Success
            }
        }
        let count = Arc::new(AtomicU32::new(0));
        let mut s = PamStack::new();
        s.push(ControlFlag::Requisite, fixed("fail", PamResult::AuthErr));
        s.push(
            ControlFlag::Required,
            Arc::new(Counting(Arc::clone(&count))),
        );
        assert_eq!(run(&s), PamVerdict::Denied);
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn sufficient_success_short_circuits() {
        let mut s = PamStack::new();
        s.push(ControlFlag::Sufficient, fixed("exempt", PamResult::Success));
        s.push(ControlFlag::Required, fixed("token", PamResult::AuthErr));
        assert_eq!(run(&s), PamVerdict::Granted);
    }

    #[test]
    fn sufficient_failure_is_ignored() {
        let mut s = PamStack::new();
        s.push(ControlFlag::Sufficient, fixed("exempt", PamResult::AuthErr));
        s.push(ControlFlag::Required, fixed("token", PamResult::Success));
        assert_eq!(run(&s), PamVerdict::Granted);
    }

    #[test]
    fn sufficient_after_required_failure_cannot_grant() {
        let mut s = PamStack::new();
        s.push(ControlFlag::Required, fixed("pw", PamResult::AuthErr));
        s.push(ControlFlag::Sufficient, fixed("exempt", PamResult::Success));
        assert_eq!(run(&s), PamVerdict::Denied);
    }

    #[test]
    fn success_skip_jumps_over_next_modules() {
        // pubkey success skips the password module.
        let mut s = PamStack::new();
        s.push(
            ControlFlag::SuccessSkip(1),
            fixed("pubkey", PamResult::Success),
        );
        s.push(
            ControlFlag::Requisite,
            fixed("password", PamResult::AuthErr),
        );
        s.push(ControlFlag::Required, fixed("token", PamResult::Success));
        assert_eq!(run(&s), PamVerdict::Granted);
    }

    #[test]
    fn success_skip_noop_on_failure() {
        // pubkey not used: the password module must run (here it passes).
        let mut s = PamStack::new();
        s.push(
            ControlFlag::SuccessSkip(1),
            fixed("pubkey", PamResult::AuthErr),
        );
        s.push(
            ControlFlag::Requisite,
            fixed("password", PamResult::Success),
        );
        s.push(ControlFlag::Required, fixed("token", PamResult::Success));
        assert_eq!(run(&s), PamVerdict::Granted);
    }

    #[test]
    fn skip_only_success_does_not_grant_alone() {
        // A lone skip-success with nothing granting must deny: nothing
        // asserted authentication.
        let mut s = PamStack::new();
        s.push(
            ControlFlag::SuccessSkip(1),
            fixed("pubkey", PamResult::Success),
        );
        assert_eq!(run(&s), PamVerdict::Denied);
    }

    #[test]
    fn ignore_results_do_not_grant() {
        let mut s = PamStack::new();
        s.push(ControlFlag::Required, fixed("a", PamResult::Ignore));
        assert_eq!(run(&s), PamVerdict::Denied);
    }

    #[test]
    fn abort_denies_immediately() {
        let mut s = PamStack::new();
        s.push(ControlFlag::Required, fixed("a", PamResult::Success));
        s.push(ControlFlag::Required, fixed("b", PamResult::Abort));
        s.push(ControlFlag::Required, fixed("c", PamResult::Success));
        assert_eq!(run(&s), PamVerdict::Denied);
    }

    #[test]
    fn optional_alone_counts() {
        let mut s = PamStack::new();
        s.push(ControlFlag::Optional, fixed("only", PamResult::Success));
        assert_eq!(run(&s), PamVerdict::Granted);
    }

    #[test]
    fn optional_alongside_others_ignored() {
        let mut s = PamStack::new();
        s.push(ControlFlag::Optional, fixed("opt", PamResult::Success));
        s.push(ControlFlag::Required, fixed("req", PamResult::AuthErr));
        assert_eq!(run(&s), PamVerdict::Denied);
    }

    #[test]
    fn metrics_count_verdicts_and_record_a_pam_span() {
        let metrics = Arc::new(MetricsRegistry::new());
        let mut s = PamStack::new();
        s.push(ControlFlag::Required, fixed("a", PamResult::Success));
        s.set_metrics(Arc::clone(&metrics));
        let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new(
            "u",
            Ipv4Addr::LOCALHOST,
            Arc::new(SimClock::at(0)),
            &mut conv,
        );
        assert_eq!(s.authenticate(&mut ctx), PamVerdict::Granted);
        let id = ctx.trace_id;
        assert_eq!(
            metrics
                .snapshot()
                .counter("hpcmfa_pam_stack_runs_total{verdict=\"granted\"}"),
            1
        );
        let spans = metrics.tracer().spans_for(id);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].component, "pam");
        assert_eq!(spans[0].detail, "granted");
    }

    #[test]
    fn denial_streak_emits_one_burst_event() {
        let metrics = Arc::new(MetricsRegistry::new());
        let mut s = PamStack::new();
        s.push(ControlFlag::Required, fixed("a", PamResult::AuthErr));
        s.set_metrics(Arc::clone(&metrics));
        for _ in 0..FAILURE_BURST_THRESHOLD + 2 {
            let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
            let mut ctx = PamContext::new(
                "u",
                Ipv4Addr::LOCALHOST,
                Arc::new(SimClock::at(7)),
                &mut conv,
            );
            assert_eq!(s.authenticate(&mut ctx), PamVerdict::Denied);
        }
        // Only the threshold crossing emits, not every denial after it.
        let events = metrics
            .security_events()
            .of_kind(SecurityEventKind::AuthFailureBurst);
        assert_eq!(events.len(), 1);
        assert!(events[0].trace.is_some());
        assert_eq!(events[0].at, 7);
        // A grant resets the streak, so a fresh run of denials re-arms it.
        let mut grant = PamStack::new();
        grant.push(ControlFlag::Required, fixed("ok", PamResult::Success));
        grant.set_metrics(Arc::clone(&metrics));
        let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new(
            "u",
            Ipv4Addr::LOCALHOST,
            Arc::new(SimClock::at(8)),
            &mut conv,
        );
        assert_eq!(grant.authenticate(&mut ctx), PamVerdict::Granted);
    }

    #[test]
    fn trace_records_skips() {
        let mut s = PamStack::new();
        s.push(
            ControlFlag::SuccessSkip(1),
            fixed("pubkey", PamResult::Success),
        );
        s.push(
            ControlFlag::Requisite,
            fixed("password", PamResult::AuthErr),
        );
        s.push(ControlFlag::Required, fixed("token", PamResult::Success));
        let mut conv = ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new(
            "u",
            Ipv4Addr::LOCALHOST,
            Arc::new(SimClock::at(0)),
            &mut conv,
        );
        let mut trace = Vec::new();
        let v = s.run(&mut ctx, Some(&mut trace));
        assert_eq!(v, PamVerdict::Granted);
        assert_eq!(trace.len(), 3);
        assert!(!trace[0].skipped);
        assert!(trace[1].skipped);
        assert_eq!(trace[1].module, "password");
        assert_eq!(trace[2].result, PamResult::Success);
        assert_eq!(trace[0].flag, "[success=1 default=ignore]");
    }
}
