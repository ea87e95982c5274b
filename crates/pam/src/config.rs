//! `pam.d`-style stack configuration.
//!
//! "New authentication methods may be added by installing new PAM modules
//! and updating authentication policies controlled via configuration
//! files" (§3.4). This module parses that file format and assembles a
//! [`PamStack`] from a registry of module factories, so the Figure 1 stack
//! is built exactly the way a sysadmin would write it:
//!
//! ```text
//! auth [success=1 default=ignore] pam_tacc_pubkey.so
//! auth requisite                  pam_unix.so
//! auth sufficient                 pam_tacc_mfa_exempt.so
//! auth required                   pam_tacc_mfa_token.so mode=countdown deadline=2016-10-04 url=https://portal/mfa
//! ```

use crate::stack::{ControlFlag, PamModule, PamStack};
use std::collections::HashMap;
use std::sync::Arc;

/// Arguments after the module path, parsed as `key=value` (bare words get
/// an empty value).
pub(crate) type ModuleArgs = HashMap<String, String>;

/// Builds a module instance from its config-line arguments.
pub(crate) type ModuleFactory =
    Box<dyn Fn(&ModuleArgs) -> Result<Arc<dyn PamModule>, String> + Send + Sync>;

/// The set of installed modules.
#[derive(Default)]
pub struct ModuleRegistry {
    factories: HashMap<String, ModuleFactory>,
}

impl ModuleRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a module under `name` (with or without `.so`).
    pub fn install(
        &mut self,
        name: &str,
        factory: impl Fn(&ModuleArgs) -> Result<Arc<dyn PamModule>, String> + Send + Sync + 'static,
    ) {
        self.factories
            .insert(name.trim_end_matches(".so").to_string(), Box::new(factory));
    }

    /// Install a pre-built module that takes no arguments.
    pub fn install_instance(&mut self, name: &str, module: Arc<dyn PamModule>) {
        self.install(name, move |_args| Ok(Arc::clone(&module)));
    }

    fn get(&self, name: &str) -> Option<&ModuleFactory> {
        self.factories.get(name.trim_end_matches(".so"))
    }
}

/// Configuration errors, with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number.
    pub line: usize,
    /// Reason.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pam config line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ConfigError {}

fn parse_control(
    tokens: &mut std::iter::Peekable<std::str::SplitWhitespace<'_>>,
) -> Result<ControlFlag, String> {
    let first = tokens.next().ok_or("missing control flag")?;
    match first {
        "required" => Ok(ControlFlag::Required),
        "requisite" => Ok(ControlFlag::Requisite),
        "sufficient" => Ok(ControlFlag::Sufficient),
        "optional" => Ok(ControlFlag::Optional),
        _ if first.starts_with('[') => {
            // Collect tokens until the closing bracket.
            let mut parts = vec![first.trim_start_matches('[').to_string()];
            if !first.ends_with(']') {
                loop {
                    let t = tokens.next().ok_or("unterminated '[' control")?;
                    if let Some(stripped) = t.strip_suffix(']') {
                        parts.push(stripped.to_string());
                        break;
                    }
                    parts.push(t.to_string());
                }
            } else {
                parts[0] = parts[0].trim_end_matches(']').to_string();
            }
            let mut success_skip = None;
            let mut default_ignore = false;
            for p in parts.iter().filter(|p| !p.is_empty()) {
                match p.split_once('=') {
                    Some(("success", n)) => {
                        success_skip = Some(n.parse::<usize>().map_err(|_| "bad success=N value")?)
                    }
                    Some(("default", "ignore")) => default_ignore = true,
                    _ => return Err(format!("unsupported control token {p:?}")),
                }
            }
            match (success_skip, default_ignore) {
                (Some(n), true) => Ok(ControlFlag::SuccessSkip(n)),
                _ => Err("bracket control must be [success=N default=ignore]".into()),
            }
        }
        other => Err(format!("unknown control flag {other:?}")),
    }
}

/// Parse a configuration and build the stack against `registry`.
pub fn build_stack(text: &str, registry: &ModuleRegistry) -> Result<PamStack, ConfigError> {
    let mut stack = PamStack::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace().peekable();
        let facility = tokens.next().unwrap();
        if facility != "auth" {
            return Err(ConfigError {
                line: line_no,
                reason: format!("only the 'auth' facility is supported, found {facility:?}"),
            });
        }
        let flag = parse_control(&mut tokens).map_err(|reason| ConfigError {
            line: line_no,
            reason,
        })?;
        let module_name = tokens.next().ok_or(ConfigError {
            line: line_no,
            reason: "missing module name".into(),
        })?;
        let mut args: ModuleArgs = HashMap::new();
        for t in tokens {
            match t.split_once('=') {
                Some((k, v)) => args.insert(k.to_string(), v.to_string()),
                None => args.insert(t.to_string(), String::new()),
            };
        }
        let factory = registry.get(module_name).ok_or_else(|| ConfigError {
            line: line_no,
            reason: format!("module {module_name:?} not installed"),
        })?;
        let module = factory(&args).map_err(|reason| ConfigError {
            line: line_no,
            reason,
        })?;
        stack.push(flag, module);
    }
    Ok(stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PamContext;
    use crate::stack::{PamResult, PamVerdict};

    struct Fixed(&'static str, PamResult);
    impl PamModule for Fixed {
        fn name(&self) -> &'static str {
            self.0
        }
        fn authenticate(&self, _: &mut PamContext<'_>) -> PamResult {
            self.1
        }
    }

    fn registry() -> ModuleRegistry {
        let mut reg = ModuleRegistry::new();
        reg.install_instance("pam_pass", Arc::new(Fixed("pam_pass", PamResult::Success)));
        reg.install_instance("pam_fail", Arc::new(Fixed("pam_fail", PamResult::AuthErr)));
        reg.install("pam_mode", |args| {
            let r = match args.get("mode").map(String::as_str) {
                Some("ok") => PamResult::Success,
                Some("err") => PamResult::AuthErr,
                Some(other) => return Err(format!("bad mode {other:?}")),
                None => return Err("mode required".into()),
            };
            Ok(Arc::new(Fixed("pam_mode", r)) as Arc<dyn PamModule>)
        });
        reg
    }

    fn run(stack: &PamStack) -> PamVerdict {
        let mut conv = crate::conv::ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new(
            "u",
            std::net::Ipv4Addr::LOCALHOST,
            Arc::new(hpcmfa_otp::clock::SimClock::at(0)),
            &mut conv,
        );
        stack.authenticate(&mut ctx)
    }

    #[test]
    fn basic_stack_builds_and_runs() {
        let stack = build_stack(
            "# comment\n\
             auth required pam_pass.so\n",
            &registry(),
        )
        .unwrap();
        let mut conv = crate::conv::ScriptedConversation::with_answers(Vec::<String>::new());
        let mut ctx = PamContext::new(
            "u",
            std::net::Ipv4Addr::LOCALHOST,
            Arc::new(hpcmfa_otp::clock::SimClock::at(0)),
            &mut conv,
        );
        let mut trace = Vec::new();
        assert_eq!(stack.run(&mut ctx, Some(&mut trace)), PamVerdict::Granted);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn bracket_control_parses() {
        let stack = build_stack(
            "auth [success=1 default=ignore] pam_pass.so\n\
             auth requisite pam_fail.so\n\
             auth required pam_pass.so\n",
            &registry(),
        )
        .unwrap();
        // pam_pass skips pam_fail; final pam_pass grants.
        assert_eq!(run(&stack), PamVerdict::Granted);
    }

    #[test]
    fn module_args_reach_factory() {
        let stack = build_stack("auth required pam_mode.so mode=ok\n", &registry()).unwrap();
        assert_eq!(run(&stack), PamVerdict::Granted);
        let stack = build_stack("auth required pam_mode.so mode=err\n", &registry()).unwrap();
        assert_eq!(run(&stack), PamVerdict::Denied);
    }

    #[test]
    fn factory_errors_surface_with_line() {
        let err = build_stack(
            "auth required pam_pass.so\n\
             auth required pam_mode.so mode=weird\n",
            &registry(),
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("bad mode"));
    }

    #[test]
    fn unknown_module_rejected() {
        let err = build_stack("auth required pam_nope.so\n", &registry()).unwrap_err();
        assert!(err.reason.contains("not installed"));
    }

    #[test]
    fn bad_facility_rejected() {
        let err = build_stack("session required pam_pass.so\n", &registry()).unwrap_err();
        assert!(err.reason.contains("auth"));
    }

    #[test]
    fn bad_controls_rejected() {
        assert!(build_stack("auth mandatory pam_pass.so\n", &registry()).is_err());
        assert!(build_stack("auth [success=x default=ignore] pam_pass.so\n", &registry()).is_err());
        assert!(build_stack("auth [success=1] pam_pass.so\n", &registry()).is_err());
        assert!(build_stack("auth [success=1 default=die] pam_pass.so\n", &registry()).is_err());
        assert!(build_stack("auth required\n", &registry()).is_err());
    }
}
