//! Figure 1 & Figure 2 walkthrough: assemble the production PAM stack from
//! a `pam.d`-style configuration file and trace every decision path.
//!
//! ```text
//! cargo run --example pam_stack_trace
//! ```

use securing_hpc::core::center::{Center, CenterConfig};
use securing_hpc::core::Clock as _;
use securing_hpc::pam::config::{build_stack, ModuleRegistry};
use securing_hpc::pam::context::PamContext;
use securing_hpc::pam::conv::ScriptedConversation;
use securing_hpc::pam::modules::exemption::ExemptionModule;
use securing_hpc::pam::modules::password::UnixPasswordModule;
use securing_hpc::pam::modules::pubkey::PubkeyCheckModule;
use securing_hpc::pam::modules::token::{EnforcementMode, TokenModule};
use securing_hpc::pam::stack::PamVerdict;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn main() {
    // Build a center just to borrow its wired components (directory,
    // RADIUS fleet, OTP server, exemption lists, auth log).
    let center = Center::new(CenterConfig::default());
    center.create_user("alice", "a@x.edu", "alice-pw");
    center.create_user("gateway1", "g@x.edu", "gw-pw");
    center
        .add_exemption_rule("+ : gateway1 : ALL : ALL")
        .unwrap();
    let node = &center.nodes[0];

    // The sysadmin view: the stack as a configuration file (§3.4, Fig. 1).
    let config_text = "\
# /etc/pam.d/sshd — MFA stack (Figure 1)
auth [success=1 default=ignore] pam_tacc_pubkey.so
auth requisite                  pam_unix.so
auth sufficient                 pam_tacc_mfa_exempt.so
auth required                   pam_tacc_mfa_token.so mode=full
";
    println!("{config_text}");

    let mut registry = ModuleRegistry::new();
    registry.install_instance(
        "pam_tacc_pubkey",
        PubkeyCheckModule::new(Arc::new(node.daemon.authlog().clone())),
    );
    registry.install_instance(
        "pam_unix",
        UnixPasswordModule::new(center.directory.clone(), "ou=people,dc=tacc"),
    );
    registry.install_instance(
        "pam_tacc_mfa_exempt",
        ExemptionModule::new(node.exemptions.clone()),
    );
    let radius = Arc::clone(&node.radius_client);
    let directory = center.directory.clone();
    registry.install("pam_tacc_mfa_token", move |args| {
        let mode = EnforcementMode::parse(
            args.get("mode").map(String::as_str).unwrap_or("full"),
            args.get("deadline").map(String::as_str),
            args.get("url").map(String::as_str),
        );
        Ok(TokenModule::new(
            mode,
            Arc::clone(&radius),
            directory.clone(),
            "ou=people,dc=tacc",
            7,
        ) as _)
    });
    let stack = build_stack(config_text, &registry).expect("valid pam.d config");
    println!("stack assembled: {stack:?}\n");

    let trace_path = |title: &str, user: &str, ip: Ipv4Addr, answers: Vec<String>| {
        let mut conv = ScriptedConversation::with_answers(answers);
        let mut ctx = PamContext::new(user, ip, Arc::new(center.clock.clone()), &mut conv);
        let mut trace = Vec::new();
        let verdict = stack.run(&mut ctx, Some(&mut trace));
        println!("=== {title} ===");
        for line in &trace {
            println!(
                "  {:<22} {:<28} -> {:?}{}",
                line.module,
                line.flag,
                line.result,
                if line.skipped { "  (skipped)" } else { "" }
            );
        }
        println!("  verdict: {verdict:?}\n");
        verdict
    };

    // Path A: password user, paired soft token, correct code (Figure 2's
    // "full" mode walk).
    let device = center.pair_soft("alice");
    let code = device.displayed_code(center.clock.now());
    let v = trace_path(
        "password + correct token code",
        "alice",
        Ipv4Addr::new(70, 1, 1, 1),
        vec!["alice-pw".into(), code],
    );
    assert_eq!(v, PamVerdict::Granted);

    // Path B: wrong token code.
    center.clock.advance(30);
    let v = trace_path(
        "password + wrong token code",
        "alice",
        Ipv4Addr::new(70, 1, 1, 1),
        vec!["alice-pw".into(), "000000".into()],
    );
    assert_eq!(v, PamVerdict::Denied);

    // Path C: exempt gateway via password (exemption short-circuits the
    // token module: "no further action by the user is required").
    let v = trace_path(
        "exempt account, no token prompt",
        "gateway1",
        Ipv4Addr::new(70, 1, 1, 1),
        vec!["gw-pw".into()],
    );
    assert_eq!(v, PamVerdict::Granted);

    // Path D: wrong password never reaches the second factor ("this
    // effectively filters most illegitimate SSH traffic before the second
    // factor is ever reached", §3.1).
    let v = trace_path(
        "wrong password (requisite stops the stack)",
        "alice",
        Ipv4Addr::new(70, 1, 1, 1),
        vec!["let-me-in".into()],
    );
    assert_eq!(v, PamVerdict::Denied);

    // Path E: pubkey first factor skips the password prompt entirely.
    let key = center.provision_key("alice");
    // Log the sshd-side pubkey verification, as the daemon would.
    node.daemon
        .authlog()
        .record(securing_hpc::ssh::authlog::LogEntry {
            at: center.clock.now(),
            user: "alice".into(),
            rhost: Ipv4Addr::new(70, 1, 1, 1),
            method: securing_hpc::ssh::authlog::AuthMethod::Publickey,
            success: true,
            tty: true,
        });
    let _ = key;
    center.clock.advance(30);
    let code = device.displayed_code(center.clock.now());
    let v = trace_path(
        "public key first factor + token (password skipped)",
        "alice",
        Ipv4Addr::new(70, 1, 1, 1),
        vec![code],
    );
    assert_eq!(v, PamVerdict::Granted);
}
