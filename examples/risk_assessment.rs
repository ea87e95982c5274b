//! The §6 growth features in action: "ready to be grown to incorporate new
//! features including geolocation services, dynamic risk assessment, or
//! biometric security."
//!
//! A risk gate that scores each login's geography (a new country,
//! impossible travel) from a GeoIP database slots into the Figure 1 stack
//! without modifying any existing component: risky logins lose their MFA
//! exemption; impossible travel is refused outright.
//!
//! ```text
//! cargo run --example risk_assessment
//! ```

use securing_hpc::core::center::{Center, CenterConfig};
use securing_hpc::pam::context::PamContext;
use securing_hpc::pam::conv::ScriptedConversation;
use securing_hpc::pam::modules::exemption::ExemptionModule;
use securing_hpc::pam::modules::password::UnixPasswordModule;
use securing_hpc::pam::modules::token::{EnforcementMode, TokenModule};
use securing_hpc::pam::stack::{ControlFlag, PamStack};
use securing_hpc::risk::engine::{RiskEngine, RiskGateModule, RiskWeights};
use securing_hpc::risk::geo::GeoDb;
use std::sync::Arc;

const DAY: u64 = 86_400;

fn main() {
    let center = Center::new(CenterConfig::default());
    center.create_user("gateway1", "ops@gateway.org", "gw-pw");
    center
        .add_exemption_rule("+ : gateway1 : ALL : ALL")
        .unwrap();
    let node = &center.nodes[0];

    // A small GeoIP database (production would load a full one).
    let geodb = Arc::new(
        GeoDb::parse(
            "129.114.0.0/16 US  # the center itself\n\
             70.0.0.0/8     US\n\
             141.30.0.0/16  DE\n\
             1.2.0.0/16     CN\n",
        )
        .unwrap(),
    );
    let engine = RiskEngine::new(Arc::clone(&geodb), RiskWeights::default());

    // Figure 1 stack + risk gate at the top.
    let mut stack = PamStack::new();
    stack.push(
        ControlFlag::Requisite,
        RiskGateModule::new(Arc::clone(&engine)),
    );
    stack.push(
        ControlFlag::Requisite,
        UnixPasswordModule::new(center.directory.clone(), "ou=people,dc=tacc"),
    );
    stack.push(
        ControlFlag::Sufficient,
        ExemptionModule::new(node.exemptions.clone()),
    );
    stack.push(
        ControlFlag::Required,
        TokenModule::new(
            EnforcementMode::Full,
            Arc::clone(&node.radius_client),
            center.directory.clone(),
            "ou=people,dc=tacc",
            7,
        ),
    );

    let login = |label: &str, ip: &str, answers: Vec<&str>| {
        let mut conv = ScriptedConversation::with_answers(answers.iter().map(|s| s.to_string()));
        let transcript = conv.transcript();
        let mut ctx = PamContext::new(
            "gateway1",
            ip.parse().unwrap(),
            Arc::new(center.clock.clone()),
            &mut conv,
        );
        let verdict = stack.authenticate(&mut ctx);
        let (score, decision) = { (ctx.risk_step_up, verdict) };
        println!("{label:<44} from {ip:<12} -> {decision:?} (step-up demanded: {score})");
        for p in transcript.lock().iter() {
            println!("    prompt: {}", p.prompt.text());
        }
        verdict
    };

    println!("exempt gateway account under dynamic risk assessment:\n");
    login(
        "habitual location, exemption bypasses MFA",
        "70.1.2.3",
        vec!["gw-pw"],
    );

    center.clock.advance(45 * DAY);
    login(
        "new country: step-up, exemption refused",
        "141.30.9.9",
        vec!["gw-pw"],
    );

    center.clock.advance(900);
    login(
        "15 min later from another continent: denied",
        "1.2.3.4",
        vec!["gw-pw"],
    );

    center.clock.advance(45 * DAY);
    login(
        "back home: standing exemption works again",
        "70.1.2.3",
        vec!["gw-pw"],
    );
}
