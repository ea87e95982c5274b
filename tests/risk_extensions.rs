//! Integration of the §6 growth features: geolocation and dynamic risk
//! assessment wired into the full Figure 1 stack — a risky login
//! loses its exemption bypass, an impossible-travel login is denied.

use securing_hpc::core::center::{Center, CenterConfig};
use securing_hpc::core::Clock as _;
use securing_hpc::pam::context::PamContext;
use securing_hpc::pam::conv::ScriptedConversation;
use securing_hpc::pam::modules::exemption::ExemptionModule;
use securing_hpc::pam::modules::password::UnixPasswordModule;
use securing_hpc::pam::modules::token::{EnforcementMode, TokenModule};
use securing_hpc::pam::stack::{ControlFlag, PamStack, PamVerdict};
use securing_hpc::risk::engine::{RiskEngine, RiskGateModule, RiskWeights};
use securing_hpc::risk::geo::GeoDb;
use std::sync::Arc;

const DAY: u64 = 86_400;

fn geodb() -> Arc<GeoDb> {
    Arc::new(
        GeoDb::parse(
            "129.114.0.0/16 US\n\
             70.0.0.0/8     US\n\
             141.30.0.0/16  DE\n\
             1.2.0.0/16     CN\n",
        )
        .unwrap(),
    )
}

/// Build the Figure 1 stack with the risk gate in front and return
/// everything needed to run logins by hand.
struct RiskRig {
    center: Arc<Center>,
    stack: PamStack,
    engine: Arc<RiskEngine>,
}

fn rig() -> RiskRig {
    let center = Center::new(CenterConfig::default());
    center.create_user("gateway1", "g@x.edu", "gw-pw");
    center.create_user("alice", "a@x.edu", "alice-pw");
    center
        .add_exemption_rule("+ : gateway1 : ALL : ALL")
        .unwrap();
    let node = &center.nodes[0];

    let engine = RiskEngine::new(geodb(), RiskWeights::default());
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
            91,
        ),
    );
    RiskRig {
        center: Arc::clone(&center),
        stack,
        engine,
    }
}

fn login(rig: &RiskRig, user: &str, ip: &str, answers: Vec<String>) -> PamVerdict {
    let mut conv = ScriptedConversation::with_answers(answers);
    let mut ctx = PamContext::new(
        user,
        ip.parse().unwrap(),
        Arc::new(rig.center.clock.clone()),
        &mut conv,
    );
    let verdict = rig.stack.authenticate(&mut ctx);
    rig.engine
        .record_outcome(user, rig.center.clock.now(), verdict == PamVerdict::Granted);
    verdict
}

#[test]
fn exempt_gateway_loses_bypass_on_risky_login() {
    let r = rig();
    // The gateway's habitual location: exemption bypasses the token.
    assert_eq!(
        login(&r, "gateway1", "70.1.2.3", vec!["gw-pw".into()]),
        PamVerdict::Granted
    );
    r.center.clock.advance(30 * DAY);
    // Same credentials from a never-seen country: risk gate demands
    // step-up, so the exemption refuses to bypass — the token module runs
    // and this "gateway" has no device: denied.
    assert_eq!(
        login(&r, "gateway1", "141.30.9.9", vec!["gw-pw".into()]),
        PamVerdict::Denied
    );
    // Back home, the standing exemption works again.
    r.center.clock.advance(30 * DAY);
    assert_eq!(
        login(&r, "gateway1", "70.1.2.3", vec!["gw-pw".into()]),
        PamVerdict::Granted
    );
}

#[test]
fn impossible_travel_is_denied_before_password() {
    let r = rig();
    let device = r.center.pair_soft("alice");
    let code = |rig: &RiskRig| device.displayed_code(rig.center.clock.now());

    assert_eq!(
        login(&r, "alice", "70.1.2.3", vec!["alice-pw".into(), code(&r)]),
        PamVerdict::Granted
    );
    // Germany a month later: new country = step-up, but alice has a
    // device, so MFA satisfies it.
    r.center.clock.advance(30 * DAY);
    assert_eq!(
        login(&r, "alice", "141.30.9.9", vec!["alice-pw".into(), code(&r)]),
        PamVerdict::Granted
    );
    // "China" twenty minutes later: impossible travel — denied outright,
    // even with the correct password and token code available.
    r.center.clock.advance(1200);
    assert_eq!(
        login(&r, "alice", "1.2.3.4", vec!["alice-pw".into(), code(&r)]),
        PamVerdict::Denied
    );
}
