//! Cross-crate integration: the full §3 architecture exercised through its
//! public surfaces — portal pairing, SSH entry, enforcement modes,
//! exemptions, lockout, and unpairing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use securing_hpc::core::center::{Center, CenterConfig};
use securing_hpc::core::Clock as _;
use securing_hpc::directory::identity::PairingMethod;
use securing_hpc::otp::device::HardTokenBatch;
use securing_hpc::pam::modules::token::EnforcementMode;
use securing_hpc::ssh::client::{ClientProfile, TokenSource};
use std::net::Ipv4Addr;
use std::sync::Arc;

const OUTSIDE: Ipv4Addr = Ipv4Addr::new(70, 112, 9, 9);

fn full_center() -> Arc<Center> {
    let c = Center::new(CenterConfig::default());
    c.set_enforcement(EnforcementMode::Full);
    c
}

#[test]
fn every_token_type_can_log_in() {
    let c = full_center();
    let mut rng = StdRng::seed_from_u64(1);

    // Soft.
    c.create_user("soft_user", "s@x.edu", "soft-pw");
    let soft = c.pair_soft("soft_user");
    let p = ClientProfile::interactive_user("soft_user", OUTSIDE, "soft-pw").with_token(
        TokenSource::device(move |now| Some(soft.displayed_code(now))),
    );
    assert!(c.ssh(0, &p).granted);

    // Hard.
    c.create_user("hard_user", "h@x.edu", "hard-pw");
    let batch = HardTokenBatch::manufacture("FOB", 3, &mut rng);
    c.pair_hard("hard_user", &batch, "FOB-0002");
    let fob = batch.by_serial("FOB-0002").unwrap().clone();
    let p = ClientProfile::interactive_user("hard_user", OUTSIDE, "hard-pw")
        .with_token(TokenSource::device(move |now| fob.press_button(now)));
    assert!(c.ssh(0, &p).granted);

    // SMS.
    c.create_user("sms_user", "m@x.edu", "sms-pw");
    let phone = c.pair_sms("sms_user", "5125550001");
    let p = ClientProfile::interactive_user("sms_user", OUTSIDE, "sms-pw")
        .with_token(c.sms_device(&phone));
    let r = c.ssh(1, &p);
    assert!(r.granted, "{:?}", r.prompts);
    assert!(r.prompts.iter().any(|pr| pr.contains("SMS")));

    // Training (static).
    c.create_user("train_user", "t@x.edu", "train-pw");
    let code = c.enroll_training_account("train_user");
    let p = ClientProfile::interactive_user("train_user", OUTSIDE, "train-pw")
        .with_token(TokenSource::Fixed(code));
    assert!(c.ssh(0, &p).granted);

    // All four pairings visible in the identity breakdown.
    let b = c.identity.pairing_breakdown().unwrap();
    assert!(b.iter().all(|&f| f > 0.0), "all four types present: {b:?}");
}

#[test]
fn enforcement_mode_lifecycle_matches_rollout_phases() {
    let c = Center::new(CenterConfig::default());
    c.create_user("alice", "a@x.edu", "alice-pw");
    let unpaired = ClientProfile::interactive_user("alice", OUTSIDE, "alice-pw");

    // Phase 0/"off": single factor.
    c.set_enforcement(EnforcementMode::Off);
    let r = c.ssh(0, &unpaired);
    assert!(r.granted && !r.mfa_prompted);

    // Phase 1/"paired": unpaired users pass silently.
    c.set_enforcement(EnforcementMode::Paired);
    let r = c.ssh(0, &unpaired);
    assert!(r.granted && !r.mfa_prompted);

    // Phase 2/"countdown": unpaired users must acknowledge the notice.
    c.set_enforcement(EnforcementMode::Countdown {
        deadline: securing_hpc::otp::date::Date::new(2016, 10, 4),
        url: "https://portal/mfa".into(),
    });
    let r = c.ssh(0, &unpaired);
    assert!(r.granted);
    assert!(
        r.prompts.iter().any(|p| p.contains("mandatory")),
        "countdown notice shown: {:?}",
        r.prompts
    );

    // Phase 3/"full": unpaired users are locked out.
    c.set_enforcement(EnforcementMode::Full);
    let r = c.ssh(0, &unpaired);
    assert!(!r.granted);

    // Pairing restores access.
    let device = c.pair_soft("alice");
    let p = ClientProfile::interactive_user("alice", OUTSIDE, "alice-pw").with_token(
        TokenSource::device(move |now| Some(device.displayed_code(now))),
    );
    assert!(c.ssh(0, &p).granted);
}

#[test]
fn unpairing_through_portal_revokes_access() {
    let c = full_center();
    c.create_user("alice", "a@x.edu", "alice-pw");
    let device = c.pair_soft("alice");
    let dev2 = device.clone();
    let p = ClientProfile::interactive_user("alice", OUTSIDE, "alice-pw").with_token(
        TokenSource::device(move |now| Some(device.displayed_code(now))),
    );
    assert!(c.ssh(0, &p).granted);

    // Unpair with possession proof.
    c.clock.advance(30);
    let current = dev2.displayed_code(c.clock.now());
    c.portal.remove_pairing("alice", &current).unwrap();
    assert_eq!(c.identity.get("alice").unwrap().pairing, None);

    // The old device no longer logs in (no pairing, full mode).
    c.clock.advance(30);
    assert!(!c.ssh(0, &p).granted);
}

#[test]
fn email_unpair_after_lost_phone() {
    let c = full_center();
    c.create_user("bob", "bob@x.edu", "bob-pw");
    c.pair_soft("bob");
    // Phone is gone: out-of-band flow.
    let link = c.portal.request_email_unpair("bob").unwrap();
    assert!(link.url.contains("token="));
    let who = c.portal.complete_email_unpair(&link.url).unwrap();
    assert_eq!(who, "bob");
    assert_eq!(c.identity.get("bob").unwrap().pairing, None);
    // Re-pairing works afterwards (new secret).
    let device = c.pair_soft("bob");
    let p = ClientProfile::interactive_user("bob", OUTSIDE, "bob-pw").with_token(
        TokenSource::device(move |now| Some(device.displayed_code(now))),
    );
    assert!(c.ssh(0, &p).granted);
    assert_eq!(
        c.identity.get("bob").unwrap().pairing,
        Some(PairingMethod::Soft)
    );
}

#[test]
fn lockout_threshold_through_the_full_stack() {
    let c = full_center();
    c.create_user("victim", "v@x.edu", "victim-pw");
    let device = c.pair_soft("victim");

    // An attacker who knows the password hammers wrong codes.
    let attacker = ClientProfile::interactive_user("victim", OUTSIDE, "victim-pw")
        .with_token(TokenSource::Fixed("000000".into()));
    for _ in 0..20 {
        c.clock.advance(3);
        assert!(!c.ssh(0, &attacker).granted);
    }
    assert!(!c.linotp.status("victim", c.clock.now()).unwrap().active);

    // Even the legitimate device is refused while deactivated.
    c.clock.advance(30);
    let dev = device.clone();
    let legit = ClientProfile::interactive_user("victim", OUTSIDE, "victim-pw").with_token(
        TokenSource::device(move |now| Some(dev.displayed_code(now))),
    );
    assert!(!c.ssh(0, &legit).granted);

    // Staff reset restores service.
    c.linotp.reset_failcount("victim", c.clock.now());
    c.clock.advance(30);
    assert!(c.ssh(0, &legit).granted);
}

#[test]
fn wrong_password_never_reaches_second_factor() {
    let c = full_center();
    c.create_user("alice", "a@x.edu", "alice-pw");
    c.pair_soft("alice");
    let validations_before = c.linotp.audit().for_user("alice").len();
    let p = ClientProfile::interactive_user("alice", OUTSIDE, "totally-wrong")
        .with_token(TokenSource::Fixed("123456".into()));
    let r = c.ssh(0, &p);
    assert!(!r.granted);
    assert!(
        r.prompts.iter().all(|pr| !pr.contains("Token")),
        "no token prompt after bad password: {:?}",
        r.prompts
    );
    // No RADIUS/OTP traffic was generated (§3.1's brute-force filter).
    assert_eq!(c.linotp.audit().for_user("alice").len(), validations_before);
}

#[test]
fn storage_batch_transfers_from_compute_nodes() {
    // "Remote storage systems are configured to accept SSH traffic from
    // all HPC systems within the internal network" (§3.4): batch clients
    // with keys move data without any prompt even in full mode.
    let c = full_center();
    c.create_user("alice", "a@x.edu", "alice-pw");
    c.pair_soft("alice");
    let key = c.provision_key("alice");
    let compute_node_ip = c.internal_ip(99);
    let batch = ClientProfile::batch_client("alice", compute_node_ip, key);
    for _ in 0..5 {
        c.clock.advance(60);
        let r = c.ssh(1, &batch);
        assert!(r.granted && r.prompts.is_empty());
    }
}
