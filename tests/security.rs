//! Adversarial integration tests: the layered design must hold against
//! protocol-level attacks, not just wrong codes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use securing_hpc::core::Clock as _;
use securing_hpc::crypto::digestauth::answer_challenge;
use securing_hpc::otp::clock::SimClock;
use securing_hpc::otp::device::SoftToken;
use securing_hpc::otp::totp::TotpParams;
use securing_hpc::otpserver::admin::{AdminApi, HttpRequest};
use securing_hpc::otpserver::handler::OtpRadiusHandler;
use securing_hpc::otpserver::json::Json;
use securing_hpc::otpserver::server::{LinotpServer, ServerConfig};
use securing_hpc::otpserver::sms::TwilioSim;
use securing_hpc::radius::attribute::{Attribute, AttributeType};
use securing_hpc::radius::auth::{hide_password, request_authenticator, verify_response};
use securing_hpc::radius::packet::{Code, Packet};
use securing_hpc::radius::server::RadiusServer;
use std::sync::Arc;

const NOW: u64 = 1_475_000_000;
const SECRET: &[u8] = b"pool-secret";

fn radius_rig() -> (Arc<RadiusServer>, Arc<LinotpServer>, SimClock) {
    let clock = SimClock::at(NOW);
    let linotp = LinotpServer::with_config(TwilioSim::new(1), 2, ServerConfig::default());
    let handler = OtpRadiusHandler::new(Arc::clone(&linotp), Arc::new(clock.clone()));
    (Arc::new(RadiusServer::new(SECRET, handler)), linotp, clock)
}

/// An off-path attacker cannot forge an Access-Accept without the shared
/// secret: the response authenticator verification fails.
#[test]
fn forged_access_accept_is_detected() {
    let (_server, _linotp, _clock) = radius_rig();
    let mut rng = StdRng::seed_from_u64(3);
    let ra = request_authenticator(&mut rng);

    // The attacker fabricates an Accept with a guessed authenticator.
    let forged = Packet::new(Code::AccessAccept, 7, [0x41; 16]);
    assert!(!verify_response(&forged, &ra, SECRET));

    // Even copying a legitimate response under a *different* request
    // authenticator fails (no replay across requests).
    let (server, linotp, _clock) = radius_rig();
    linotp.enroll_soft("alice", NOW);
    let req_auth = request_authenticator(&mut rng);
    let req = Packet::new(Code::AccessRequest, 9, req_auth)
        .with_attribute(Attribute::text(AttributeType::UserName, "alice"))
        .with_attribute(Attribute::new(
            AttributeType::UserPassword,
            hide_password(b"", &req_auth, SECRET),
        ));
    let reply = server.process_datagram(&req.encode()).unwrap();
    let reply = Packet::decode(&reply).unwrap();
    assert!(verify_response(&reply, &req_auth, SECRET));
    let other_request_auth = request_authenticator(&mut rng);
    assert!(!verify_response(&reply, &other_request_auth, SECRET));
}

/// Token codes travel hidden inside `User-Password`; the wire bytes never
/// contain the cleartext code.
#[test]
fn token_code_not_visible_on_the_wire() {
    let mut rng = StdRng::seed_from_u64(4);
    let ra = request_authenticator(&mut rng);
    let code = b"123456";
    let req = Packet::new(Code::AccessRequest, 1, ra)
        .with_attribute(Attribute::text(AttributeType::UserName, "alice"))
        .with_attribute(Attribute::new(
            AttributeType::UserPassword,
            hide_password(code, &ra, SECRET),
        ));
    let wire = req.encode();
    assert!(
        !wire.windows(code.len()).any(|w| w == code),
        "cleartext code leaked on the wire"
    );
}

/// A captured valid code is worthless after use (server-side nullification)
/// and across nodes, because replay state lives in the shared back end.
#[test]
fn captured_code_replay_fails() {
    let (server, linotp, clock) = radius_rig();
    let secret = linotp.enroll_soft("alice", NOW);
    let device = SoftToken::new(secret, TotpParams::default());
    clock.advance(60);
    let code = device.displayed_code(clock.now());
    assert!(linotp.validate("alice", &code, clock.now()).is_success());
    // The eavesdropper replays the exact code seconds later.
    clock.advance(5);
    assert!(!linotp.validate("alice", &code, clock.now()).is_success());
    let _ = server;
}

/// Digest-auth admin sessions resist credential replay: a sniffed
/// Authorization header cannot be reused.
#[test]
fn admin_api_replay_and_privilege_checks() {
    let linotp = LinotpServer::with_config(TwilioSim::new(9), 8, ServerConfig::default());
    let api = AdminApi::new(Arc::clone(&linotp), "LinOTP admin area", 3);
    api.add_admin("portal", "pw");

    let chal = api.issue_challenge();
    let auth = answer_challenge(&chal, "portal", "pw", "POST", "/admin/init", "cn", 1);
    let req = HttpRequest::new(
        "POST",
        "/admin/init",
        Json::obj([("user", Json::str("alice"))]),
    )
    .with_auth(auth.clone());
    assert_eq!(api.handle(&req, NOW).status, 200);
    // Replay of the same header: rejected with a fresh challenge.
    let replayed = api.handle(&req, NOW + 1);
    assert_eq!(replayed.status, 401);
    assert!(replayed.challenge.is_some());

    // A sniffed Authorization for one route cannot hit another route.
    let chal2 = api.issue_challenge();
    let auth2 = answer_challenge(&chal2, "portal", "pw", "POST", "/admin/init", "cn", 1);
    let cross = HttpRequest::new(
        "POST",
        "/admin/remove",
        Json::obj([("user", Json::str("alice"))]),
    )
    .with_auth(auth2);
    assert_eq!(api.handle(&cross, NOW).status, 401);
}

/// The SMS "null request" cannot be abused to spam texts: while a code is
/// active the provider is not contacted again (§3.3).
#[test]
fn sms_flooding_is_suppressed() {
    use securing_hpc::otpserver::sms::{PhoneNumber, SmsProvider};
    let twilio = TwilioSim::new(5);
    let linotp = LinotpServer::with_config(
        Arc::clone(&twilio) as Arc<dyn SmsProvider>,
        6,
        ServerConfig::default(),
    );
    linotp.enroll_sms("bob", PhoneNumber::parse("5125550002").unwrap(), NOW);
    for i in 0..50 {
        let _ = linotp.trigger_sms("bob", NOW + i);
    }
    assert_eq!(twilio.sent_count(), 1, "only the first trigger sends");
}

/// Malformed RADIUS datagrams are discarded silently, never answered.
#[test]
fn malformed_datagrams_are_discarded() {
    let (server, _linotp, _clock) = radius_rig();
    for garbage in [
        vec![],
        vec![0xff; 3],
        vec![0x01; 19], // one byte short of a header
        {
            let mut v = vec![0x63; 64]; // unknown code
            v[2] = 0;
            v[3] = 64;
            v
        },
    ] {
        assert_eq!(server.process_datagram(&garbage), None);
    }
}
