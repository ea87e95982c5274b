//! Acceptance: the batched UDP front end (`radius::ingest`, DESIGN.md
//! §16) feeding the full OTP validation stack over real sockets — zero-
//! copy decode on the workers, the handler's guarded (§12 admission)
//! entry points into the sharded store, and the ingest telemetry
//! (`hpcmfa_radius_ingest_batch_size`,
//! `hpcmfa_radius_datagrams_total{outcome}`) surfaced on the same
//! `/system/metrics` scrape as the rest of the auth path.

use rand::rngs::StdRng;
use rand::SeedableRng;
use securing_hpc::crypto::digestauth::answer_challenge;
use securing_hpc::otp::clock::{Clock, SimClock};
use securing_hpc::otp::device::SoftToken;
use securing_hpc::otp::totp::TotpParams;
use securing_hpc::otpserver::admin::{AdminApi, HttpRequest};
use securing_hpc::otpserver::handler::TOKEN_PROMPT;
use securing_hpc::otpserver::json::Json;
use securing_hpc::otpserver::server::ServerConfig;
use securing_hpc::otpserver::{LinotpServer, OtpRadiusHandler, TwilioSim};
use securing_hpc::radius::client::{ClientConfig, Outcome, RadiusClient};
use securing_hpc::radius::ingest::BatchedUdpServer;
use securing_hpc::radius::server::RadiusServer;
use securing_hpc::radius::transport::{Transport, UdpTransport};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const NOW: u64 = 1_475_000_000;
const SECRET: &[u8] = b"ingest-pool-secret";

#[test]
fn batched_ingest_runs_the_otp_stack_and_exposes_metrics() {
    let linotp = LinotpServer::with_config(TwilioSim::new(1), 77, ServerConfig::default());
    let clock = SimClock::at(NOW);
    let secret = linotp.enroll_soft("alice", NOW);
    let device = SoftToken::new(secret, TotpParams::default());
    let handler = OtpRadiusHandler::new(Arc::clone(&linotp), Arc::new(clock.clone()));
    let radius = Arc::new(RadiusServer::new(SECRET, handler));

    // The ingest pipeline records into the same registry the admin API
    // scrapes, so its series land on /system/metrics for free.
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
    let addr = socket.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = BatchedUdpServer::new(radius, Arc::clone(linotp.metrics()))
        .serve(socket, Arc::clone(&shutdown));

    // Full challenge–response TOTP login through real datagrams.
    let transport: Arc<dyn Transport> = Arc::new(UdpTransport::new(addr, Duration::from_secs(2)));
    let client = RadiusClient::new(ClientConfig::new(SECRET, "login-ingest"), vec![transport]);
    let mut rng = StdRng::seed_from_u64(31);
    let out = client
        .authenticate(&mut rng, "alice", b"", "198.51.100.7")
        .expect("challenge");
    let Outcome::Challenge { state, message } = out else {
        panic!("expected challenge, got {out:?}");
    };
    assert_eq!(message.as_deref(), Some(TOKEN_PROMPT));
    let code = device.displayed_code(clock.now());
    let fin = client
        .respond_to_challenge(&mut rng, "alice", code.as_bytes(), "198.51.100.7", &state)
        .expect("accept");
    assert!(matches!(fin, Outcome::Accept { .. }));

    shutdown.store(true, Ordering::SeqCst);
    let stats = handle.stats();
    handle.join();
    assert_eq!(stats.replied, 2, "challenge + accept answered: {stats:?}");
    assert_eq!(stats.shed, 0);

    // The scrape the operators' Prometheus runs: digest-authenticated
    // GET /system/metrics must now carry the ingest families.
    let api = AdminApi::new(Arc::clone(&linotp), "LinOTP admin area", 7);
    api.add_admin("portal", "portal-pass");
    let chal = api.issue_challenge();
    let auth = answer_challenge(
        &chal,
        "portal",
        "portal-pass",
        "GET",
        "/system/metrics",
        "cn",
        1,
    );
    let resp = api.handle(
        &HttpRequest::new("GET", "/system/metrics", Json::Null).with_auth(auth),
        clock.now(),
    );
    assert!(resp.is_ok(), "scrape failed: {}", resp.status);
    let text = resp.value().unwrap().as_str().unwrap().to_string();
    assert!(
        text.contains("# TYPE hpcmfa_radius_ingest_batch_size histogram"),
        "batch-size histogram missing from /system/metrics"
    );
    assert!(text.contains("hpcmfa_radius_datagrams_total{outcome=\"ok\"} 2"));
    assert!(text.contains("hpcmfa_radius_ingest_batch_size_count 2"));
    // The validations themselves went through the guarded OTP path.
    assert!(text.contains("hpcmfa_otp_validations_total"));
}
