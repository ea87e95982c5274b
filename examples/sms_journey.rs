//! An SMS user's journey (§3.3, §3.5): pairing by phone number, login with
//! a texted code, the "SMS already sent" suppression, a carrier-delayed
//! code arriving expired, the 20-failure lockout, and the staff reset via
//! the admin REST API.
//!
//! ```text
//! cargo run --example sms_journey
//! ```

use securing_hpc::core::center::{Center, CenterConfig};
use securing_hpc::core::Clock as _;
use securing_hpc::crypto::digestauth::answer_challenge;
use securing_hpc::otpserver::admin::HttpRequest;
use securing_hpc::otpserver::json::Json;
use securing_hpc::pam::modules::token::EnforcementMode;
use securing_hpc::ssh::client::{ClientProfile, TokenSource};
use std::net::Ipv4Addr;

const HOME_IP: Ipv4Addr = Ipv4Addr::new(70, 113, 20, 5);

fn main() {
    let center = Center::new(CenterConfig::default());
    center.set_enforcement(EnforcementMode::Full);
    center.create_user("bob", "bob@utexas.edu", "bob-pw");

    // Pair via the portal with a ten-digit US number (§3.5).
    let phone = center.pair_sms("bob", "5125557788");
    println!("bob paired an SMS token for {}", phone.as_str());

    // A login: the null RADIUS request triggers the text; bob waits for
    // the carrier, reads the code, types it.
    let profile = ClientProfile::interactive_user("bob", HOME_IP, "bob-pw")
        .with_token(center.sms_device(&phone));
    let report = center.ssh(0, &profile);
    println!(
        "login prompts: {:?}\ngranted: {}",
        report.prompts, report.granted
    );

    // Immediately retrying shows the suppression message (§3.3): the old
    // code was consumed, a new one is texted only after expiry.
    center.clock.advance(30);
    let report = center.ssh(0, &profile);
    println!(
        "\nsecond login prompt: {:?} (fresh SMS, previous code was consumed)",
        report.prompts.first()
    );

    // Cost accounting (§3.3 rates).
    println!(
        "\nSMS messages so far: {}, provider charges: ${:.4} + $1/month",
        center.twilio.sent_count(),
        center.twilio.sent_count() as f64 * 0.0075
    );

    // A storm of wrong codes locks the account after 20 consecutive
    // failures (§3.1)...
    let vandal = ClientProfile::interactive_user("bob", HOME_IP, "bob-pw")
        .with_token(TokenSource::Fixed("000000".into()));
    let mut denied = 0;
    for _ in 0..22 {
        center.clock.advance(5);
        if !center.ssh(0, &vandal).granted {
            denied += 1;
        }
    }
    let status = center.linotp.status("bob", center.clock.now()).unwrap();
    println!(
        "\nafter {denied} wrong-code attempts: fail_count={}, active={}",
        status.fail_count, status.active
    );

    // ...and staff clear it through the digest-authenticated admin API.
    let chal = center.admin.issue_challenge();
    let auth = answer_challenge(
        &chal,
        "portal-svc",
        "portal-svc-password",
        "POST",
        "/admin/reset",
        "staff-cnonce",
        1,
    );
    let resp = center.admin.handle(
        &HttpRequest::new(
            "POST",
            "/admin/reset",
            Json::obj([("user", Json::str("bob"))]),
        )
        .with_auth(auth),
        center.clock.now(),
    );
    println!(
        "staff POST /admin/reset -> HTTP {} body {}",
        resp.status, resp.body
    );
    let status = center.linotp.status("bob", center.clock.now()).unwrap();
    println!("bob active again: {}", status.active);

    center.clock.advance(400); // let the consumed/pending state expire
    let report = center.ssh(0, &profile);
    println!("bob logs in after the reset: granted = {}", report.granted);
}
