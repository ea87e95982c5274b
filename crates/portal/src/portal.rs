//! The portlet application: pairing, unpairing, and the interstitial
//! splash (§3.5).
//!
//! Every back-end mutation travels through the LinOTP admin REST interface
//! with a fresh HTTP-digest handshake — the portal holds a service
//! credential, never token secrets. After each successful (un)pairing the
//! identity back end and the LDAP `mfaPairing` attribute are updated,
//! which is what the PAM token module later reads.

use crate::session::PairingSession;
use crate::signedurl::{SignedUrl, UrlSigner, DEFAULT_VALIDITY_SECS};
use hpcmfa_crypto::digestauth::answer_challenge;
use hpcmfa_directory::identity::{IdentityDb, PairingMethod};
use hpcmfa_directory::ldap::{Directory, Entry};
use hpcmfa_directory::MFA_PAIRING_ATTR;
use hpcmfa_otp::clock::Clock;
use hpcmfa_otp::qr::QrCode;
use hpcmfa_otp::secret::Secret;
use hpcmfa_otpserver::admin::{AdminApi, HttpRequest, HttpResponse};
use hpcmfa_otpserver::json::Json;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the user sees after portal login.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoginPage {
    /// Whether the interstitial "set up MFA" splash is shown.
    pub splash: bool,
}

/// Portal operation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortalError {
    /// Account not found in the identity database.
    UnknownAccount,
    /// No pairing session in a confirmable state (refresh, back button,
    /// resubmission, or double confirmation).
    NoActiveSession,
    /// The confirmation code did not validate.
    WrongCode,
    /// Phone number rejected.
    BadPhone(String),
    /// Serial not present in the vendor seed file (or already claimed).
    UnknownSerial,
    /// Hard tokens are unpaired via the support ticket system, not the
    /// portal (§3.5).
    HardTokenRequiresTicket,
    /// The user has no pairing to remove.
    NotPaired,
    /// Signed-URL verification failed.
    BadUnpairLink,
    /// The back end admin API refused (auth failure or internal error).
    Backend(String),
}

impl std::fmt::Display for PortalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortalError::UnknownAccount => write!(f, "unknown account"),
            PortalError::NoActiveSession => write!(f, "no active pairing session"),
            PortalError::WrongCode => write!(f, "token code validation failed"),
            PortalError::BadPhone(p) => write!(f, "invalid phone number: {p}"),
            PortalError::UnknownSerial => write!(f, "unknown hard token serial"),
            PortalError::HardTokenRequiresTicket => {
                write!(
                    f,
                    "hard tokens are unpaired through the support ticket system"
                )
            }
            PortalError::NotPaired => write!(f, "no MFA pairing on file"),
            PortalError::BadUnpairLink => write!(f, "invalid or expired unpairing link"),
            PortalError::Backend(m) => write!(f, "back end error: {m}"),
        }
    }
}

impl std::error::Error for PortalError {}

/// The portal application.
pub struct Portal {
    admin: Arc<AdminApi>,
    admin_user: String,
    admin_pass: String,
    identity: IdentityDb,
    directory: Directory,
    people_base: String,
    signer: UrlSigner,
    clock: Arc<dyn Clock>,
    sessions: Mutex<HashMap<String, PairingSession>>,
    /// Vendor seed file: serial → secret, consumed as fobs are claimed.
    hard_seeds: Mutex<HashMap<String, Secret>>,
    cnonce: AtomicU64,
}

impl Portal {
    /// Assemble the portal.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        admin: Arc<AdminApi>,
        admin_user: &str,
        admin_pass: &str,
        identity: IdentityDb,
        directory: Directory,
        people_base: &str,
        url_key: &[u8],
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
        Arc::new(Portal {
            admin,
            admin_user: admin_user.to_string(),
            admin_pass: admin_pass.to_string(),
            identity,
            directory,
            people_base: people_base.to_string(),
            signer: UrlSigner::new(
                url_key.to_vec(),
                "https://portal.tacc.utexas.edu/mfa/unpair",
            ),
            clock,
            sessions: Mutex::new(HashMap::new()),
            hard_seeds: Mutex::new(HashMap::new()),
            cnonce: AtomicU64::new(0),
        })
    }

    /// Import the vendor seed file for a hard-token batch (staff action at
    /// batch receipt).
    pub fn import_hard_token_batch(&self, seeds: impl IntoIterator<Item = (String, Secret)>) {
        self.hard_seeds.lock().extend(seeds);
    }

    /// One digest-authenticated admin call: challenge, answer, dispatch.
    fn admin_call(
        &self,
        method: &str,
        path: &str,
        body: Json,
    ) -> Result<HttpResponse, PortalError> {
        let now = self.clock.now();
        let challenge = self.admin.issue_challenge();
        let cn = self.cnonce.fetch_add(1, Ordering::Relaxed);
        let auth = answer_challenge(
            &challenge,
            &self.admin_user,
            &self.admin_pass,
            method,
            path,
            &format!("cnonce-{cn}"),
            1,
        );
        let resp = self
            .admin
            .handle(&HttpRequest::new(method, path, body).with_auth(auth), now);
        if resp.status == 401 {
            return Err(PortalError::Backend("admin authentication failed".into()));
        }
        Ok(resp)
    }

    fn validate_code(&self, user: &str, code: &str) -> Result<bool, PortalError> {
        let resp = self.admin.handle(
            &HttpRequest::new(
                "POST",
                "/validate/check",
                Json::obj([("user", Json::str(user)), ("pass", Json::str(code))]),
            ),
            self.clock.now(),
        );
        Ok(resp.value().and_then(Json::as_bool).unwrap_or(false))
    }

    // ------------------------------------------------------------------
    // Login & splash
    // ------------------------------------------------------------------

    /// Portal login: unpaired users see the interstitial splash, "re-
    /// prompted upon each log in" until they pair.
    pub fn login(&self, user: &str) -> Result<LoginPage, PortalError> {
        let rec = self.identity.get(user).ok_or(PortalError::UnknownAccount)?;
        Ok(LoginPage {
            splash: rec.pairing.is_none(),
        })
    }

    // ------------------------------------------------------------------
    // Pairing flows
    // ------------------------------------------------------------------

    /// Begin a soft-token pairing: returns the QR code to scan. Supersedes
    /// (aborts) any session already in flight.
    pub fn begin_soft_pairing(&self, user: &str) -> Result<QrCode, PortalError> {
        self.identity.get(user).ok_or(PortalError::UnknownAccount)?;
        let resp = self.admin_call(
            "POST",
            "/admin/init",
            Json::obj([("user", Json::str(user)), ("type", Json::str("soft"))]),
        )?;
        let uri = resp
            .value()
            .and_then(|v| v.get("otpauth"))
            .and_then(Json::as_str)
            .ok_or_else(|| PortalError::Backend("init returned no otpauth URI".into()))?;
        let now = self.clock.now();
        self.open_session(PairingSession::start(user, PairingMethod::Soft, now));
        Ok(QrCode::encode(uri))
    }

    /// Begin an SMS pairing with a phone number; LinOTP texts the
    /// confirmation code immediately.
    pub fn begin_sms_pairing(&self, user: &str, phone: &str) -> Result<(), PortalError> {
        self.identity.get(user).ok_or(PortalError::UnknownAccount)?;
        let resp = self.admin_call(
            "POST",
            "/admin/init",
            Json::obj([
                ("user", Json::str(user)),
                ("type", Json::str("sms")),
                ("phone", Json::str(phone)),
            ]),
        )?;
        if !resp.is_ok() {
            return Err(PortalError::BadPhone(phone.to_string()));
        }
        let trig = self.admin_call(
            "POST",
            "/admin/smschallenge",
            Json::obj([("user", Json::str(user))]),
        )?;
        if !trig.is_ok() {
            return Err(PortalError::Backend("SMS trigger failed".into()));
        }
        let now = self.clock.now();
        self.open_session(PairingSession::start(user, PairingMethod::Sms, now));
        Ok(())
    }

    /// Begin a hard-token pairing from the serial on the fob's back.
    pub fn begin_hard_pairing(&self, user: &str, serial: &str) -> Result<(), PortalError> {
        self.identity.get(user).ok_or(PortalError::UnknownAccount)?;
        let secret = {
            let seeds = self.hard_seeds.lock();
            seeds
                .get(serial)
                .cloned()
                .ok_or(PortalError::UnknownSerial)?
        };
        let resp = self.admin_call(
            "POST",
            "/admin/init",
            Json::obj([
                ("user", Json::str(user)),
                ("type", Json::str("hard")),
                ("serial", Json::str(serial)),
                ("otpkey", Json::str(secret.to_hex())),
            ]),
        )?;
        if !resp.is_ok() {
            return Err(PortalError::Backend("hard init failed".into()));
        }
        let now = self.clock.now();
        let mut session = PairingSession::start(user, PairingMethod::Hard, now);
        session.serial = Some(serial.to_string());
        self.open_session(session);
        Ok(())
    }

    fn open_session(&self, session: PairingSession) {
        let mut sessions = self.sessions.lock();
        if let Some(old) = sessions.get_mut(&session.user) {
            old.abort();
        }
        sessions.insert(session.user.clone(), session);
    }

    /// Confirm the pairing with the code from the new device. On success
    /// the identity back end and LDAP are notified.
    pub fn confirm_pairing(&self, user: &str, code: &str) -> Result<PairingMethod, PortalError> {
        let method = {
            let sessions = self.sessions.lock();
            let session = sessions.get(user).ok_or(PortalError::NoActiveSession)?;
            if !session.can_confirm() {
                return Err(PortalError::NoActiveSession);
            }
            session.method
        };
        if !self.validate_code(user, code)? {
            // Wrong code: the session stays open for a retry.
            return Err(PortalError::WrongCode);
        }
        let now = self.clock.now();
        // Consume the serial for hard tokens so a fob pairs only once.
        {
            let mut sessions = self.sessions.lock();
            let session = sessions.get_mut(user).ok_or(PortalError::NoActiveSession)?;
            if !session.can_confirm() {
                return Err(PortalError::NoActiveSession);
            }
            if let Some(serial) = &session.serial {
                self.hard_seeds.lock().remove(serial);
            }
            session.complete();
        }
        self.identity
            .set_pairing(user, method, now)
            .map_err(|_| PortalError::UnknownAccount)?;
        self.write_ldap_pairing(user, Some(method));
        Ok(method)
    }

    // ------------------------------------------------------------------
    // Unpairing flows
    // ------------------------------------------------------------------

    /// Remove the current pairing, proving possession with the current
    /// token code. Hard tokens must go through the ticket system.
    pub fn remove_pairing(&self, user: &str, current_code: &str) -> Result<(), PortalError> {
        let rec = self.identity.get(user).ok_or(PortalError::UnknownAccount)?;
        let method = rec.pairing.ok_or(PortalError::NotPaired)?;
        if method == PairingMethod::Hard {
            return Err(PortalError::HardTokenRequiresTicket);
        }
        if !self.validate_code(user, current_code)? {
            return Err(PortalError::WrongCode);
        }
        self.finish_unpair(user)
    }

    /// Email an out-of-band unpairing link (lost/broken device). Returns
    /// the link as it would appear in the email body.
    pub fn request_email_unpair(&self, user: &str) -> Result<SignedUrl, PortalError> {
        let rec = self.identity.get(user).ok_or(PortalError::UnknownAccount)?;
        let method = rec.pairing.ok_or(PortalError::NotPaired)?;
        if method == PairingMethod::Hard {
            return Err(PortalError::HardTokenRequiresTicket);
        }
        Ok(self
            .signer
            .issue(user, self.clock.now(), DEFAULT_VALIDITY_SECS))
    }

    /// Follow an emailed unpairing link.
    pub fn complete_email_unpair(&self, url: &str) -> Result<String, PortalError> {
        let user = self
            .signer
            .verify(url, self.clock.now())
            .map_err(|_| PortalError::BadUnpairLink)?;
        self.finish_unpair(&user)?;
        Ok(user)
    }

    fn finish_unpair(&self, user: &str) -> Result<(), PortalError> {
        let resp = self.admin_call(
            "POST",
            "/admin/remove",
            Json::obj([("user", Json::str(user))]),
        )?;
        if !resp.is_ok() {
            return Err(PortalError::Backend("remove failed".into()));
        }
        self.identity
            .clear_pairing(user, self.clock.now())
            .map_err(|_| PortalError::UnknownAccount)?;
        self.write_ldap_pairing(user, None);
        Ok(())
    }

    fn write_ldap_pairing(&self, user: &str, method: Option<PairingMethod>) {
        let dn = format!("uid={user},{}", self.people_base);
        if self.directory.get(&dn).is_none() {
            let _ = self
                .directory
                .add(Entry::new(dn.clone()).with_attr("uid", user));
        }
        let _ = self.directory.modify(&dn, |e| match method {
            Some(m) => e.set_attr(MFA_PAIRING_ATTR, vec![m.label().to_string()]),
            None => {
                e.remove_attr(MFA_PAIRING_ATTR);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcmfa_directory::ldap::Filter;
    use hpcmfa_otp::clock::SimClock;
    use hpcmfa_otp::device::{HardTokenBatch, SoftToken};
    use hpcmfa_otpserver::server::{LinotpServer, ServerConfig};
    use hpcmfa_otpserver::sms::{PhoneNumber, SmsProvider, TwilioSim};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const NOW: u64 = 1_470_787_200; // 2016-08-10

    struct Rig {
        portal: Arc<Portal>,
        linotp: Arc<LinotpServer>,
        twilio: Arc<TwilioSim>,
        identity: IdentityDb,
        directory: Directory,
        clock: SimClock,
    }

    fn rig() -> Rig {
        let twilio = TwilioSim::new(4);
        let linotp = LinotpServer::with_config(
            Arc::clone(&twilio) as Arc<dyn SmsProvider>,
            31,
            ServerConfig::default(),
        );
        let admin = AdminApi::new(Arc::clone(&linotp), "LinOTP admin area", 17);
        admin.add_admin("portal-svc", "portal-secret");
        let identity = IdentityDb::new();
        let directory = Directory::new();
        let clock = SimClock::at(NOW);
        let portal = Portal::new(
            admin,
            "portal-svc",
            "portal-secret",
            identity.clone(),
            directory.clone(),
            "ou=people,dc=tacc",
            b"url-signing-key",
            Arc::new(clock.clone()),
        );
        identity
            .create_account("alice", "alice@utexas.edu")
            .unwrap();
        identity.create_account("bob", "bob@utexas.edu").unwrap();
        Rig {
            portal,
            linotp,
            twilio,
            identity,
            directory,
            clock,
        }
    }

    fn ldap_pairing(rig: &Rig, user: &str) -> Option<String> {
        rig.directory
            .search("dc=tacc", &Filter::eq("uid", user))
            .first()
            .and_then(|e| e.get_one(MFA_PAIRING_ATTR).map(str::to_string))
    }

    #[test]
    fn splash_until_paired() {
        let r = rig();
        assert!(r.portal.login("alice").unwrap().splash);
        // Pair, then no splash.
        let qr = r.portal.begin_soft_pairing("alice").unwrap();
        let device = SoftToken::from_uri(qr.payload()).unwrap();
        let code = device.displayed_code(r.clock.now());
        r.portal.confirm_pairing("alice", &code).unwrap();
        assert!(!r.portal.login("alice").unwrap().splash);
        assert_eq!(
            r.portal.login("ghost").unwrap_err(),
            PortalError::UnknownAccount
        );
    }

    #[test]
    fn soft_pairing_end_to_end() {
        let r = rig();
        let qr = r.portal.begin_soft_pairing("alice").unwrap();
        // The QR payload is a scannable otpauth URI.
        let device = SoftToken::from_uri(qr.payload()).unwrap();
        let code = device.displayed_code(r.clock.now());
        let method = r.portal.confirm_pairing("alice", &code).unwrap();
        assert_eq!(method, PairingMethod::Soft);
        // Identity and LDAP both updated.
        assert_eq!(
            r.identity.get("alice").unwrap().pairing,
            Some(PairingMethod::Soft)
        );
        assert_eq!(ldap_pairing(&r, "alice").as_deref(), Some("soft"));
        // And the device now logs in through the validation engine.
        let next = device.displayed_code(r.clock.now() + 30);
        assert!(r
            .linotp
            .validate("alice", &next, r.clock.now() + 30)
            .is_success());
    }

    #[test]
    fn wrong_confirmation_code_allows_retry() {
        let r = rig();
        let qr = r.portal.begin_soft_pairing("alice").unwrap();
        assert_eq!(
            r.portal.confirm_pairing("alice", "000000").unwrap_err(),
            PortalError::WrongCode
        );
        // Session still open; correct code completes.
        let device = SoftToken::from_uri(qr.payload()).unwrap();
        let code = device.displayed_code(r.clock.now());
        assert!(r.portal.confirm_pairing("alice", &code).is_ok());
    }

    #[test]
    fn double_confirmation_rejected() {
        let r = rig();
        let qr = r.portal.begin_soft_pairing("alice").unwrap();
        let device = SoftToken::from_uri(qr.payload()).unwrap();
        let code = device.displayed_code(r.clock.now());
        r.portal.confirm_pairing("alice", &code).unwrap();
        // Back button + resubmit: the spent session refuses.
        let code2 = device.displayed_code(r.clock.now() + 30);
        assert_eq!(
            r.portal.confirm_pairing("alice", &code2).unwrap_err(),
            PortalError::NoActiveSession
        );
    }

    #[test]
    fn an_aborted_session_cannot_confirm() {
        let r = rig();
        let qr = r.portal.begin_soft_pairing("alice").unwrap();
        // A refresh or back button mid-flow aborts the session.
        if let Some(session) = r.portal.sessions.lock().get_mut("alice") {
            session.abort();
        }
        let device = SoftToken::from_uri(qr.payload()).unwrap();
        let code = device.displayed_code(r.clock.now());
        assert_eq!(
            r.portal.confirm_pairing("alice", &code).unwrap_err(),
            PortalError::NoActiveSession
        );
        // Identity untouched.
        assert_eq!(r.identity.get("alice").unwrap().pairing, None);
    }

    #[test]
    fn sms_pairing_end_to_end() {
        let r = rig();
        r.portal.begin_sms_pairing("bob", "5125551234").unwrap();
        assert_eq!(r.twilio.sent_count(), 1);
        // Wait for carrier delivery, read the code off the phone.
        r.clock.advance(15);
        let phone = PhoneNumber::parse("5125551234").unwrap();
        let text = r.twilio.latest_delivered(&phone, r.clock.now()).unwrap();
        assert_eq!(
            r.portal.confirm_pairing("bob", text.code()).unwrap(),
            PairingMethod::Sms
        );
        assert_eq!(ldap_pairing(&r, "bob").as_deref(), Some("sms"));
    }

    #[test]
    fn sms_pairing_rejects_bad_phone() {
        let r = rig();
        assert!(matches!(
            r.portal.begin_sms_pairing("bob", "12345").unwrap_err(),
            PortalError::BadPhone(_)
        ));
    }

    #[test]
    fn hard_pairing_consumes_serial() {
        let r = rig();
        let mut rng = StdRng::seed_from_u64(77);
        let batch = HardTokenBatch::manufacture("TACC", 3, &mut rng);
        r.portal.import_hard_token_batch(batch.seed_file());

        r.portal.begin_hard_pairing("alice", "TACC-0002").unwrap();
        let fob = batch.by_serial("TACC-0002").unwrap();
        let code = fob.press_button(r.clock.now()).unwrap();
        assert_eq!(
            r.portal.confirm_pairing("alice", &code).unwrap(),
            PairingMethod::Hard
        );
        assert_eq!(ldap_pairing(&r, "alice").as_deref(), Some("hard"));
        // The same serial cannot be claimed again.
        assert_eq!(
            r.portal.begin_hard_pairing("bob", "TACC-0002").unwrap_err(),
            PortalError::UnknownSerial
        );
        // Unknown serials rejected outright.
        assert_eq!(
            r.portal.begin_hard_pairing("bob", "TACC-9999").unwrap_err(),
            PortalError::UnknownSerial
        );
    }

    #[test]
    fn unpair_with_possession_proof() {
        let r = rig();
        let qr = r.portal.begin_soft_pairing("alice").unwrap();
        let device = SoftToken::from_uri(qr.payload()).unwrap();
        let code = device.displayed_code(r.clock.now());
        r.portal.confirm_pairing("alice", &code).unwrap();

        // Wrong current code refused.
        assert_eq!(
            r.portal.remove_pairing("alice", "000000").unwrap_err(),
            PortalError::WrongCode
        );
        // Current code accepted.
        r.clock.advance(30);
        let current = device.displayed_code(r.clock.now());
        r.portal.remove_pairing("alice", &current).unwrap();
        assert_eq!(r.identity.get("alice").unwrap().pairing, None);
        assert_eq!(ldap_pairing(&r, "alice"), None);
        // Splash returns.
        assert!(r.portal.login("alice").unwrap().splash);
    }

    #[test]
    fn sms_unpair_with_a_requested_code() {
        let r = rig();
        let phone = PhoneNumber::parse("5125551234").unwrap();
        let read_code = |r: &Rig| {
            r.clock.advance(15);
            let text = r.twilio.latest_delivered(&phone, r.clock.now());
            text.unwrap().code().to_string()
        };
        r.portal.begin_sms_pairing("bob", "5125551234").unwrap();
        r.portal.confirm_pairing("bob", &read_code(&r)).unwrap();

        // The pairing code is spent; unpairing needs a fresh one.
        let sms_challenge = |user: &str| {
            let body = Json::obj([("user", Json::str(user))]);
            r.portal.admin_call("POST", "/admin/smschallenge", body)
        };
        assert!(sms_challenge("bob").unwrap().is_ok());
        assert_eq!(r.twilio.sent_count(), 2);
        r.portal.remove_pairing("bob", &read_code(&r)).unwrap();
        assert_eq!(r.identity.get("bob").unwrap().pairing, None);
        assert_eq!(ldap_pairing(&r, "bob"), None);

        // A soft-token user has nothing to text: the back end refuses.
        let qr = r.portal.begin_soft_pairing("alice").unwrap();
        let device = SoftToken::from_uri(qr.payload()).unwrap();
        let code = device.displayed_code(r.clock.now());
        r.portal.confirm_pairing("alice", &code).unwrap();
        assert!(!sms_challenge("alice").unwrap().is_ok());
    }

    #[test]
    fn unpair_without_pairing_fails() {
        let r = rig();
        assert_eq!(
            r.portal.remove_pairing("alice", "123456").unwrap_err(),
            PortalError::NotPaired
        );
    }

    #[test]
    fn hard_token_unpair_requires_ticket() {
        let r = rig();
        let mut rng = StdRng::seed_from_u64(78);
        let batch = HardTokenBatch::manufacture("TACC", 1, &mut rng);
        r.portal.import_hard_token_batch(batch.seed_file());
        r.portal.begin_hard_pairing("alice", "TACC-0001").unwrap();
        let code = batch.fobs[0].press_button(r.clock.now()).unwrap();
        r.portal.confirm_pairing("alice", &code).unwrap();

        assert_eq!(
            r.portal.remove_pairing("alice", &code).unwrap_err(),
            PortalError::HardTokenRequiresTicket
        );
        assert_eq!(
            r.portal.request_email_unpair("alice").unwrap_err(),
            PortalError::HardTokenRequiresTicket
        );
    }

    #[test]
    fn email_unpair_flow() {
        let r = rig();
        let qr = r.portal.begin_soft_pairing("alice").unwrap();
        let device = SoftToken::from_uri(qr.payload()).unwrap();
        let code = device.displayed_code(r.clock.now());
        r.portal.confirm_pairing("alice", &code).unwrap();

        // Phone broke: user requests the email link.
        let link = r.portal.request_email_unpair("alice").unwrap();
        r.clock.advance(600);
        assert_eq!(r.portal.complete_email_unpair(&link.url).unwrap(), "alice");
        assert_eq!(r.identity.get("alice").unwrap().pairing, None);

        // The link is bound to its signature: tampering fails.
        assert_eq!(
            r.portal
                .complete_email_unpair("https://portal.tacc.utexas.edu/mfa/unpair?token=x.1.y")
                .unwrap_err(),
            PortalError::BadUnpairLink
        );
    }

    #[test]
    fn expired_email_link_rejected() {
        let r = rig();
        let qr = r.portal.begin_soft_pairing("alice").unwrap();
        let device = SoftToken::from_uri(qr.payload()).unwrap();
        let code = device.displayed_code(r.clock.now());
        r.portal.confirm_pairing("alice", &code).unwrap();
        let link = r.portal.request_email_unpair("alice").unwrap();
        r.clock.advance(DEFAULT_VALIDITY_SECS + 1);
        assert_eq!(
            r.portal.complete_email_unpair(&link.url).unwrap_err(),
            PortalError::BadUnpairLink
        );
    }

    #[test]
    fn new_pairing_supersedes_old_session() {
        let r = rig();
        let qr1 = r.portal.begin_soft_pairing("alice").unwrap();
        // User changes their mind, starts SMS pairing instead.
        r.portal.begin_sms_pairing("alice", "5125559999").unwrap();
        // Old QR's device can no longer confirm (secret was replaced too).
        let old_device = SoftToken::from_uri(qr1.payload()).unwrap();
        let stale = old_device.displayed_code(r.clock.now());
        assert!(r.portal.confirm_pairing("alice", &stale).is_err());
    }

    #[test]
    fn pairing_events_recorded_for_fig6() {
        let r = rig();
        let qr = r.portal.begin_soft_pairing("alice").unwrap();
        let device = SoftToken::from_uri(qr.payload()).unwrap();
        let code = device.displayed_code(r.clock.now());
        r.portal.confirm_pairing("alice", &code).unwrap();
        r.clock.advance(3600);
        let current = device.displayed_code(r.clock.now());
        r.portal.remove_pairing("alice", &current).unwrap();
        let log = r.identity.pairing_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].method, Some(PairingMethod::Soft));
        assert_eq!(log[1].method, None);
    }
}
