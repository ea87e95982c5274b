//! Client-side behaviours.
//!
//! §5 catalogues the client landscape the rollout had to absorb:
//! interactive terminal users, GUI clients with keyboard-interactive
//! support (PuTTY, Bitvise, WinSCP, FileZilla, Cyberduck), and scripted
//! clients (cron jobs, SFTP/SCP/rsync movers) that cannot answer a token
//! prompt at all. A [`ClientProfile`] bundles credentials with a response
//! policy and acts as the PAM conversation when the daemon runs the stack.

use crate::keys::KeyPair;
use hpcmfa_pam::conv::{ConvError, Prompt};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How a client obtains a token code when prompted.
#[derive(Clone)]
pub enum TokenSource {
    /// No way to answer (scripted/batch clients).
    None,
    /// Ask the device: a closure from Unix time to the displayed code
    /// (wraps a SoftToken/HardToken or a read of the newest text).
    Device(Arc<dyn Fn(u64) -> Option<String> + Send + Sync>),
    /// A fixed code (training accounts, or a user typing from paper).
    Fixed(String),
}

impl TokenSource {
    /// Wrap a device closure.
    pub fn device(f: impl Fn(u64) -> Option<String> + Send + Sync + 'static) -> Self {
        TokenSource::Device(Arc::new(f))
    }
}

/// A connecting client: identity, credentials, and conversation policy.
pub struct ClientProfile {
    /// Login name.
    pub username: String,
    /// Source address.
    pub source_ip: Ipv4Addr,
    /// Key offered to sshd, if any.
    pub key: Option<KeyPair>,
    /// Password typed when prompted, if any.
    pub password: Option<String>,
    /// Token-code source for MFA prompts.
    pub token: TokenSource,
    /// Whether keyboard-interactive is supported at all. The §4.1 audit
    /// found "the far majority of these log in events were not invoked
    /// with a TTY" — those clients set this false.
    pub interactive: bool,
    /// Whether a TTY would be allocated (interactive shell vs scp/sftp).
    pub wants_tty: bool,
}

impl ClientProfile {
    /// An interactive terminal user with password + device.
    pub fn interactive_user(username: &str, ip: Ipv4Addr, password: &str) -> Self {
        ClientProfile {
            username: username.to_string(),
            source_ip: ip,
            key: None,
            password: Some(password.to_string()),
            token: TokenSource::None,
            interactive: true,
            wants_tty: true,
        }
    }

    /// A scripted batch client using a public key, no conversation support.
    pub fn batch_client(username: &str, ip: Ipv4Addr, key: KeyPair) -> Self {
        ClientProfile {
            username: username.to_string(),
            source_ip: ip,
            key: Some(key),
            password: None,
            token: TokenSource::None,
            interactive: false,
            wants_tty: false,
        }
    }

    /// Attach a key.
    pub fn with_key(mut self, key: KeyPair) -> Self {
        self.key = Some(key);
        self
    }

    /// Attach a token source.
    pub fn with_token(mut self, token: TokenSource) -> Self {
        self.token = token;
        self
    }
}

/// The connection parameters sshd sees before PAM runs.
#[derive(Debug, Clone)]
pub(crate) struct ConnectionRequest {
    /// Login name.
    pub username: String,
    /// Peer address.
    pub source_ip: Ipv4Addr,
    /// Fingerprint of the key offered, if any.
    pub offered_key_fingerprint: Option<String>,
    /// TTY requested.
    pub wants_tty: bool,
}

/// Answers PAM prompts on behalf of a client profile. The daemon adapts
/// this into the PAM conversation.
pub(crate) trait CredentialResponder: Send {
    /// Respond to one prompt at time `now`.
    fn respond(&mut self, prompt: &Prompt, now: u64) -> Result<String, ConvError>;
}

/// The standard responder: passwords for password prompts, token codes for
/// token prompts, empty acknowledgements for info prompts.
pub(crate) struct ProfileResponder<'a> {
    profile: &'a ClientProfile,
}

impl<'a> ProfileResponder<'a> {
    /// Respond using `profile`'s credentials.
    pub(crate) fn new(profile: &'a ClientProfile) -> Self {
        ProfileResponder { profile }
    }
}

impl CredentialResponder for ProfileResponder<'_> {
    fn respond(&mut self, prompt: &Prompt, now: u64) -> Result<String, ConvError> {
        if !self.profile.interactive && prompt.wants_input() {
            return Err(ConvError::Unsupported);
        }
        if !prompt.wants_input() {
            return Ok(String::new());
        }
        let text = prompt.text().to_ascii_lowercase();
        if text.contains("password") {
            return self.profile.password.clone().ok_or(ConvError::Aborted);
        }
        if text.contains("token") {
            return match &self.profile.token {
                TokenSource::None => Err(ConvError::Aborted),
                TokenSource::Fixed(code) => Ok(code.clone()),
                TokenSource::Device(f) => f(now).ok_or(ConvError::Aborted),
            };
        }
        // Acknowledgement prompts ("press return"), or anything unknown.
        Ok(String::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prompt_pw() -> Prompt {
        Prompt::EchoOff("Password: ".into())
    }

    fn prompt_token() -> Prompt {
        Prompt::EchoOff("TACC Token:".into())
    }

    #[test]
    fn interactive_user_answers_password() {
        let p = ClientProfile::interactive_user("alice", Ipv4Addr::LOCALHOST, "hunter2");
        let mut r = ProfileResponder::new(&p);
        assert_eq!(r.respond(&prompt_pw(), 0).unwrap(), "hunter2");
    }

    #[test]
    fn device_token_source_uses_time() {
        let p = ClientProfile::interactive_user("alice", Ipv4Addr::LOCALHOST, "pw").with_token(
            TokenSource::device(|now| Some(format!("{:06}", now % 1_000_000))),
        );
        let mut r = ProfileResponder::new(&p);
        assert_eq!(r.respond(&prompt_token(), 123456).unwrap(), "123456");
    }

    #[test]
    fn fixed_token_source() {
        let p = ClientProfile::interactive_user("t", Ipv4Addr::LOCALHOST, "pw")
            .with_token(TokenSource::Fixed("424242".into()));
        let mut r = ProfileResponder::new(&p);
        assert_eq!(r.respond(&prompt_token(), 0).unwrap(), "424242");
    }

    #[test]
    fn missing_credentials_abort() {
        let p = ClientProfile::interactive_user("alice", Ipv4Addr::LOCALHOST, "pw");
        let mut r = ProfileResponder::new(&p);
        assert_eq!(r.respond(&prompt_token(), 0), Err(ConvError::Aborted));
        let mut no_pw = ClientProfile::interactive_user("alice", Ipv4Addr::LOCALHOST, "x");
        no_pw.password = None;
        let mut r2 = ProfileResponder::new(&no_pw);
        assert_eq!(r2.respond(&prompt_pw(), 0), Err(ConvError::Aborted));
    }

    #[test]
    fn batch_client_refuses_prompts() {
        let key = KeyPair::generate("svc@remote");
        let p = ClientProfile::batch_client("svc", Ipv4Addr::LOCALHOST, key);
        let mut r = ProfileResponder::new(&p);
        assert_eq!(r.respond(&prompt_pw(), 0), Err(ConvError::Unsupported));
        // Info prompts are fine even for batch clients (no input needed).
        assert_eq!(r.respond(&Prompt::Info("banner".into()), 0).unwrap(), "");
    }

    #[test]
    fn acknowledgement_prompt_answered_with_empty() {
        let p = ClientProfile::interactive_user("alice", Ipv4Addr::LOCALHOST, "pw");
        let mut r = ProfileResponder::new(&p);
        assert_eq!(
            r.respond(&Prompt::EchoOn("Press return to acknowledge: ".into()), 0)
                .unwrap(),
            ""
        );
    }
}
