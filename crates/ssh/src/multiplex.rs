//! SSH connection multiplexing (`ControlMaster`).
//!
//! "Perhaps most popular of all was the adoption of SSH multiplexing which
//! allowed for one connection to be established via MFA and subsequent
//! connections to the same host to utilize the already existing SSH
//! connection" (§5). One authenticated master carries many channels; no
//! further token prompts until the master closes.

use crate::client::ClientProfile;
use crate::daemon::{SessionReport, SshDaemon};

/// A client-side multiplexed connection to one daemon.
pub struct MultiplexedConnection<'a> {
    daemon: &'a SshDaemon,
    master: Option<SessionReport>,
    channels_opened: u32,
}

/// Errors from channel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuxError {
    /// The master authentication failed.
    MasterAuthFailed,
    /// No master is established.
    NoMaster,
}

impl std::fmt::Display for MuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MuxError::MasterAuthFailed => write!(f, "master authentication failed"),
            MuxError::NoMaster => write!(f, "no master connection"),
        }
    }
}

impl std::error::Error for MuxError {}

impl<'a> MultiplexedConnection<'a> {
    /// Prepare a multiplexer against `daemon` (no connection yet).
    pub fn new(daemon: &'a SshDaemon) -> Self {
        MultiplexedConnection {
            daemon,
            master: None,
            channels_opened: 0,
        }
    }

    /// Establish the master connection — the one full MFA authentication.
    pub fn establish(&mut self, profile: &ClientProfile) -> Result<&SessionReport, MuxError> {
        let report = self.daemon.connect(profile);
        if !report.granted {
            return Err(MuxError::MasterAuthFailed);
        }
        self.master = Some(report);
        Ok(self.master.as_ref().unwrap())
    }

    /// Open a channel over the existing master: no authentication at all.
    pub fn open_channel(&mut self) -> Result<u32, MuxError> {
        if self.master.is_none() {
            return Err(MuxError::NoMaster);
        }
        self.channels_opened += 1;
        Ok(self.channels_opened)
    }

    /// Channels opened so far.
    pub fn channels(&self) -> u32 {
        self.channels_opened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authlog::AuthLog;
    use crate::client::TokenSource;
    use hpcmfa_otp::clock::SimClock;
    use hpcmfa_pam::conv::Prompt;
    use hpcmfa_pam::stack::{ControlFlag, PamStack};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    /// Stack demanding a fixed token.
    fn token_stack() -> Arc<PamStack> {
        struct TokenPrompt;
        impl hpcmfa_pam::stack::PamModule for TokenPrompt {
            fn name(&self) -> &'static str {
                "fake_token"
            }
            fn authenticate(
                &self,
                ctx: &mut hpcmfa_pam::context::PamContext<'_>,
            ) -> hpcmfa_pam::stack::PamResult {
                match ctx.conv.converse(&Prompt::EchoOff("TACC Token:".into())) {
                    Ok(code) if code == "111111" => hpcmfa_pam::stack::PamResult::Success,
                    Ok(_) => hpcmfa_pam::stack::PamResult::AuthErr,
                    Err(_) => hpcmfa_pam::stack::PamResult::Abort,
                }
            }
        }
        let mut s = PamStack::new();
        s.push(ControlFlag::Required, Arc::new(TokenPrompt));
        Arc::new(s)
    }

    fn daemon() -> SshDaemon {
        SshDaemon::new(
            "login1",
            token_stack(),
            AuthLog::new(),
            Arc::new(SimClock::at(0)),
        )
    }

    fn profile(code: &str) -> ClientProfile {
        ClientProfile::interactive_user("alice", Ipv4Addr::new(8, 8, 8, 8), "pw")
            .with_token(TokenSource::Fixed(code.into()))
    }

    #[test]
    fn one_auth_many_channels() {
        let d = daemon();
        let mut mux = MultiplexedConnection::new(&d);
        mux.establish(&profile("111111")).unwrap();
        for i in 1..=20 {
            assert_eq!(mux.open_channel().unwrap(), i);
        }
        // Exactly one MFA prompt total across 20 channels.
        assert_eq!(
            d.authlog()
                .count_where(|e| e.method == crate::authlog::AuthMethod::KeyboardInteractive),
            1
        );
    }

    #[test]
    fn channel_without_master_fails() {
        let d = daemon();
        let mut mux = MultiplexedConnection::new(&d);
        assert_eq!(mux.open_channel(), Err(MuxError::NoMaster));
    }

    #[test]
    fn failed_master_auth_reported() {
        let d = daemon();
        let mut mux = MultiplexedConnection::new(&d);
        assert_eq!(
            mux.establish(&profile("999999")).unwrap_err(),
            MuxError::MasterAuthFailed
        );
        assert!(mux.master.is_none());
    }
}
