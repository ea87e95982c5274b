//! The PAM conversation interface.
//!
//! PAM modules never read the terminal directly: they hand prompts to the
//! application's conversation function, which relays them to the user —
//! over SSH this is the keyboard-interactive subsystem. The token module
//! uses it for the `TACC Token:` challenge, the countdown module for its
//! mandatory press-return acknowledgement (§3.4).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// A message from a module to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prompt {
    /// Prompt with echoed input (e.g. username).
    EchoOn(String),
    /// Prompt with hidden input (passwords, token codes).
    EchoOff(String),
    /// Informational text, no input.
    Info(String),
    /// Error text, no input.
    ErrorMsg(String),
}

impl Prompt {
    /// The message text.
    pub fn text(&self) -> &str {
        match self {
            Prompt::EchoOn(s) | Prompt::EchoOff(s) | Prompt::Info(s) | Prompt::ErrorMsg(s) => s,
        }
    }

    /// Whether this prompt expects input back.
    pub fn wants_input(&self) -> bool {
        matches!(self, Prompt::EchoOn(_) | Prompt::EchoOff(_))
    }
}

/// Conversation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvError {
    /// The peer disconnected or declined to answer.
    Aborted,
    /// The client cannot do keyboard-interactive at all (some scripted
    /// clients) — §5's incompatible-workflow cases.
    Unsupported,
}

impl std::fmt::Display for ConvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvError::Aborted => write!(f, "conversation aborted"),
            ConvError::Unsupported => write!(f, "client cannot converse"),
        }
    }
}

impl std::error::Error for ConvError {}

/// The conversation function.
pub trait Conversation: Send {
    /// Deliver `prompt`; return the user's input (empty string for
    /// no-input prompts, where the return value is ignored).
    fn converse(&mut self, prompt: &Prompt) -> Result<String, ConvError>;
}

/// One transcript record from a [`ScriptedConversation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// The prompt shown.
    pub prompt: Prompt,
    /// The reply given (None for info/error prompts).
    pub reply: Option<String>,
}

/// A test/simulation conversation: canned answers plus a transcript.
///
/// Answers are consumed in order by input-wanting prompts; info prompts
/// auto-acknowledge. Running out of answers aborts, modeling a user who
/// gives up (or a scripted client that cannot answer).
pub struct ScriptedConversation {
    answers: VecDeque<String>,
    transcript: Arc<Mutex<Vec<TranscriptEntry>>>,
    /// When true, every prompt fails with `Unsupported` — a pure batch
    /// client.
    refuse_all: bool,
}

impl ScriptedConversation {
    /// Conversation that will answer with `answers` in order.
    pub fn with_answers(answers: impl IntoIterator<Item = impl Into<String>>) -> Self {
        ScriptedConversation {
            answers: answers.into_iter().map(Into::into).collect(),
            transcript: Arc::new(Mutex::new(Vec::new())),
            refuse_all: false,
        }
    }

    /// A client with no keyboard-interactive support.
    #[cfg(test)]
    pub(crate) fn refusing() -> Self {
        ScriptedConversation {
            answers: VecDeque::new(),
            transcript: Arc::new(Mutex::new(Vec::new())),
            refuse_all: true,
        }
    }

    /// Shared handle to the transcript (inspect after the stack runs).
    pub fn transcript(&self) -> Arc<Mutex<Vec<TranscriptEntry>>> {
        Arc::clone(&self.transcript)
    }
}

impl Conversation for ScriptedConversation {
    fn converse(&mut self, prompt: &Prompt) -> Result<String, ConvError> {
        if self.refuse_all {
            return Err(ConvError::Unsupported);
        }
        let reply = if prompt.wants_input() {
            match self.answers.pop_front() {
                Some(a) => a,
                None => {
                    self.transcript.lock().push(TranscriptEntry {
                        prompt: prompt.clone(),
                        reply: None,
                    });
                    return Err(ConvError::Aborted);
                }
            }
        } else {
            String::new()
        };
        self.transcript.lock().push(TranscriptEntry {
            prompt: prompt.clone(),
            reply: prompt.wants_input().then(|| reply.clone()),
        });
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_answers_in_order() {
        let mut conv = ScriptedConversation::with_answers(["first", "second"]);
        assert_eq!(
            conv.converse(&Prompt::EchoOff("Password:".into())).unwrap(),
            "first"
        );
        assert_eq!(
            conv.converse(&Prompt::EchoOff("TACC Token:".into()))
                .unwrap(),
            "second"
        );
        assert_eq!(
            conv.converse(&Prompt::EchoOff("More:".into())),
            Err(ConvError::Aborted)
        );
    }

    #[test]
    fn info_prompts_do_not_consume_answers() {
        let mut conv = ScriptedConversation::with_answers(["only"]);
        conv.converse(&Prompt::Info("MFA is coming".into()))
            .unwrap();
        assert_eq!(
            conv.converse(&Prompt::EchoOn("Ack:".into())).unwrap(),
            "only"
        );
    }

    #[test]
    fn refusing_client() {
        let mut conv = ScriptedConversation::refusing();
        assert_eq!(
            conv.converse(&Prompt::Info("hello".into())),
            Err(ConvError::Unsupported)
        );
    }

    #[test]
    fn transcript_records_everything() {
        let mut conv = ScriptedConversation::with_answers(["123456"]);
        let transcript = conv.transcript();
        conv.converse(&Prompt::Info("notice".into())).unwrap();
        conv.converse(&Prompt::EchoOff("TACC Token:".into()))
            .unwrap();
        let t = transcript.lock();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].reply, None);
        assert_eq!(t[1].reply.as_deref(), Some("123456"));
        assert_eq!(t[0].prompt.text(), "notice");
        assert_eq!(t[1].prompt.text(), "TACC Token:");
    }

    #[test]
    fn prompt_accessors() {
        assert!(Prompt::EchoOn("x".into()).wants_input());
        assert!(Prompt::EchoOff("x".into()).wants_input());
        assert!(!Prompt::Info("x".into()).wants_input());
        assert!(!Prompt::ErrorMsg("x".into()).wants_input());
        assert_eq!(Prompt::Info("msg".into()).text(), "msg");
    }
}
