//! The SMS gateway: a Twilio-substitute with the paper's cost model and a
//! carrier-delay model.
//!
//! §3.3: "Twilio provides SMS text messaging services for a flat rate of $1
//! per month plus each US-based text message costs an additional $0.0075."
//! §5: "In a handful of cases, an SMS text message will arrive delayed.
//! Logs indicate that the user's network carrier had failed to deliver the
//! message until subsequent retries delivered the token code in an expired
//! state." Both behaviours are reproduced here deterministically.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Costs are tracked in micro-dollars to stay in integer arithmetic.
pub(crate) const USD: u64 = 1_000_000;

/// Per-message cost for US numbers: $0.0075.
pub(crate) const US_MSG_COST_MICROS: u64 = 7_500;

/// Per-message cost for international numbers (higher, §3.3 "International
/// text messaging services can also be provided but cost more"); modeled at
/// $0.05.
pub(crate) const INTL_MSG_COST_MICROS: u64 = 50_000;

/// Monthly flat fee: $1.
pub(crate) const MONTHLY_FEE_MICROS: u64 = USD;

/// A phone number; US numbers are ten digits (§3.5: "a ten-digit, US-based
/// phone number").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhoneNumber(String);

/// Errors constructing a phone number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhoneError {
    /// Not a recognized format.
    Invalid(String),
}

impl std::fmt::Display for PhoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhoneError::Invalid(s) => write!(f, "invalid phone number: {s}"),
        }
    }
}

impl std::error::Error for PhoneError {}

impl PhoneNumber {
    /// Parse a number: ten digits = US; `+` followed by 8–15 digits =
    /// international.
    pub fn parse(s: &str) -> Result<Self, PhoneError> {
        let digits = |t: &str| t.bytes().all(|b| b.is_ascii_digit());
        if s.len() == 10 && digits(s) {
            return Ok(PhoneNumber(s.to_string()));
        }
        if let Some(rest) = s.strip_prefix('+') {
            if (8..=15).contains(&rest.len()) && digits(rest) {
                return Ok(PhoneNumber(s.to_string()));
            }
        }
        Err(PhoneError::Invalid(s.to_string()))
    }

    /// Whether this is a US-based number.
    pub(crate) fn is_us(&self) -> bool {
        !self.0.starts_with('+') || self.0.starts_with("+1")
    }

    /// The canonical string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// One sent message and its (simulated) delivery fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmsMessage {
    /// Destination.
    pub to: PhoneNumber,
    /// Message body (contains the token code).
    pub body: String,
    /// Unix time the provider accepted the message.
    pub sent_at: u64,
    /// Unix time the carrier actually delivers it.
    pub deliver_at: u64,
    /// Cost charged, in micro-dollars.
    pub cost_micros: u64,
}

impl SmsMessage {
    /// Whether the carrier has delivered by `now`.
    pub(crate) fn delivered_by(&self, now: u64) -> bool {
        now >= self.deliver_at
    }
}

/// An SMS provider (Twilio in production).
pub trait SmsProvider: Send + Sync {
    /// Send `body` to `to` at time `now`; returns the accepted message.
    fn send(&self, to: &PhoneNumber, body: &str, now: u64) -> SmsMessage;

    /// Messages delivered to `to` by time `now` (what the user's phone
    /// shows).
    fn inbox(&self, to: &PhoneNumber, now: u64) -> Vec<SmsMessage>;

    /// Total charges so far, in micro-dollars, including monthly fees for
    /// `months` of service.
    fn total_cost_micros(&self, months: u64) -> u64;
}

/// Tuning for the simulated carrier network.
#[derive(Debug, Clone)]
pub(crate) struct CarrierModel {
    /// Fast-path delivery latency range, seconds.
    pub fast_latency: (u64, u64),
    /// Probability a message takes the slow carrier-retry path.
    pub delayed_prob: f64,
    /// Slow-path latency range, seconds — beyond code validity, so these
    /// arrive expired, as the paper observed.
    pub slow_latency: (u64, u64),
}

impl Default for CarrierModel {
    fn default() -> Self {
        CarrierModel {
            fast_latency: (2, 9),
            delayed_prob: 0.01,
            slow_latency: (400, 900),
        }
    }
}

struct TwilioState {
    rng: StdRng,
    outbox: Vec<SmsMessage>,
    message_cost_total: u64,
}

/// The Twilio-substitute provider. Deterministic for a fixed seed.
pub struct TwilioSim {
    model: CarrierModel,
    state: Mutex<TwilioState>,
}

impl TwilioSim {
    /// Create with the default carrier model.
    pub fn new(seed: u64) -> Arc<Self> {
        Self::with_model(seed, CarrierModel::default())
    }

    /// Create with a custom carrier model.
    pub(crate) fn with_model(seed: u64, model: CarrierModel) -> Arc<Self> {
        Arc::new(TwilioSim {
            model,
            state: Mutex::new(TwilioState {
                rng: StdRng::seed_from_u64(seed),
                outbox: Vec::new(),
                message_cost_total: 0,
            }),
        })
    }

    /// Number of messages accepted so far.
    pub fn sent_count(&self) -> usize {
        self.state.lock().outbox.len()
    }
}

impl SmsProvider for TwilioSim {
    fn send(&self, to: &PhoneNumber, body: &str, now: u64) -> SmsMessage {
        let mut st = self.state.lock();
        let latency = if st.rng.random_bool(self.model.delayed_prob) {
            st.rng
                .random_range(self.model.slow_latency.0..=self.model.slow_latency.1)
        } else {
            st.rng
                .random_range(self.model.fast_latency.0..=self.model.fast_latency.1)
        };
        let cost = if to.is_us() {
            US_MSG_COST_MICROS
        } else {
            INTL_MSG_COST_MICROS
        };
        let msg = SmsMessage {
            to: to.clone(),
            body: body.to_string(),
            sent_at: now,
            deliver_at: now + latency,
            cost_micros: cost,
        };
        st.message_cost_total += cost;
        st.outbox.push(msg.clone());
        msg
    }

    fn inbox(&self, to: &PhoneNumber, now: u64) -> Vec<SmsMessage> {
        self.state
            .lock()
            .outbox
            .iter()
            .filter(|m| &m.to == to && m.delivered_by(now))
            .cloned()
            .collect()
    }

    fn total_cost_micros(&self, months: u64) -> u64 {
        self.state.lock().message_cost_total + months * MONTHLY_FEE_MICROS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us_phone() -> PhoneNumber {
        PhoneNumber::parse("5125551234").unwrap()
    }

    #[test]
    fn phone_parsing() {
        assert!(PhoneNumber::parse("5125551234").unwrap().is_us());
        assert!(PhoneNumber::parse("+15125551234").unwrap().is_us());
        assert!(!PhoneNumber::parse("+4915112345678").unwrap().is_us());
        assert!(PhoneNumber::parse("123").is_err());
        assert!(PhoneNumber::parse("512555123a").is_err());
        assert!(PhoneNumber::parse("51255512345").is_err()); // 11 digits, no '+'
        assert!(PhoneNumber::parse("+12").is_err());
    }

    #[test]
    fn send_and_receive() {
        let twilio = TwilioSim::new(1);
        let msg = twilio.send(&us_phone(), "Your TACC token code is 123456", 1000);
        assert_eq!(msg.cost_micros, US_MSG_COST_MICROS);
        assert!(msg.deliver_at > msg.sent_at);
        // Before delivery: inbox empty. After: message present.
        assert!(twilio.inbox(&us_phone(), msg.sent_at).is_empty());
        let inbox = twilio.inbox(&us_phone(), msg.deliver_at);
        assert_eq!(inbox.len(), 1);
        assert!(inbox[0].body.contains("123456"));
    }

    #[test]
    fn international_costs_more() {
        let twilio = TwilioSim::new(2);
        let de = PhoneNumber::parse("+4915112345678").unwrap();
        let msg = twilio.send(&de, "code", 0);
        assert_eq!(msg.cost_micros, INTL_MSG_COST_MICROS);
    }

    #[test]
    fn cost_model_matches_paper() {
        let twilio = TwilioSim::new(3);
        for i in 0..1000 {
            twilio.send(&us_phone(), "code", i);
        }
        // 1000 messages × $0.0075 + 1 month × $1 = $8.50.
        assert_eq!(twilio.total_cost_micros(1), 8_500_000);
    }

    #[test]
    fn delayed_fraction_near_model() {
        let model = CarrierModel {
            delayed_prob: 0.05,
            ..CarrierModel::default()
        };
        let twilio = TwilioSim::with_model(4, model);
        for i in 0..10_000 {
            twilio.send(&us_phone(), "code", i);
        }
        let delayed = (twilio.state.lock().outbox.iter())
            .filter(|m| m.deliver_at - m.sent_at > 300)
            .count();
        // 5% ± generous slack for a seeded RNG.
        assert!((300..=700).contains(&delayed), "delayed={delayed}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = TwilioSim::new(7);
        let b = TwilioSim::new(7);
        for i in 0..50 {
            assert_eq!(
                a.send(&us_phone(), "x", i).deliver_at,
                b.send(&us_phone(), "x", i).deliver_at
            );
        }
    }

    #[test]
    fn inbox_filters_by_recipient() {
        let twilio = TwilioSim::new(8);
        let other = PhoneNumber::parse("5125550000").unwrap();
        twilio.send(&us_phone(), "mine", 0);
        twilio.send(&other, "theirs", 0);
        let inbox = twilio.inbox(&us_phone(), 10_000);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].body, "mine");
    }
}
