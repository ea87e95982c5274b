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
use std::collections::HashMap;
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
    /// The token code the body carries: its last word, what the user
    /// types.
    pub fn code(&self) -> &str {
        self.body.rsplit(' ').next().unwrap_or_default()
    }

    /// Whether the carrier has delivered by `now`.
    fn delivered_by(&self, now: u64) -> bool {
        now >= self.deliver_at
    }
}

/// An SMS provider (Twilio in production).
pub trait SmsProvider: Send + Sync {
    /// Send `body` to `to` at time `now`; returns the accepted message.
    fn send(&self, to: &PhoneNumber, body: &str, now: u64) -> SmsMessage;

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
    /// Every accepted message, by recipient, each phone's in send order.
    outbox: HashMap<PhoneNumber, Vec<SmsMessage>>,
    sent: usize,
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
                outbox: HashMap::new(),
                sent: 0,
                message_cost_total: 0,
            }),
        })
    }

    /// Number of messages accepted so far.
    pub fn sent_count(&self) -> usize {
        self.state.lock().sent
    }

    /// The newest message delivered to `to` by time `now`: the text a
    /// user reads the code from. Visits only `to`'s own messages, newest
    /// first.
    pub fn latest_delivered(&self, to: &PhoneNumber, now: u64) -> Option<SmsMessage> {
        let st = self.state.lock();
        st.outbox
            .get(to)?
            .iter()
            .rev()
            .find(|m| {
                #[cfg(test)]
                tests::VISITED.with(|n| n.set(n.get() + 1));
                m.delivered_by(now)
            })
            .cloned()
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
        st.sent += 1;
        st.outbox.entry(to.clone()).or_default().push(msg.clone());
        msg
    }

    fn total_cost_micros(&self, months: u64) -> u64 {
        self.state.lock().message_cost_total + months * MONTHLY_FEE_MICROS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

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
        // Before delivery: nothing to read. After: the message.
        assert_eq!(twilio.latest_delivered(&us_phone(), msg.sent_at), None);
        let read = twilio.latest_delivered(&us_phone(), msg.deliver_at);
        assert_eq!(read, Some(msg));
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
        let delayed = (twilio.state.lock().outbox.values().flatten())
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
    fn latest_delivered_filters_by_recipient() {
        let twilio = TwilioSim::new(8);
        let other = PhoneNumber::parse("5125550000").unwrap();
        twilio.send(&us_phone(), "mine", 0);
        twilio.send(&other, "theirs", 0);
        let read = twilio.latest_delivered(&us_phone(), 10_000).unwrap();
        assert_eq!(read.body, "mine");
        let stranger = PhoneNumber::parse("5125559999").unwrap();
        assert_eq!(twilio.latest_delivered(&stranger, 10_000), None);
    }

    #[test]
    fn latest_delivered_skips_a_newer_text_still_in_flight() {
        let twilio = TwilioSim::new(9);
        let first = twilio.send(&us_phone(), "first", 0);
        let second = twilio.send(&us_phone(), "second", first.deliver_at);
        assert!(second.deliver_at > first.deliver_at);
        let read = |now| twilio.latest_delivered(&us_phone(), now).map(|m| m.body);
        assert_eq!(read(first.deliver_at).as_deref(), Some("first"));
        assert_eq!(read(second.deliver_at).as_deref(), Some("second"));
    }

    thread_local! {
        /// Outbox rows `latest_delivered` has visited on this thread.
        pub(super) static VISITED: Cell<u64> = const { Cell::new(0) };
    }

    /// A read's cost is its own phone's messages, not the gateway's: the
    /// whole population's texts share one outbox, and every SMS login
    /// reads it.
    #[test]
    fn a_read_visits_only_its_own_phones_messages() {
        let twilio = TwilioSim::new(10);
        for i in 0..5_000u64 {
            let other = PhoneNumber::parse(&format!("51255{:05}", i % 1_000)).unwrap();
            twilio.send(&other, "someone else's code 000000", i);
        }
        let mine = PhoneNumber::parse("7375550100").unwrap();
        for i in 0..3 {
            twilio.send(&mine, &format!("code 00000{i}"), 10_000 + i);
        }
        let before = VISITED.with(Cell::get);
        let read = twilio.latest_delivered(&mine, 20_000).unwrap();
        assert_eq!(read.body, "code 000002");
        let visited = VISITED.with(Cell::get) - before;
        assert!((1..=3).contains(&visited), "visited {visited} rows");
    }
}
