//! Workload definitions and the seeded login-script generator.
//!
//! Nothing here touches the system under test: a script is a sequence
//! of `(user, kind, pass)` triples, and the client loops turn each into
//! datagrams or an ssh connection.

/// Enrolled soft-token users.
pub const USERS: u32 = 2048;

/// Consecutive non-accepted logins after which the generator forces a
/// valid one for that user. The server locks an account at 20.
pub const STREAK_CAP: u8 = 8;

/// One workload: which stack is driven and with what traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// WAL through the pinned device (else a volatile store).
    pub durable: bool,
    /// Logins the client keeps in flight on its socket.
    pub in_flight: usize,
    /// Drive `SshDaemon::connect` instead of raw datagrams.
    pub ssh: bool,
    pub mix: Mix,
    /// Logins per segment of the timed phase, frozen at the seed commit.
    /// Never derived from the clock at run time: equal work per segment
    /// is what makes segment rates comparable. On the two workloads whose
    /// time is the CPU's a segment is short (1 ms, 3 ms), to fit in the
    /// gaps a busy neighbour leaves. On the two whose time is the
    /// device's and compaction's it is a whole number of compaction
    /// periods (one snapshot per 128 logins), so that none dodges one.
    pub segment_logins: u64,
}

/// Traffic mix in parts per thousand of all logins; the rest are valid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    pub wrong_per_mille: u32,
    pub replay_per_mille: u32,
}

const ALL_VALID: Mix = Mix {
    wrong_per_mille: 0,
    replay_per_mille: 0,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_volatile",
        durable: false,
        in_flight: 1,
        ssh: false,
        mix: Mix {
            wrong_per_mille: 100,
            replay_per_mille: 50,
        },
        segment_logins: 20,
    },
    Workload {
        name: "wire_durable",
        durable: true,
        in_flight: 1,
        ssh: false,
        mix: ALL_VALID,
        segment_logins: 128,
    },
    Workload {
        name: "storm_durable",
        durable: true,
        in_flight: 64,
        ssh: false,
        mix: ALL_VALID,
        segment_logins: 512,
    },
    Workload {
        name: "ssh_full",
        durable: true,
        in_flight: 1,
        ssh: true,
        mix: ALL_VALID,
        segment_logins: 4,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// What the generator asks for, and so the verdict it expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The code of this pass's time step: accept.
    Valid,
    /// A code outside the whole drift window: reject after a full scan.
    Wrong,
    /// The code this user was just accepted with: reject as a replay.
    Replay,
}

/// One scripted login.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Login {
    pub user: u32,
    pub kind: Kind,
    /// Pass over the population; the user's token shows the code of
    /// time step `pass` (30 s apart), so every valid code is fresh.
    pub pass: u64,
}

/// SplitMix64: the generator's only source of randomness.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform draw in `0..n` (n > 0); bias is below 2^-32 for n < 2^32.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Logins after which a script under `mix` is again at the start of a
/// mix period and, where every login is a visit (an all-valid mix, the
/// only kind that walks the directory), of a pair of users.
pub fn script_period(mix: Mix) -> u64 {
    let period = mix_period(mix);
    period * (1 + period % 2)
}

/// What a visit to a user produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Visit {
    Valid,
    /// A valid login followed at once by its replay: two logins.
    ValidThenReplay,
    Wrong,
}

/// Logins after which `mix` repeats: the fewest that hold whole numbers
/// of wrong codes and replays. Any that many consecutive logins of a
/// script hold the same kinds, so a segment that is a multiple of it
/// does the same work as every other (1 for an all-valid mix).
pub fn mix_period(mix: Mix) -> u64 {
    fn gcd(a: u32, b: u32) -> u32 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    u64::from(1000 / gcd(gcd(mix.wrong_per_mille, mix.replay_per_mille), 1000))
}

/// The client's endless login script: passes over the population in a
/// seeded order, each visit's kind taken from a seeded pattern that
/// repeats every [`mix_period`] logins.
///
/// Users come in pairs `(u, USERS - 1 - u)`: the repository's directory
/// search is linear in a user's position, so two logins of a pair cost
/// what any other pair's do, and a segment of whole pairs does the same
/// work as every other.
pub struct Script {
    users: Vec<u32>,
    pos: usize,
    pass: u64,
    pattern: Vec<Visit>,
    /// Next visit's place in `pattern`.
    slot: usize,
    /// Consecutive non-accepted logins per user (indexed like `users`).
    streak: Vec<u8>,
    pending_replay: Option<u32>,
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

impl Script {
    pub fn new(seed: u64, mix: Mix) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xa076_1d64_78bd_642f);
        let mut firsts: Vec<u32> = (0..USERS / 2).collect();
        shuffle(&mut firsts, &mut rng);
        let users: Vec<u32> = firsts.iter().flat_map(|u| [*u, USERS - 1 - *u]).collect();

        // A replay is an extra login after a valid visit, so a period of
        // `period` logins is `period - replays` visits.
        let period = mix_period(mix) as usize;
        let wrong = mix.wrong_per_mille as usize * period / 1000;
        let replays = mix.replay_per_mille as usize * period / 1000;
        assert!(
            wrong + 2 * replays <= period,
            "every replay needs a valid login"
        );
        let mut pattern = vec![Visit::Wrong; wrong];
        pattern.extend(vec![Visit::ValidThenReplay; replays]);
        pattern.extend(vec![Visit::Valid; period - wrong - 2 * replays]);
        shuffle(&mut pattern, &mut rng);
        Script {
            streak: vec![0; users.len()],
            users,
            pos: 0,
            pass: 0,
            pattern,
            slot: 0,
            pending_replay: None,
        }
    }

    /// Abandon the current pass and the `passes` after it, which the
    /// caller uses up by other means; returns those passes. The script
    /// goes on from the start of the pass that follows them, and of the
    /// pattern.
    pub fn reserve_passes(&mut self, passes: u64) -> std::ops::Range<u64> {
        let reserved = self.pass + 1..self.pass + 1 + passes;
        self.pass = reserved.end;
        self.pos = 0;
        self.slot = 0;
        self.pending_replay = None;
        reserved
    }
}

impl Iterator for Script {
    type Item = Login;

    fn next(&mut self) -> Option<Login> {
        if let Some(user) = self.pending_replay.take() {
            return Some(Login {
                user,
                kind: Kind::Replay,
                pass: self.pass,
            });
        }
        if self.pos == self.users.len() {
            self.pos = 0;
            self.pass += 1;
        }
        let at = self.pos;
        self.pos += 1;
        let user = self.users[at];
        let visit = self.pattern[self.slot];
        self.slot = (self.slot + 1) % self.pattern.len();
        let capped = self.streak[at] >= STREAK_CAP;
        let kind = match visit {
            Visit::Wrong if !capped => {
                self.streak[at] += 1;
                Kind::Wrong
            }
            Visit::ValidThenReplay if !capped => {
                self.streak[at] = 1;
                self.pending_replay = Some(user);
                Kind::Valid
            }
            _ => {
                self.streak[at] = 0;
                Kind::Valid
            }
        };
        Some(Login {
            user,
            kind,
            pass: self.pass,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = WORKLOADS[0].mix;

    #[test]
    fn same_seed_same_script() {
        let a: Vec<Login> = Script::new(15, MIX).take(5000).collect();
        let b: Vec<Login> = Script::new(15, MIX).take(5000).collect();
        assert_eq!(a, b);
        let other_seed: Vec<Login> = Script::new(16, MIX).take(5000).collect();
        assert_ne!(a, other_seed);
    }

    #[test]
    fn a_pass_visits_every_user_once() {
        let mut seen = vec![0u32; USERS as usize];
        for login in Script::new(3, ALL_VALID).take(USERS as usize) {
            assert_eq!(login.pass, 0);
            assert_eq!(login.kind, Kind::Valid);
            seen[login.user as usize] += 1;
        }
        assert!(seen.iter().all(|n| *n == 1), "every user once per pass");
    }

    #[test]
    fn any_period_of_logins_holds_exactly_the_mix() {
        assert_eq!(mix_period(MIX), 20);
        assert_eq!(mix_period(ALL_VALID), 1);
        let script: Vec<Login> = Script::new(15, MIX).take(50_000).collect();
        // Whatever the offset, pass boundaries included.
        for window in script.windows(20) {
            let count = |kind| window.iter().filter(|l| l.kind == kind).count();
            assert_eq!(
                (count(Kind::Valid), count(Kind::Wrong), count(Kind::Replay)),
                (17, 2, 1)
            );
        }
        assert_eq!(script_period(MIX), 20);
        assert_eq!(script_period(ALL_VALID), 2);
        for w in WORKLOADS {
            assert_eq!(w.segment_logins % script_period(w.mix), 0, "{}", w.name);
        }
    }

    #[test]
    fn users_come_in_pairs_that_cost_the_same() {
        let script: Vec<Login> = Script::new(8, ALL_VALID).take(3 * USERS as usize).collect();
        for pair in script.chunks(2) {
            assert_eq!(pair[0].user + pair[1].user, USERS - 1);
            assert_eq!(pair[0].pass, pair[1].pass);
        }
    }

    #[test]
    fn replay_follows_its_own_valid_login() {
        let script: Vec<Login> = Script::new(9, MIX).take(50_000).collect();
        for pair in script.windows(2) {
            if pair[1].kind == Kind::Replay {
                assert_eq!(pair[0].kind, Kind::Valid);
                assert_eq!(pair[0].user, pair[1].user);
                assert_eq!(pair[0].pass, pair[1].pass);
            }
        }
    }

    #[test]
    fn a_wrong_code_streak_never_reaches_the_lockout_threshold() {
        // Worst case: a mix that asks for nothing but wrong codes.
        let hostile = Mix {
            wrong_per_mille: 999,
            replay_per_mille: 0,
        };
        let mut fails = vec![0u32; USERS as usize];
        for login in Script::new(1, hostile).take(300_000) {
            let f = &mut fails[login.user as usize];
            match login.kind {
                Kind::Valid => *f = 0,
                Kind::Wrong | Kind::Replay => *f += 1,
            }
            assert!(*f <= u32::from(STREAK_CAP), "user {} at {f}", login.user);
        }
        assert!(u32::from(STREAK_CAP) < 20);
    }

    #[test]
    fn passes_advance_once_per_population_sweep() {
        let per_pass = USERS as usize;
        let script: Vec<Login> = Script::new(4, ALL_VALID).take(per_pass * 3).collect();
        assert_eq!(script[per_pass - 1].pass, 0);
        assert_eq!(script[per_pass].pass, 1);
        assert_eq!(script[per_pass * 3 - 1].pass, 2);
    }

    #[test]
    fn reserved_passes_are_left_out_of_the_script() {
        let mut script = Script::new(4, MIX);
        assert_eq!(script.next().map(|l| l.pass), Some(0));
        assert_eq!(script.reserve_passes(8), 1..9);
        let after: Vec<Login> = script.by_ref().take(USERS as usize).collect();
        assert!(after.iter().all(|l| l.pass == 9));
        assert_ne!(
            after[0].kind,
            Kind::Replay,
            "no replay of an abandoned login"
        );
        assert_eq!(script.reserve_passes(0), 10..10);
        assert_eq!(script.next().map(|l| l.pass), Some(10));
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
    }
}
