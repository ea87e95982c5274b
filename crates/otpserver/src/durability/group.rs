//! Group commit and the compactor fence as one pure state machine.
//!
//! [`GroupMachine`] holds every rule of the durable commit path; the
//! [`Persistence`](super::Persistence) pump only carries out what it says.
//! It owns no lock, clock, backend or I/O, so the test module below can run
//! every interleaving of its calls.

use std::collections::VecDeque;

/// The group-commit and fence state of one pump, and every rule over it.
///
/// **Who leads, who waits, who parks.** Commits are numbered from 1 in
/// append order ([`GroupMachine::append`]), so sequence order is WAL byte
/// order. A caller after a commit's verdict ([`Goal::Verdict`]) finds
/// either no sync in flight — it leads one ([`Step::Lead`]) covering every
/// commit appended so far — or one in flight, and then it waits
/// ([`Step::Wait`]), or parks the commit with a payload
/// ([`GroupMachine::park`]) and leaves. `failed` is checked before
/// `settled`: a commit that slept through a failed sync and then a good
/// one is still denied.
///
/// **Who releases.** A parked commit's payload comes back as
/// [`Step::Release`] once its verdict is in, to the one caller holding the
/// release turn: the first to find the turn free and something due, which
/// keeps it until nothing is. So a finish that commits (a denial row)
/// settles its own commit without recursing into another round of
/// finishes, and a finish that panics strands no other: its caller asks
/// on to its goal before it unwinds. A caller with a verdict lets go of
/// the lock once ([`Step::Again`]) before it asks for the turn, so that a
/// sync's leader, which holds fresh work, leaves the finishes to the
/// callers its sync woke.
///
/// **Rows in sequence order.** A durable commit's audit rows enter the
/// ring in the window between its verdict and its caller's next call
/// ([`Step::Again`] for a caller settling inline, [`Step::Release`] for a
/// parked commit, whose finish pushes them): so a durable verdict on
/// commit `seq` is handed out only once every commit before it was told
/// durable and came back, or was denied. A caller whose verdict is in but
/// whose turn has not come runs the parked finishes ahead of it, or waits.
/// The one exception is [`Goal::Denial`]: a parked finish that was denied
/// writes its denial row while it holds the release turn, which the
/// commits before that row may be waiting for, so the row is told as soon
/// as it is durable and its seq is skipped when the others' turn comes.
///
/// **The fence rule.** Every operation holds a pass ([`Goal::Pass`]) from
/// before it takes a store or ledger lock until its audit rows are in the
/// ring; the compactor ([`Goal::Claim`]) and a reload ([`Goal::Quiesce`])
/// close the fence and wait for the passes out to come back. A parked
/// commit's pass has no caller to bring it back, and every caller that
/// could lead its sync may be stuck behind the closed fence — so *whoever
/// waits on the fence leads the syncs and runs the finishes the passes out
/// are waiting for*, and needs nobody else. A claim made from a parked
/// commit's finish is refused: a parked finish never compacts, since it
/// would wait on the fence for passes only its own caller can bring back.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct GroupMachine<P> {
    /// Sequence number of the last commit appended.
    appended: u64,
    /// Every commit up to here has been covered by a finished sync that
    /// began after its append.
    settled: u64,
    /// Every commit up to here that had no verdict when this moved is
    /// denied: its sync failed, or a rollback after a failed append
    /// discarded its bytes.
    failed: u64,
    /// A leader is inside its sync.
    syncing: bool,
    /// Fence passes out, parked commits' included.
    passes: u64,
    /// A compactor or a reload holds the fence: no pass is issued until
    /// it lets go.
    closed: bool,
    /// Parked commits in sequence order, with their payloads.
    parked: VecDeque<(u64, P)>,
    /// A caller holds the release turn.
    releasing: bool,
    /// Every commit up to here that was told durable came back after its
    /// rows were pushed (the denied ones are below `failed`).
    told: u64,
    /// Denial rows told out of turn, above `told`, in sequence order.
    early: VecDeque<u64>,
    /// A commit told durable has not come back yet: no other is told
    /// durable meanwhile, even if a rollback moved `failed` past it.
    pushing: bool,
}

impl<P> Default for GroupMachine<P> {
    fn default() -> Self {
        GroupMachine {
            appended: 0,
            settled: 0,
            failed: 0,
            syncing: false,
            passes: 0,
            closed: false,
            parked: VecDeque::new(),
            releasing: false,
            told: 0,
            early: VecDeque::new(),
            pushing: false,
        }
    }
}

/// What a caller wants from [`GroupMachine::next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Goal {
    /// A pass through the fence.
    Pass,
    /// The verdict on commit `seq`, in its turn, then the parked finishes
    /// it made due if nobody else is running them.
    Verdict(u64),
    /// The same for a denial row a parked finish writes, told out of turn.
    Denial(u64),
    /// Parked commit `seq` covered by a sync, then the parked finishes it
    /// made due if nobody else is running them.
    Drive(u64),
    /// The fence closed with every pass back.
    Quiesce,
    /// The same, if a compaction is `due`, nobody holds the fence and
    /// the claim is not made `from_finish`.
    Claim { due: bool, from_finish: bool },
}

/// One caller's side of a conversation with the machine: its goal, the
/// sync it was told to lead, and what it has won.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Actor {
    goal: Goal,
    /// The end of the sync it leads, and whether that sync went well.
    sync: Option<(u64, bool)>,
    verdict: Option<bool>,
    /// Was told commit `seq` durable: its rows go in before it asks again.
    pushing: Option<u64>,
    /// Holds the release turn.
    turn: bool,
    /// Holds the fence.
    fence: bool,
}

impl Actor {
    pub(crate) fn new(goal: Goal) -> Self {
        Actor {
            goal,
            sync: None,
            verdict: None,
            pushing: None,
            turn: false,
            fence: false,
        }
    }

    /// How the sync it was told to lead went.
    pub(crate) fn report(&mut self, ok: bool) {
        if let Some((_, went)) = &mut self.sync {
            *went = ok;
        }
    }

    /// Whether the actor holds the fence it asked for.
    pub(crate) fn holds_fence(&self) -> bool {
        self.fence
    }
}

/// What [`GroupMachine::next`] tells its caller to do.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step<P> {
    /// Sync the WAL without the lock, [`Actor::report`] how it went, ask
    /// again.
    Lead,
    /// Wait for a wake-up, then ask again.
    Wait,
    /// The verdict is in (`durable`): let go of the lock, push the
    /// commit's rows if it is durable, then ask again.
    Again(bool),
    /// Run this parked commit's finish with its verdict (`durable`)
    /// without the lock — it pushes the commit's rows — then ask again.
    Release(bool, P),
    /// The goal is reached.
    Done,
}

impl<P> GroupMachine<P> {
    /// Whether a verdict on commit `seq` exists yet.
    fn covers(&self, seq: u64) -> bool {
        seq <= self.settled.max(self.failed)
    }

    /// Whether commit `seq`'s verdict may be handed out: it is denied, or
    /// every commit before it is through.
    fn in_turn(&self, seq: u64) -> bool {
        seq <= self.failed || (!self.pushing && seq <= self.told.max(self.failed) + 1)
    }

    /// Whether parked commit `seq` can be released now.
    fn due(&self, seq: u64) -> bool {
        self.covers(seq) && self.in_turn(seq)
    }

    /// Move `told` over the denial rows told out of turn that it reached.
    fn absorb(&mut self) {
        while let Some(&seq) = self.early.front() {
            if seq > self.told.max(self.failed) + 1 {
                break;
            }
            self.told = self.told.max(seq);
            self.early.pop_front();
        }
    }

    /// A commit was handed to the backend (`ok`) or refused. Returns its
    /// sequence number; a refused commit gets one already denied.
    pub(crate) fn append(&mut self, ok: bool) -> u64 {
        if ok {
            self.appended += 1;
        } else {
            // The backend's rollback discards every unsynced byte, not
            // only this commit's, so whatever has no verdict yet is gone
            // (a sync in flight may or may not have beaten it).
            self.failed = self.appended;
        }
        self.appended
    }

    /// Whether a verdict on `seq` would wait for a sync somebody else is
    /// running: the case [`GroupMachine::park`] takes.
    pub(crate) fn would_wait(&self, seq: u64) -> bool {
        self.syncing && !self.covers(seq)
    }

    /// Leave `payload` for the release of commit `seq`, or give it back
    /// when there is nothing to wait behind.
    pub(crate) fn park(&mut self, seq: u64, payload: P) -> Result<(), P> {
        if !self.would_wait(seq) {
            return Err(payload);
        }
        // Commits are parked outside the lock they were appended under,
        // so not quite in order.
        let at = self.parked.iter().rposition(|(s, _)| *s < seq);
        self.parked.insert(at.map_or(0, |i| i + 1), (seq, payload));
        Ok(())
    }

    /// A pass came back. Whether to wake the waiters: the last one out
    /// of a closed fence is what its holder waits for.
    pub(crate) fn return_pass(&mut self) -> bool {
        self.passes -= 1;
        self.closed && self.passes == 0
    }

    /// The fence holder lets go (waiters must be woken).
    pub(crate) fn open_fence(&mut self) {
        self.closed = false;
    }

    /// Take in how the sync `actor` led went, and say what it does next.
    /// The flag says whether to wake the waiters.
    pub(crate) fn next(&mut self, actor: &mut Actor) -> (Step<P>, bool) {
        let synced = actor.sync.take();
        if let Some((end, ok)) = synced {
            self.syncing = false;
            self.settled = end;
            if !ok {
                self.failed = self.failed.max(end);
            }
        }
        let (told, pushed) = (self.told, actor.pushing.take());
        if let Some(seq) = pushed {
            self.pushing = false;
            self.told = self.told.max(seq);
            self.absorb();
        }
        let step = self.decide(actor);
        // A push that ended, or a turn a denial row moved on, wakes the
        // callers waiting for theirs.
        let wake = synced.is_some() || pushed.is_some() || self.told != told;
        (step, wake)
    }

    fn decide(&mut self, a: &mut Actor) -> Step<P> {
        match a.goal {
            Goal::Pass if self.closed => Step::Wait,
            Goal::Pass => {
                self.passes += 1;
                Step::Done
            }
            Goal::Verdict(seq) | Goal::Denial(seq) | Goal::Drive(seq) => {
                if a.verdict.is_some() {
                    return self.release(a).unwrap_or(Step::Done);
                }
                let durable = if seq <= self.failed {
                    false
                } else if seq <= self.settled {
                    true
                } else if self.syncing {
                    return Step::Wait;
                } else {
                    return self.lead(a);
                };
                match a.goal {
                    Goal::Verdict(_) if durable && !self.in_turn(seq) => {
                        return self.release(a).unwrap_or(Step::Wait);
                    }
                    Goal::Verdict(_) if durable => {
                        self.pushing = true;
                        a.pushing = Some(seq);
                    }
                    Goal::Denial(_) if durable => {
                        let at = self.early.iter().rposition(|s| *s < seq);
                        self.early.insert(at.map_or(0, |i| i + 1), seq);
                        self.absorb();
                    }
                    _ => {}
                }
                a.verdict = Some(durable);
                Step::Again(durable)
            }
            Goal::Quiesce | Goal::Claim { .. } => {
                if !a.fence {
                    if self.closed {
                        return match a.goal {
                            Goal::Quiesce => Step::Wait,
                            _ => Step::Done,
                        };
                    }
                    if matches!(a.goal, Goal::Claim { due, from_finish } if !due || from_finish) {
                        return Step::Done;
                    }
                    self.closed = true;
                    a.fence = true;
                }
                if let Some(step) = self.release(a) {
                    step
                } else if self.passes == 0 {
                    Step::Done
                } else if self.appended > self.settled && !self.syncing {
                    self.lead(a)
                } else {
                    Step::Wait
                }
            }
        }
    }

    fn lead(&mut self, a: &mut Actor) -> Step<P> {
        self.syncing = true;
        a.sync = Some((self.appended, false));
        Step::Lead
    }

    /// The release turn: taken when it is free and the oldest parked
    /// commit has its verdict and its turn, kept while one does, handed
    /// back when none does.
    fn release(&mut self, a: &mut Actor) -> Option<Step<P>> {
        if self.releasing && !a.turn {
            return None;
        }
        let due = self.parked.front().is_some_and(|(seq, _)| self.due(*seq));
        self.releasing = due;
        a.turn = due;
        let (seq, payload) = if due { self.parked.pop_front() } else { None }?;
        let durable = seq > self.failed;
        if durable {
            self.pushing = true;
            a.pushing = Some(seq);
        }
        Some(Step::Release(durable, payload))
    }
}

#[cfg(test)]
mod tests {
    //! A bounded explorer: every interleaving of up to three threads'
    //! machine calls, each thread running one of the pump's programs (an
    //! inline commit, a parked one, a compaction claim or a reload's
    //! quiesce), with every sync's and every append's outcome and every
    //! finish's panic chosen both ways. It searches breadth-first,
    //! deduplicating on (machine, threads, ghost disk), so the first
    //! counterexample it meets is a shortest one, printed as the script
    //! that reaches it.
    //! After every step it checks:
    //!
    //! 1. no commit is told durable before a sync covering it succeeded;
    //! 2. a failed sync denies every commit it covered that had no verdict
    //!    yet, parked or inline;
    //! 3. the fence never strands a parked commit: a closed fence with
    //!    passes out that needs a sync led or a finish run always has a
    //!    thread that can move and is not idle behind a parked reply;
    //! 4. at most one thread runs parked finishes;
    //! 5. some thread can always move (no lost wake-up), and every run ends
    //!    with every commit told once, every pass back and the fence open;
    //! 6. rows and verdicts are released in seq order: a durable commit's
    //!    rows are pushed after those of every durable commit before it,
    //!    denial rows written by a parked finish excepted, and every
    //!    commit told durable has its rows pushed by the end.

    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::hash::{DefaultHasher, Hash, Hasher};

    /// A thread's next move: one machine call, or work it does with the
    /// lock released.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Op {
        Pass,
        /// Hand the commit to the backend, which accepts or refuses it.
        Append,
        /// Settle the frame's commit inline.
        Settle,
        /// A denied operation writes its denial row: a commit of its own.
        Deny,
        Return,
        WouldWait,
        Park,
        /// The parked reply's `wait`: drive its commit.
        Drive,
        /// The compaction check every operation's end makes.
        Claim,
        Quiesce,
        Open,
        /// A finish starts: it will return, or panic.
        Start,
        Panic,
    }
    use Op::*;

    const INLINE: &[Op] = &[Pass, Append, Settle, Deny, Return];
    const PARKED: &[Op] = &[Pass, Append, WouldWait, Park];
    const INLINE_TAIL: &[Op] = &[Settle, Deny, Return];
    const DRIVE: &[Op] = &[Drive];
    const DENIAL: &[Op] = &[Append, Settle];
    const CLAIM: &[Op] = &[Claim, Open];
    const QUIESCE: &[Op] = &[Quiesce, Open];
    const START: &[Op] = &[Start];
    const FINISH: &[Op] = &[Deny, Return, Claim, Open];
    const FINISH_PANICS: &[Op] = &[Return, Panic];
    const UNWOUND: &[Op] = &[Return];
    const OPEN: &[Op] = &[Open];

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Frame {
        ops: &'static [Op],
        pc: usize,
        /// The frame's commit, an index into `World::commits`.
        commit: Option<usize>,
        verdict: Option<bool>,
        /// A `next` loop in progress.
        actor: Option<Actor>,
        /// A finish its loop ran panicked: it asks on to its goal, then
        /// unwinds.
        unwinding: bool,
    }

    impl Frame {
        fn new(ops: &'static [Op], commit: Option<usize>, verdict: Option<bool>) -> Self {
            Frame {
                ops,
                pc: 0,
                commit,
                verdict,
                actor: None,
                unwinding: false,
            }
        }

        fn op(&self) -> Op {
            self.ops[self.pc]
        }
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Thread {
        stack: Vec<Frame>,
        /// Got `Wait` and has not been woken since.
        blocked: bool,
        /// Its own operation's pass is out.
        holds_pass: bool,
        /// Rollbacks seen when the sync it leads began.
        sync_from: u8,
    }

    impl Thread {
        fn top(&mut self) -> &mut Frame {
            self.stack
                .last_mut()
                .expect("a thread that moves has a frame")
        }

        /// Waiting to drive a parked reply, which the ingest may never do.
        fn idle_parked(&self) -> bool {
            matches!(&self.stack[..], [f] if f.ops == DRIVE && f.actor.is_none())
        }

        fn in_finish(&self) -> bool {
            self.stack
                .iter()
                .any(|f| [START, FINISH, FINISH_PANICS].contains(&f.ops))
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Disk {
        Written,
        Durable,
        Lost,
    }

    /// What the backend holds of a commit, and what its caller was told.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Ghost {
        seq: u64,
        disk: Disk,
        /// A sync covering it failed before it was told anything.
        doomed: bool,
        told: Option<bool>,
        pushed: bool,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct World {
        /// Parked payload: the commit's index.
        machine: GroupMachine<usize>,
        threads: Vec<Thread>,
        commits: Vec<Ghost>,
        rollbacks: u8,
        /// The highest seq whose rows were pushed in turn.
        pushed_to: u64,
    }

    type Checked = Result<(), String>;

    impl World {
        fn new(programs: &[&'static [Op]]) -> Self {
            let thread = |ops| Thread {
                stack: vec![Frame::new(ops, None, None)],
                blocked: false,
                holds_pass: false,
                sync_from: 0,
            };
            World {
                machine: GroupMachine::default(),
                threads: programs.iter().map(|&ops| thread(ops)).collect(),
                commits: Vec::new(),
                rollbacks: 0,
                pushed_to: 0,
            }
        }

        fn runnable(&self, t: usize) -> bool {
            !self.threads[t].blocked && !self.threads[t].stack.is_empty()
        }

        /// How many ways thread `t`'s next move can go.
        fn choices(&self, t: usize) -> usize {
            let f = self.threads[t].stack.last().expect("runnable");
            match &f.actor {
                Some(a) => 1 + a.sync.is_some() as usize,
                None => 1 + matches!(f.op(), Append | Start) as usize,
            }
        }

        fn seq_of(&self, frame: &Frame) -> u64 {
            self.commits[frame.commit.expect("the frame has appended")].seq
        }

        fn wake(&mut self, wake: bool) {
            if wake {
                self.threads.iter_mut().for_each(|th| th.blocked = false);
            }
        }

        fn tell(&mut self, c: usize, durable: bool) -> Checked {
            let g = &mut self.commits[c];
            if g.told.is_some() {
                return Err(format!("commit {c} was told twice"));
            }
            if durable && g.disk != Disk::Durable {
                return Err(format!("(1) commit {c} told durable, on disk {:?}", g.disk));
            }
            if durable && g.doomed {
                return Err(format!("(2) commit {c} told durable after its sync failed"));
            }
            g.told = Some(durable);
            Ok(())
        }

        /// Commit `c`'s rows go into the ring, in turn unless `early`.
        fn push(&mut self, c: usize, early: bool) -> Checked {
            let g = &mut self.commits[c];
            if g.pushed {
                return Err(format!("commit {c} pushed its rows twice"));
            }
            g.pushed = true;
            if early {
                return Ok(());
            }
            if g.seq <= self.pushed_to {
                return Err(format!(
                    "(6) commit {c} (seq {}) pushed after seq {}",
                    g.seq, self.pushed_to
                ));
            }
            self.pushed_to = g.seq;
            Ok(())
        }

        /// Thread `t` makes its next move; `pick` chooses between the
        /// outcomes of an append, a sync or a finish. Returns what it did.
        fn step(&mut self, t: usize, pick: bool) -> Result<String, String> {
            let asking = self.threads[t].top().actor.take();
            let frame = self.threads[t].top().clone();
            let (did, told) = if let Some(mut actor) = asking {
                let mut did = format!("next({:?})", actor.goal);
                let mut pushed = Ok(());
                if frame.op() == Settle && actor.pushing == Some(self.seq_of(&frame)) {
                    // An inline caller pushes its rows before it asks again.
                    pushed = self.push(frame.commit.expect("appended"), false);
                    did = format!("push + {did}");
                }
                if let Some((end, _)) = actor.sync {
                    did = format!(
                        "sync to {end} {} + {did}",
                        if pick { "fails" } else { "ok" }
                    );
                    self.synced(t, end, !pick);
                    actor.report(!pick);
                }
                let (said, told) = self.ask(t, actor);
                (did + &said, pushed.and(told))
            } else {
                let op = frame.op();
                let did = format!("{op:?}");
                let goal = |g| Some(Actor::new(g));
                let started = match op {
                    Pass => goal(Goal::Pass),
                    Settle if self.threads[t].in_finish() => {
                        goal(Goal::Denial(self.seq_of(&frame)))
                    }
                    Settle => goal(Goal::Verdict(self.seq_of(&frame))),
                    Drive => goal(Goal::Drive(self.seq_of(&frame))),
                    Claim => goal(Goal::Claim {
                        due: true,
                        from_finish: self.threads[t].in_finish(),
                    }),
                    Quiesce => goal(Goal::Quiesce),
                    _ => None,
                };
                match started {
                    Some(actor) => {
                        let (said, told) = self.ask(t, actor);
                        (did + &said, told)
                    }
                    None => {
                        let pushed = match (op, frame.verdict, frame.commit) {
                            // A durable parked finish pushes its rows as
                            // its operation drops.
                            (Return, Some(true), Some(c))
                                if [FINISH, FINISH_PANICS].contains(&frame.ops) =>
                            {
                                self.push(c, false)
                            }
                            _ => Ok(()),
                        };
                        (did + &self.simple(t, op, pick), pushed)
                    }
                }
            };
            self.settle_threads();
            let did = format!("t{t} {did}");
            match told.and_then(|()| self.check()) {
                Ok(()) => Ok(did),
                Err(broken) => Err(format!("{did}\n  broken: {broken}")),
            }
        }

        /// One call other than `next`, or work off the lock.
        fn simple(&mut self, t: usize, op: Op, pick: bool) -> String {
            let frame = self.threads[t].top().clone();
            let to = |world: &mut World, ops: &'static [Op], pc: usize| {
                let top = world.threads[t].top();
                top.ops = ops;
                top.pc = pc;
            };
            match op {
                Append => {
                    let seq = self.machine.append(!pick);
                    if pick {
                        self.rollbacks += 1;
                        for g in &mut self.commits {
                            if g.disk == Disk::Written {
                                g.disk = Disk::Lost;
                            }
                        }
                    }
                    let disk = if pick { Disk::Lost } else { Disk::Written };
                    self.commits.push(Ghost {
                        seq,
                        disk,
                        doomed: false,
                        told: None,
                        pushed: false,
                    });
                    let top = self.threads[t].top();
                    top.commit = Some(self.commits.len() - 1);
                    top.pc += 1;
                    format!(" {} -> seq {seq}", if pick { "refused" } else { "ok" })
                }
                Return => {
                    let wake = self.machine.return_pass();
                    self.wake(wake);
                    if self.threads[t].stack.len() == 1 {
                        self.threads[t].holds_pass = false;
                    }
                    self.threads[t].top().pc += 1;
                    String::new()
                }
                WouldWait => {
                    let waits = self.machine.would_wait(self.seq_of(&frame));
                    if waits {
                        to(self, frame.ops, frame.pc + 1);
                    } else {
                        to(self, INLINE_TAIL, 0);
                    }
                    format!(" -> {waits}")
                }
                Park => {
                    let commit = frame.commit.expect("appended");
                    let parked = self.machine.park(self.commits[commit].seq, commit).is_ok();
                    if parked {
                        to(self, DRIVE, 0);
                        self.threads[t].holds_pass = false;
                    } else {
                        to(self, INLINE_TAIL, 0);
                    }
                    format!(" -> {parked}")
                }
                Open => {
                    self.machine.open_fence();
                    self.wake(true);
                    self.threads[t].top().pc += 1;
                    String::new()
                }
                Start => {
                    to(self, if pick { FINISH_PANICS } else { FINISH }, 0);
                    if pick { " panics" } else { " returns" }.to_string()
                }
                _ => unreachable!("{op:?} is not a move of its own"),
            }
        }

        /// The ghost disk after thread `t`'s sync to `end` returned.
        fn synced(&mut self, t: usize, end: u64, ok: bool) {
            let undisturbed = self.threads[t].sync_from == self.rollbacks;
            for g in self.commits.iter_mut().filter(|g| g.seq <= end) {
                if ok && undisturbed && g.disk == Disk::Written {
                    g.disk = Disk::Durable;
                }
                if !ok && g.told.is_none() {
                    g.doomed = true;
                }
            }
        }

        /// One `next` call for thread `t`'s loop: what it said, and whether
        /// the verdicts it gave hold.
        fn ask(&mut self, t: usize, mut actor: Actor) -> (String, Checked) {
            let (step, wake) = self.machine.next(&mut actor);
            self.wake(wake);
            let mut told = Ok(());
            let said = format!(" -> {step:?}");
            match step {
                Step::Wait => self.threads[t].blocked = true,
                Step::Again(verdict) => {
                    let top = self.threads[t].top();
                    if top.op() == Settle {
                        // The pump counts the verdict as soon as it is in.
                        top.verdict = Some(verdict);
                        let commit = top.commit.expect("appended");
                        told = self.tell(commit, verdict);
                        if verdict && matches!(actor.goal, Goal::Denial(_)) {
                            told = told.and(self.push(commit, true));
                        }
                    }
                }
                Step::Lead => self.threads[t].sync_from = self.rollbacks,
                Step::Release(durable, commit) => told = told.and(self.tell(commit, durable)),
                Step::Done => {
                    self.done(t, &actor);
                    return (said, told);
                }
            }
            let th = &mut self.threads[t];
            th.top().actor = Some(actor);
            if let Step::Release(durable, commit) = step {
                th.stack
                    .push(Frame::new(START, Some(commit), Some(durable)));
            }
            (said, told)
        }

        fn done(&mut self, t: usize, actor: &Actor) {
            let top = self.threads[t].top();
            if top.unwinding {
                return self.unwind(t, actor.holds_fence());
            }
            top.pc += 1;
            match top.ops[top.pc - 1] {
                Pass => self.threads[t].holds_pass = true,
                Claim if !actor.holds_fence() => top.pc += 1,
                _ => {}
            }
        }

        /// A finish panicked up through thread `t`: what each frame's drop
        /// does on the way out, and the fence let go if it holds it.
        fn unwind(&mut self, t: usize, fence: bool) {
            let frames = std::mem::take(&mut self.threads[t].stack);
            for f in &frames {
                if f.ops == FINISH && f.pc <= 1 {
                    let wake = self.machine.return_pass();
                    self.wake(wake);
                }
                if let (Some(Settle), Some(c)) = (f.ops.get(f.pc), f.commit) {
                    // The caller hears nothing, and denies.
                    self.commits[c].told.get_or_insert(false);
                }
            }
            let th = &mut self.threads[t];
            if fence {
                th.stack.push(Frame::new(OPEN, None, None));
            } else if th.holds_pass {
                th.stack.push(Frame::new(UNWOUND, None, None));
            }
        }

        /// Take every thread through the moves that need nothing from the
        /// machine: frames ending, denial rows starting, panics.
        fn settle_threads(&mut self) {
            for t in 0..self.threads.len() {
                loop {
                    let th = &mut self.threads[t];
                    let Some(top) = th.stack.last_mut() else {
                        break;
                    };
                    if top.pc == top.ops.len() {
                        th.stack.pop();
                        continue;
                    }
                    match (top.op(), top.actor.is_some()) {
                        (Deny, _) => {
                            top.pc += 1;
                            if top.verdict == Some(false) {
                                th.stack.push(Frame::new(DENIAL, None, None));
                            }
                        }
                        (Panic, _) => {
                            th.stack.pop();
                            th.top().unwinding = true;
                        }
                        (Drive, false) => {
                            let commit = top.commit.expect("parked");
                            if self.commits[commit].told.is_some() {
                                th.stack.clear();
                            }
                            break;
                        }
                        _ => break,
                    }
                }
            }
        }

        fn check(&self) -> Checked {
            let m = &self.machine;
            let releasers = self.threads.iter().filter(|th| th.in_finish()).count();
            if releasers > 1 {
                return Err(format!("(4) {releasers} threads run parked finishes"));
            }
            let movers = (0..self.threads.len())
                .filter(|&t| self.runnable(t) && !self.threads[t].idle_parked())
                .count();
            let front_due = m.parked.front().is_some_and(|(seq, _)| m.due(*seq));
            let needs_work = !m.syncing && (m.appended > m.settled || (!m.releasing && front_due));
            if m.closed && m.passes > 0 && needs_work && movers == 0 {
                return Err("(3) the closed fence strands the passes out".into());
            }
            if (0..self.threads.len()).any(|t| self.runnable(t)) {
                return Ok(());
            }
            if self.threads.iter().any(|th| !th.stack.is_empty()) {
                return Err("(5) no thread can move".into());
            }
            if let Some(c) = self.commits.iter().position(|g| g.told.is_none()) {
                return Err(format!("(5) commit {c} never told"));
            }
            if let Some(c) = (self.commits.iter()).position(|g| g.told == Some(true) && !g.pushed) {
                return Err(format!(
                    "(6) commit {c} told durable, its rows never pushed"
                ));
            }
            if m.passes != 0 || !m.parked.is_empty() || m.closed || m.releasing || m.syncing {
                return Err(format!("(5) the run ended with {m:?}"));
            }
            Ok(())
        }

        fn key(&self) -> u64 {
            let mut h = DefaultHasher::new();
            self.hash(&mut h);
            h.finish()
        }
    }

    /// Breadth-first over every interleaving of `programs`: the states
    /// visited, or the shortest script to a broken invariant.
    fn explore(programs: &[&'static [Op]]) -> Result<usize, String> {
        let start = World::new(programs);
        // Each state's parent and the move that reached it.
        let mut came_from: HashMap<u64, Option<(u64, usize, bool)>> = HashMap::new();
        came_from.insert(start.key(), None);
        let mut frontier = vec![start.clone()];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for world in frontier {
                let key = world.key();
                for t in (0..world.threads.len()).filter(|&t| world.runnable(t)) {
                    for pick in [false, true].into_iter().take(world.choices(t)) {
                        let mut moved = world.clone();
                        if moved.step(t, pick).is_err() {
                            return Err(script(&start, &came_from, key, (t, pick)));
                        }
                        if let std::collections::hash_map::Entry::Vacant(e) =
                            came_from.entry(moved.key())
                        {
                            e.insert(Some((key, t, pick)));
                            next.push(moved);
                        }
                    }
                }
            }
            frontier = next;
        }
        Ok(came_from.len())
    }

    /// The moves from `start` to the state `key` and on to `last`, as
    /// they replay.
    fn script(
        start: &World,
        came_from: &HashMap<u64, Option<(u64, usize, bool)>>,
        mut key: u64,
        last: (usize, bool),
    ) -> String {
        let mut moves = vec![last];
        while let Some(Some((parent, t, pick))) = came_from.get(&key) {
            moves.push((*t, *pick));
            key = *parent;
        }
        moves.reverse();
        let mut world = start.clone();
        let mut lines: Vec<String> = moves
            .into_iter()
            .map(|(t, pick)| world.step(t, pick).unwrap_or_else(|broken| broken))
            .collect();
        let programs: Vec<_> = start.threads.iter().map(|th| th.stack[0].ops).collect();
        lines.insert(0, format!("threads {programs:?}"));
        lines.join("\n")
    }

    /// Each committing program writes at most two commits (its own and a
    /// denial row), so at most two of them run side by side.
    const MAX_COMMITS: usize = 4;

    #[test]
    fn every_interleaving_keeps_the_six_invariants() {
        let programs = [INLINE, PARKED, CLAIM, QUIESCE];
        let started = std::time::Instant::now();
        let (mut configurations, mut states) = (0, 0);
        let mut seen = HashSet::new();
        for a in 0..4 {
            for b in a..5 {
                for c in b..5 {
                    // Index 4 is "no thread": one, two and three threads.
                    let mix: Vec<_> = [a, b, c]
                        .into_iter()
                        .filter(|&i| i < 4)
                        .map(|i| programs[i])
                        .collect();
                    let committing = mix.iter().filter(|ops| ops[1] == Append).count();
                    if 2 * committing > MAX_COMMITS || !seen.insert(mix.clone()) {
                        continue;
                    }
                    match explore(&mix) {
                        Ok(n) => states += n,
                        Err(script) => panic!("counterexample:\n{script}"),
                    }
                    configurations += 1;
                }
            }
        }
        println!(
            "group machine: {configurations} configurations, {states} states, {:?}",
            started.elapsed()
        );
    }
}
