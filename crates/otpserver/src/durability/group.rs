//! Group commit and the compactor fence as one pure state machine.
//!
//! [`GroupMachine`] holds every rule of the durable commit path; the
//! [`Persistence`](super::Persistence) pump only carries out what it says.
//! It owns no lock, clock, backend or I/O, so the test module below can run
//! every interleaving of its calls.

use std::collections::VecDeque;

/// The group-commit and fence state of one pump, and every rule over it.
///
/// **One driver.** Commits are numbered from 1 in append order
/// ([`GroupMachine::append`]), so sequence order is WAL byte order. Every
/// commit is parked with a payload ([`GroupMachine::park`]), its finish,
/// and then driven ([`Goal::Drive`]): a drive leads a sync
/// ([`Step::Lead`]) covering every commit appended so far when none is in
/// flight and its commit is not yet covered, and otherwise waits for the
/// one in flight ([`Step::Wait`]) — or, driving at once ([`Actor::at_once`]),
/// leaves the commit to that sync's leader. A drive at once turned away by
/// a sync in flight is owed a wake-up: the call that ends that sync, if a
/// parked commit it did not cover remains, rouses the last nudger
/// ([`Wake::nudger`]) to lead the next, so no parked commit waits for a
/// poll. A nudge drives the newest parked commit, not the oldest: a turn
/// busy with covered commits cannot turn away the nudge that an uncovered
/// one needs. A drive that waits returns only once its commit's finish has run.
/// `failed` is checked before `settled`: a commit that slept through a
/// failed sync and then a good one is still denied.
///
/// **Who releases.** A parked commit's payload comes back as
/// [`Step::Release`] once its verdict is in and its turn has come, to the
/// one caller holding the release turn: the first to find the turn free
/// and something due, which keeps it until nothing is. A finish that
/// panics strands no other: its caller asks on to its goal before it
/// unwinds. A finish that commits (a denied operation's denial row) parks
/// that commit and drives it only until a sync covers it
/// ([`Goal::Cover`]), releasing nothing: once the finish returns, the
/// thread holding the turn releases it in sequence order like any other.
/// So no finish runs inside another, however many come due at once.
///
/// **Rows in sequence order.** A durable commit's audit rows enter the
/// ring while its finish runs, so a durable verdict on commit `seq` is
/// handed out only once every commit before it was denied or told durable
/// and came back from its finish. No row is told out of turn.
///
/// **The fence rule.** Every operation holds a pass ([`Goal::Pass`]) from
/// before it takes a store or ledger lock until its audit rows are in the
/// ring; the compactor ([`Goal::Claim`]), a reload and a staff change
/// ([`Goal::Quiesce`]) close the fence and wait for the passes out to come
/// back. A parked commit's pass has no caller to bring it back, and every
/// caller that could lead its sync may be stuck behind the closed fence —
/// so *whoever waits on the fence leads the syncs and runs the finishes
/// the passes out are waiting for*, and needs nobody else. The fence
/// holder's own commit takes its pass through the closed fence
/// ([`GroupMachine::pass_through`]), and is then the only commit in
/// flight.
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
    /// A compactor, a reload or a staff change holds the fence: no pass is
    /// issued until it lets go, but its own.
    closed: bool,
    /// Parked commits in sequence order, with their payloads.
    parked: VecDeque<(u64, P)>,
    /// A caller holds the release turn.
    releasing: bool,
    /// The released commit whose finish has not come back.
    running: Option<u64>,
    /// A drive at once found the sync in flight and left: rouse the last
    /// nudger when that sync ends, if a parked commit needs another.
    nudged: bool,
    /// Every durable commit up to here came back from its finish (the
    /// denied ones are below `failed`).
    told: u64,
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
            running: None,
            nudged: false,
            told: 0,
        }
    }
}

/// What a caller wants from [`GroupMachine::next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Goal {
    /// A pass through the fence.
    Pass,
    /// Parked commit `seq` covered by a sync and its finish run, and the
    /// parked finishes that come due run too if nobody else is running
    /// them. A drive at once ([`Actor::at_once`]) stops where it would
    /// wait instead.
    Drive(u64),
    /// Parked commit `seq` covered by a sync: the drive of a commit made
    /// inside a parked finish, whose thread holds the release turn and
    /// releases it once that finish returns.
    Cover(u64),
    /// The fence closed with every pass back.
    Quiesce,
    /// The same, if a compaction is due and nobody holds the fence.
    Claim(bool),
}

/// One caller's side of a conversation with the machine: its goal, the
/// sync it was told to lead, the finish it was handed, and what it has won.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Actor {
    goal: Goal,
    /// The end of the sync it leads, and whether that sync went well.
    sync: Option<(u64, bool)>,
    /// The commit whose finish it was handed, and its verdict.
    released: Option<(u64, bool)>,
    /// Holds the release turn, and gives it back when nothing is due.
    turn: bool,
    /// Holds the fence.
    fence: bool,
    /// Waits for a sync another thread leads, or a finish another runs.
    waits: bool,
    /// Has led a sync or been handed a parked finish.
    worked: bool,
}

impl Actor {
    pub(crate) fn new(goal: Goal) -> Self {
        Actor {
            goal,
            sync: None,
            released: None,
            turn: false,
            fence: false,
            waits: true,
            worked: false,
        }
    }

    /// A [`Goal::Drive`] of commit `seq` that is done where it would wait:
    /// it leads the sync the commit waits for when none is in flight, runs
    /// the parked finishes due if nobody is, and otherwise leaves it to
    /// whoever is — to be roused when a sync in flight ends, if it leaves
    /// one to lead.
    pub(crate) fn at_once(seq: u64) -> Self {
        Actor {
            waits: false,
            ..Actor::new(Goal::Drive(seq))
        }
    }

    /// Whether it led a sync or ran a parked finish.
    pub(crate) fn worked(&self) -> bool {
        self.worked
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

/// Whom a [`GroupMachine::next`] call wakes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Wake {
    /// The callers asleep for a sync, a finish, their turn or the fence.
    pub(crate) waiters: bool,
    /// The nudger the sync that just ended turned away: a parked commit
    /// that sync did not cover needs one led.
    pub(crate) nudger: bool,
}

/// What [`GroupMachine::next`] tells its caller to do.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step<P> {
    /// Sync the WAL without the lock, [`Actor::report`] how it went, ask
    /// again.
    Lead,
    /// Wait for a wake-up, then ask again.
    Wait,
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

    /// Whether parked commit `seq` can be released now: it has its
    /// verdict, and it is denied or every commit before it is through.
    /// Both hold of a prefix of the commits.
    fn due(&self, seq: u64) -> bool {
        self.covers(seq) && seq <= self.told.max(self.failed) + 1
    }

    /// Whether commit `seq`'s finish has come back.
    fn finished(&self, seq: u64) -> bool {
        self.running != Some(seq) && !self.parked.iter().any(|(s, _)| *s == seq)
    }

    /// A commit was handed to the backend (`ok`) or refused. Returns its
    /// sequence number; a refused commit is denied at once.
    pub(crate) fn append(&mut self, ok: bool) -> u64 {
        self.appended += 1;
        if !ok {
            // The backend's rollback discards every unsynced byte, not
            // only this commit's, so whatever has no verdict yet is gone
            // (a sync in flight may or may not have beaten it).
            self.failed = self.appended;
        }
        self.appended
    }

    /// The newest parked commit: what a nudge drives. The sync it leads
    /// covers every other, and the release it finds due starts with the
    /// oldest.
    pub(crate) fn newest_parked(&self) -> Option<u64> {
        self.parked.back().map(|(seq, _)| *seq)
    }

    /// Leave `payload` for the release of commit `seq`; the callers asleep
    /// for their turn must be woken.
    pub(crate) fn park(&mut self, seq: u64, payload: P) {
        // Commits are parked outside the lock they were appended under,
        // so not quite in order.
        let at = self.parked.iter().rposition(|(s, _)| *s < seq);
        self.parked.insert(at.map_or(0, |i| i + 1), (seq, payload));
    }

    /// The fence holder's own commit takes a pass through the closed fence.
    pub(crate) fn pass_through(&mut self) {
        self.passes += 1;
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

    /// Take in how the sync `actor` led went and the finish it came back
    /// from, say what it does next, and whom to wake.
    pub(crate) fn next(&mut self, actor: &mut Actor) -> (Step<P>, Wake) {
        let synced = actor.sync.take();
        if let Some((end, ok)) = synced {
            self.syncing = false;
            self.settled = end;
            if !ok {
                self.failed = self.failed.max(end);
            }
        }
        let back = actor.released.take();
        if let Some((seq, durable)) = back {
            self.running = None;
            if durable {
                self.told = self.told.max(seq);
            }
        }
        let nudger = synced.is_some() && self.rouse();
        let step = self.decide(actor);
        // A sync that ended, or a finish that came back, is what the
        // callers asleep wait for.
        let waiters = synced.is_some() || back.is_some();
        (step, Wake { waiters, nudger })
    }

    /// A sync ended: whether a nudger it turned away is owed a wake-up,
    /// since a parked commit it did not cover remains.
    fn rouse(&mut self) -> bool {
        let uncovered = self
            .parked
            .back()
            .is_some_and(|(seq, _)| !self.covers(*seq));
        std::mem::take(&mut self.nudged) && uncovered
    }

    fn decide(&mut self, a: &mut Actor) -> Step<P> {
        match a.goal {
            Goal::Pass if self.closed => Step::Wait,
            Goal::Pass => {
                self.passes += 1;
                Step::Done
            }
            Goal::Drive(seq) | Goal::Cover(seq) if !self.covers(seq) => {
                if !self.syncing {
                    self.lead(a)
                } else if a.waits {
                    Step::Wait
                } else {
                    self.nudged = true;
                    Step::Done
                }
            }
            Goal::Cover(_) => Step::Done,
            Goal::Drive(seq) => {
                if let Some(step) = self.release(a) {
                    return step;
                }
                if a.waits && !self.finished(seq) {
                    Step::Wait
                } else {
                    Step::Done
                }
            }
            Goal::Quiesce | Goal::Claim(_) => {
                if !a.fence {
                    if self.closed {
                        return match a.goal {
                            Goal::Quiesce => Step::Wait,
                            _ => Step::Done,
                        };
                    }
                    if a.goal == Goal::Claim(false) {
                        return Step::Done;
                    }
                    self.closed = true;
                    a.fence = true;
                }
                if let Some(step) = self.release(a) {
                    step
                } else if self.passes == 0 {
                    Step::Done
                } else if !self.covers(self.appended) && !self.syncing {
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
        a.worked = true;
        Step::Lead
    }

    /// The release turn: taken when it is free and the oldest parked
    /// commit is due, kept while one is, handed back when none is.
    fn release(&mut self, a: &mut Actor) -> Option<Step<P>> {
        if self.releasing && !a.turn {
            return None;
        }
        let due = self.parked.front().is_some_and(|(seq, _)| self.due(*seq));
        if !due {
            if a.turn {
                self.releasing = false;
                a.turn = false;
            }
            return None;
        }
        if !a.turn {
            self.releasing = true;
            a.turn = true;
        }
        let (seq, payload) = self.parked.pop_front()?;
        let durable = seq > self.failed;
        self.running = Some(seq);
        a.released = Some((seq, durable));
        a.worked = true;
        Some(Step::Release(durable, payload))
    }
}

#[cfg(test)]
mod tests {
    //! A bounded explorer: every interleaving of up to three threads'
    //! machine calls, each thread running one of the pump's programs (a
    //! gated commit parked and driven with waiting, one parked and driven at
    //! once whose worker then nudges, a staff commit behind the closed
    //! fence, a commit whose caller keeps its pass while it drives, a
    //! compaction claim or a reload's quiesce), a denied finish's
    //! denial row parked and driven until covered, with every sync's and every
    //! append's outcome and every gated finish's panic chosen both ways. It
    //! searches breadth-first, deduplicating on (machine, threads, ghost
    //! disk), so the first counterexample it meets is a shortest one,
    //! printed as the script that reaches it.
    //! After every step it checks:
    //!
    //! 1. no commit is told durable before a sync covering it succeeded;
    //! 2. a failed sync denies every commit it covered that had no verdict
    //!    yet;
    //! 3. the fence never strands a parked commit: a closed fence with
    //!    passes out that needs a sync led or a finish run always has a
    //!    thread that can move and is not idle behind a parked reply;
    //! 4. at most one thread runs parked finishes, and no finish runs
    //!    inside another;
    //! 5. some thread can always move (no lost wake-up), a drive that waits
    //!    returns only once its commit's finish has run (a denial row's
    //!    once a sync covered it), and every run ends with every commit
    //!    told once, every pass back and the fence open;
    //! 6. rows and verdicts are released in seq order: a durable commit's
    //!    rows are pushed after those of every durable commit before it,
    //!    with no exception, and every commit told durable has its rows
    //!    pushed by the end.

    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::hash::{DefaultHasher, Hash, Hasher};

    /// A thread's next move: one machine call, or work it does with the
    /// lock released.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Op {
        Pass,
        /// The fence holder's commit takes its pass through the fence.
        Through,
        /// Hand the commit to the backend, which accepts or refuses it.
        Append,
        /// Leave the commit's finish with the pump; a gated operation's
        /// pass goes with it.
        Park,
        /// Drive the frame's commit, waiting.
        Drive,
        /// Drive it until a sync covers it: a denial row's, inside the
        /// finish whose thread holds the release turn.
        Cover,
        /// Drive it at once: the handler's call before it answers
        /// `Pending`.
        Once,
        /// A worker with replies parked nudges the newest: it drives it
        /// at once, and until its own is told it nudges again — at once if
        /// the nudge did some work, else once the machine rouses it. The
        /// ingest worker's poll is left out, so no run may need it.
        Nudge,
        /// A denied commit's finish writes its denial row: a commit of its
        /// own, parked and driven, which takes the operation's pass with it.
        Deny,
        Return,
        /// The compaction check a caller makes once its drive returns.
        Claim,
        Quiesce,
        Open,
        /// A gated finish starts: it will return, or panic.
        Start,
        /// A finish that only pushes its commit's rows.
        Rows,
        Panic,
    }
    use Op::*;

    const WAITED: &[Op] = &[Pass, Append, Park, Drive];
    const DELIVERED: &[Op] = &[Pass, Append, Park, Once, Nudge];
    const STAFF: &[Op] = &[Quiesce, Through, Append, Park, Drive, Deny, Return, Open];
    /// A commit whose caller keeps its pass: an enrolment, a removal, a
    /// shed request's row, `Commit::flush`.
    const ENROLLED: &[Op] = &[Pass, Append, Park, Drive, Return];
    const CLAIM: &[Op] = &[Claim, Open];
    const QUIESCE: &[Op] = &[Quiesce, Open];
    /// A denial row: inside a finish, driven until covered; a staff
    /// change's, driven waiting.
    const DENIAL: &[Op] = &[Append, Park, Cover];
    const STAFF_DENIAL: &[Op] = &[Append, Park, Drive];
    const START: &[Op] = &[Start];
    const FINISH: &[Op] = &[Deny, Return];
    const FINISH_PANICS: &[Op] = &[Return, Panic];
    const ROWS: &[Op] = &[Rows];
    /// A denial row's finish: its rows, then the operation's pass.
    const DENIED: &[Op] = &[Rows, Return];
    const UNWOUND: &[Op] = &[Return];
    const OPEN: &[Op] = &[Open];

    /// The frames of a finish the thread runs for the machine.
    const FINISHES: [&[Op]; 5] = [START, FINISH, FINISH_PANICS, ROWS, DENIED];

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Frame {
        ops: &'static [Op],
        pc: usize,
        /// The frame's commit, an index into `World::commits`.
        commit: Option<usize>,
        /// A `next` loop in progress.
        actor: Option<Actor>,
        /// A finish its loop ran panicked: it asks on to its goal, then
        /// unwinds.
        unwinding: bool,
    }

    impl Frame {
        fn new(ops: &'static [Op], commit: Option<usize>) -> Self {
            Frame {
                ops,
                pc: 0,
                commit,
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
        /// A nudge that did no work, not roused since.
        asleep: bool,
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

        /// Waiting to nudge a parked reply, which the ingest may never do.
        fn idle_parked(&self) -> bool {
            matches!(&self.stack[..], [f] if f.ops == DELIVERED && f.op() == Nudge && f.actor.is_none())
        }

        /// How many parked finishes it is inside.
        fn finishes(&self) -> usize {
            (self.stack.iter())
                .filter(|f| FINISHES.contains(&f.ops))
                .count()
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
        /// The frame its release runs: a gated operation's finish, which
        /// carries the pass and may deny, a denial row's, or rows only.
        finish: &'static [Op],
        told: Option<bool>,
        pushed: bool,
        /// Its finish came back.
        finished: bool,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct World {
        /// Parked payload: the commit's index.
        machine: GroupMachine<usize>,
        threads: Vec<Thread>,
        commits: Vec<Ghost>,
        rollbacks: u8,
        /// The highest seq whose rows were pushed.
        pushed_to: u64,
    }

    type Checked = Result<(), String>;

    impl World {
        fn new(programs: &[&'static [Op]]) -> Self {
            let thread = |ops| Thread {
                stack: vec![Frame::new(ops, None)],
                blocked: false,
                asleep: false,
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
            let th = &self.threads[t];
            !th.blocked && !th.asleep && !th.stack.is_empty()
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

        /// The ingest's waker: one sleeping worker, as good as any other.
        fn rouse(&mut self, rouse: bool) {
            let asleep = self.threads.iter_mut().find(|th| th.asleep);
            if let (true, Some(th)) = (rouse, asleep) {
                th.asleep = false;
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

        /// A durable commit `c`'s rows go into the ring.
        fn push(&mut self, c: usize) -> Checked {
            let g = &mut self.commits[c];
            if g.told != Some(true) {
                return Ok(());
            }
            if g.pushed {
                return Err(format!("commit {c} pushed its rows twice"));
            }
            g.pushed = true;
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
                if let Some((end, _)) = actor.sync {
                    did = format!(
                        "sync to {end} {} + {did}",
                        if pick { "fails" } else { "ok" }
                    );
                    self.synced(t, end, !pick);
                    actor.report(!pick);
                }
                let (said, told) = self.ask(t, actor);
                (did + &said, told)
            } else {
                let op = frame.op();
                let did = format!("{op:?}");
                let started = match op {
                    Pass => Some(Actor::new(Goal::Pass)),
                    Drive => Some(Actor::new(Goal::Drive(self.seq_of(&frame)))),
                    Cover => Some(Actor::new(Goal::Cover(self.seq_of(&frame)))),
                    Once => Some(Actor::at_once(self.seq_of(&frame))),
                    Nudge => self.machine.newest_parked().map(Actor::at_once),
                    Claim => Some(Actor::new(Goal::Claim(true))),
                    Quiesce => Some(Actor::new(Goal::Quiesce)),
                    _ => None,
                };
                match started {
                    Some(actor) => {
                        let (said, told) = self.ask(t, actor);
                        (did + &said, told)
                    }
                    None => {
                        let (said, told) = self.simple(t, op, pick);
                        (did + &said, told)
                    }
                }
            };
            let settled = self.settle_threads();
            let did = format!("t{t} {did}");
            match told.and(settled).and_then(|()| self.check()) {
                Ok(()) => Ok(did),
                Err(broken) => Err(format!("{did}\n  broken: {broken}")),
            }
        }

        /// One call other than `next`, or work off the lock.
        fn simple(&mut self, t: usize, op: Op, pick: bool) -> (String, Checked) {
            let frame = self.threads[t].top().clone();
            let mut told = Ok(());
            let said = match op {
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
                    let finish = match frame.ops {
                        WAITED | DELIVERED => START,
                        DENIAL | STAFF_DENIAL => DENIED,
                        _ => ROWS,
                    };
                    self.commits.push(Ghost {
                        seq,
                        disk,
                        doomed: false,
                        finish,
                        told: None,
                        pushed: false,
                        finished: false,
                    });
                    self.threads[t].top().commit = Some(self.commits.len() - 1);
                    format!(" {} -> seq {seq}", if pick { "refused" } else { "ok" })
                }
                Through => {
                    self.machine.pass_through();
                    self.threads[t].holds_pass = true;
                    String::new()
                }
                Park => {
                    let commit = frame.commit.expect("appended");
                    self.machine.park(self.commits[commit].seq, commit);
                    self.wake(true);
                    if self.commits[commit].finish == START {
                        self.threads[t].holds_pass = false;
                    }
                    String::new()
                }
                Return => {
                    let wake = self.machine.return_pass();
                    self.wake(wake);
                    if self.threads[t].stack.len() == 1 {
                        self.threads[t].holds_pass = false;
                    }
                    if let (Some(c), true) =
                        (frame.commit, [FINISH, FINISH_PANICS].contains(&frame.ops))
                    {
                        // A gated finish pushes its rows as its operation
                        // drops.
                        told = self.push(c);
                    }
                    String::new()
                }
                Rows => {
                    told = self.push(frame.commit.expect("released"));
                    String::new()
                }
                Open => {
                    self.machine.open_fence();
                    self.wake(true);
                    String::new()
                }
                Start => {
                    let top = self.threads[t].top();
                    top.ops = if pick { FINISH_PANICS } else { FINISH };
                    return (if pick { " panics" } else { " returns" }.to_string(), told);
                }
                _ => unreachable!("{op:?} is not a move of its own"),
            };
            self.threads[t].top().pc += 1;
            (said, told)
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
            self.wake(wake.waiters);
            self.rouse(wake.nudger);
            let mut told = Ok(());
            let said = format!(" -> {step:?}");
            match step {
                Step::Wait => self.threads[t].blocked = true,
                Step::Lead => self.threads[t].sync_from = self.rollbacks,
                Step::Release(durable, commit) => told = self.tell(commit, durable),
                Step::Done => return (said, self.done(t, &actor)),
            }
            let th = &mut self.threads[t];
            th.top().actor = Some(actor);
            if let Step::Release(_, commit) = step {
                th.stack
                    .push(Frame::new(self.commits[commit].finish, Some(commit)));
            }
            (said, told)
        }

        fn done(&mut self, t: usize, actor: &Actor) -> Checked {
            let th = &mut self.threads[t];
            let top = th.top();
            if top.unwinding {
                self.unwind(t, actor.holds_fence());
                return Ok(());
            }
            top.pc += 1;
            match top.ops[top.pc - 1] {
                Pass => th.holds_pass = true,
                Claim if !actor.holds_fence() => top.pc += 1,
                Nudge => {
                    top.pc -= 1;
                    th.asleep = !actor.worked();
                }
                Drive => {
                    let c = top.commit.expect("appended");
                    if !self.commits[c].finished {
                        return Err(format!("(5) a waiting drive of commit {c} returned first"));
                    }
                }
                Cover => {
                    let c = top.commit.expect("appended");
                    if !self.machine.covers(self.commits[c].seq) {
                        return Err(format!("(5) the drive of denial row {c} returned first"));
                    }
                }
                _ => {}
            }
            Ok(())
        }

        /// A finish panicked up through thread `t`'s loop, which reached its
        /// goal and rethrows: the thread lets go of what it holds, and a
        /// worker nudges on. Only a thread's first frame runs finishes.
        fn unwind(&mut self, t: usize, fence: bool) {
            let first = self.threads[t].stack.pop().expect("the loop unwinding");
            assert!(
                self.threads[t].stack.is_empty(),
                "{first:?} ran a finish nested"
            );
            let th = &mut self.threads[t];
            if fence {
                th.stack.push(Frame::new(OPEN, None));
            } else if th.holds_pass {
                th.stack.push(Frame::new(UNWOUND, None));
            } else if first.ops == DELIVERED {
                // The ingest catches the panic, and its worker nudges on.
                let mut worker = Frame::new(DELIVERED, first.commit);
                worker.pc = DELIVERED.len() - 1;
                th.stack.push(worker);
            }
        }

        /// Take every thread through the moves that need nothing from the
        /// machine: frames ending, denial rows starting, panics.
        fn settle_threads(&mut self) -> Checked {
            for t in 0..self.threads.len() {
                loop {
                    let th = &mut self.threads[t];
                    let Some(top) = th.stack.last_mut() else {
                        break;
                    };
                    if top.pc == top.ops.len() {
                        let f = th.stack.pop().expect("a frame");
                        if let (true, Some(c)) = (FINISHES.contains(&f.ops), f.commit) {
                            self.commits[c].finished = true;
                        }
                        continue;
                    }
                    match (top.op(), top.actor.is_some()) {
                        (Deny, _) => {
                            top.pc += 1;
                            let c = top.commit.expect("appended");
                            if self.commits[c].told == Some(false) {
                                // The denial row's finish returns the pass.
                                top.pc += 1;
                                let denial = match th.finishes() {
                                    0 => STAFF_DENIAL,
                                    _ => DENIAL,
                                };
                                th.stack.push(Frame::new(denial, None));
                            }
                        }
                        (Panic, _) => {
                            let f = th.stack.pop().expect("a frame");
                            self.commits[f.commit.expect("released")].finished = true;
                            th.top().unwinding = true;
                        }
                        (Nudge, false) => {
                            let commit = top.commit.expect("parked");
                            if self.commits[commit].told.is_some() {
                                th.stack.clear();
                                th.asleep = false;
                            }
                            break;
                        }
                        _ => break,
                    }
                }
            }
            Ok(())
        }

        fn check(&self) -> Checked {
            let m = &self.machine;
            let releasers = self.threads.iter().filter(|th| th.finishes() > 0).count();
            if releasers > 1 {
                return Err(format!("(4) {releasers} threads run parked finishes"));
            }
            if self.threads.iter().any(|th| th.finishes() > 1) {
                return Err("(4) a finish runs inside another".into());
            }
            let movers = (0..self.threads.len())
                .filter(|&t| self.runnable(t) && !self.threads[t].idle_parked())
                .count();
            let front_due = m.parked.front().is_some_and(|(seq, _)| m.due(*seq));
            let needs_work = !m.syncing && (!m.covers(m.appended) || (!m.releasing && front_due));
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
            if m.passes != 0
                || !m.parked.is_empty()
                || m.running.is_some()
                || m.closed
                || m.releasing
                || m.syncing
            {
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
        let programs = [WAITED, DELIVERED, STAFF, ENROLLED, CLAIM, QUIESCE];
        let none = programs.len();
        let started = std::time::Instant::now();
        let (mut configurations, mut states) = (0, 0);
        let mut seen = HashSet::new();
        for a in 0..none {
            for b in a..=none {
                for c in b..=none {
                    // Index `none` is "no thread": one, two and three threads.
                    let mix: Vec<_> = [a, b, c]
                        .into_iter()
                        .filter(|&i| i < none)
                        .map(|i| programs[i])
                        .collect();
                    let committing = mix.iter().filter(|ops| ops.contains(&Append)).count();
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
