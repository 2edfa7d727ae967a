//! `ModelTransport`: the model checker's [`Transport`] implementation.
//!
//! The transport routes **every** `send` and
//! [`recv_match`](Transport::recv_match) through a central cooperative
//! scheduler that owns all nondeterminism. A rank thread that reaches a
//! transport operation parks and registers the operation; the scheduler
//! waits until every live rank is parked, computes the set of *enabled*
//! choices (which message a receive could take, whether a deadline branch
//! may fire), and grants exactly one. An interleaving is therefore a
//! replayable sequence of [`Decision`]s — the substrate the DPOR explorer
//! in [`crate::dpor`] enumerates. No operation ever waits on the wall
//! clock: a deadline is a branch the scheduler may take.
//!
//! The failure-semantics table of `sasgd_comm::transport` holds here as on
//! the real substrates (this file's tests check it): a send to a finished
//! rank is `PeerGone`, a deadline branch is `Timeout`, an empty candidate
//! list is `NoCandidates`, and a torn-down execution surfaces as
//! `Disconnected` at every parked rank.
//!
//! Alongside messages, the world carries *shared cells*
//! ([`ModelTransport::cell_load`] / [`cell_store`](ModelTransport::cell_store)
//! / [`cell_add`](ModelTransport::cell_add)): scheduler-mediated shared
//! state used to model parameter-server style accumulators. Every message
//! and cell write is stamped with a [`VClock`], so the checker detects
//! races and lost updates as happens-before violations — not as fingerprint
//! divergence after the fact — and detects deadlocks structurally as
//! wait-for-graph cycles, not watchdog timeouts.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use sasgd_comm::transport::{Transport, Wait};
use sasgd_comm::world::CommError;

use crate::corpus::world_fingerprint;
use crate::vclock::VClock;

/// How long the scheduler waits for quiescence before declaring the model
/// itself stalled (a rank thread blocked outside the model — a harness bug,
/// not a scenario deadlock).
const SCHEDULER_STALL: Duration = Duration::from_secs(20);

// ---------------------------------------------------------------------------
// Decisions, choices, channels.
// ---------------------------------------------------------------------------

/// What a granted operation did with its nondeterminism.
///
/// `Fire` is the unique outcome of sends and cell operations; `Deliver(i)`
/// picks candidate `i` of a receive (a named receive has one candidate);
/// `Timeout` takes the deadline branch of a deadline-bounded receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChoiceKind {
    /// The operation's only data-flow outcome (send, cell op).
    Fire,
    /// Deliver from candidate index `i` of a receive.
    Deliver(usize),
    /// Take the deadline branch of a deadline-bounded receive.
    Timeout,
}

/// One step of an interleaving: `rank` performed its pending operation
/// with outcome `kind`. A `Vec<Decision>` is a complete, replayable
/// schedule — the witness format every model-checker report uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// World rank that moved.
    pub rank: usize,
    /// Outcome chosen for its pending operation.
    pub kind: ChoiceKind,
}

/// Serialize a decision sequence as a compact replay string
/// (`"0f.1f.0d1.2t"`): `<rank>` then `f` (fire) / `d<i>` (deliver
/// candidate `i`) / `t` (timeout), dot-separated.
pub fn witness_string(decisions: &[Decision]) -> String {
    decisions
        .iter()
        .map(|d| {
            let code = match d.kind {
                ChoiceKind::Fire => "f".to_string(),
                ChoiceKind::Deliver(i) => format!("d{i}"),
                ChoiceKind::Timeout => "t".to_string(),
            };
            format!("{}{}", d.rank, code)
        })
        .collect::<Vec<_>>()
        .join(".")
}

/// Parse a replay string produced by [`witness_string`].
pub fn parse_witness(s: &str) -> Option<Vec<Decision>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split('.')
        .map(|part| {
            let letter = part.find(|c: char| c.is_ascii_alphabetic())?;
            let rank: usize = part[..letter].parse().ok()?;
            let kind = match &part[letter..letter + 1] {
                "f" => ChoiceKind::Fire,
                "t" => ChoiceKind::Timeout,
                "d" => ChoiceKind::Deliver(part[letter + 1..].parse().ok()?),
                _ => return None,
            };
            Some(Decision { rank, kind })
        })
        .collect()
}

/// A dependence-analysis resource: a message channel `(src, dst, tag)` or a
/// shared cell. Two steps of different ranks commute unless their resource
/// sets intersect (loads on the same cell still commute with each other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Chan {
    /// A point-to-point message channel.
    Msg(usize, usize, u64),
    /// A shared cell.
    Cell(u32),
}

/// One enabled choice at a scheduling point, with the resources it touches
/// (for the explorer's dependence relation).
#[derive(Debug, Clone)]
pub struct EnabledChoice {
    /// World rank whose pending operation this choice resolves.
    pub rank: usize,
    /// The outcome it would take.
    pub kind: ChoiceKind,
    /// Resources the step touches.
    pub chans: Vec<Chan>,
    /// Pure read (commutes with other pure reads on the same cell).
    pub is_load: bool,
}

impl EnabledChoice {
    /// Would firing `self` and `other` in either order reach the same
    /// state? Same-rank steps never commute (program order); otherwise
    /// steps commute unless they share a resource (two loads of one cell
    /// still commute).
    pub fn dependent(&self, other: &EnabledChoice) -> bool {
        if self.rank == other.rank {
            return true;
        }
        self.chans.iter().any(|c| {
            other.chans.contains(c)
                && !(self.is_load && other.is_load && matches!(c, Chan::Cell(_)))
        })
    }
}

// ---------------------------------------------------------------------------
// World state.
// ---------------------------------------------------------------------------

/// A queued message.
struct Msg {
    payload: Vec<f32>,
    clock: VClock,
    /// Global arrival number — total order of sends, used for the per-src
    /// FIFO rule of wildcard receives.
    seq: u64,
}

/// A shared cell: value plus the clock of its last write.
struct Cell {
    value: f32,
    clock: VClock,
}

/// A parked operation awaiting a scheduler grant.
enum PendingOp {
    Send {
        dst: usize,
        tag: u64,
        payload: Vec<f32>,
    },
    Recv {
        /// `(src, tag)` per candidate, in caller order.
        cands: Vec<(usize, u64)>,
        can_timeout: bool,
    },
    CellLoad {
        cell: u32,
    },
    CellStore {
        cell: u32,
        value: f32,
    },
    CellAdd {
        cell: u32,
        delta: f32,
    },
}

/// What the scheduler hands back to a parked rank.
enum Grant {
    Sent(Result<(), CommError>),
    Received(Result<((usize, u64), Vec<f32>), CommError>),
    Value(f32),
    /// Execution aborted (redundant branch or post-deadlock teardown):
    /// surface as `Disconnected` so rank bodies unwind through their normal
    /// error paths.
    Abort,
}

/// A detected happens-before violation or structural deadlock, with the
/// decision prefix that reproduces it.
pub struct ModelEvent {
    /// Human-readable description.
    pub detail: String,
    /// Replayable decision prefix up to and including the offending step.
    pub witness: Vec<Decision>,
}

/// The mutable state of one model world.
struct WorldState {
    p: usize,
    queues: BTreeMap<(usize, usize, u64), VecDeque<Msg>>,
    /// Primary endpoint dropped — the rank has left the world.
    finished: Vec<bool>,
    parked: Vec<Option<PendingOp>>,
    grants: Vec<Option<Grant>>,
    clocks: Vec<VClock>,
    cells: BTreeMap<u32, Cell>,
    next_seq: u64,
    aborted: bool,
    /// Decisions applied so far.
    log: Vec<Decision>,
    /// Live-src deadline branches the current execution may still take.
    timeouts_left: u32,
    /// Check wildcard receives for concurrent, bitwise-different matches.
    check_races: bool,
    races: Vec<ModelEvent>,
    lost_updates: Vec<ModelEvent>,
    cycles: Vec<ModelEvent>,
}

/// The lock every endpoint of a world shares, and who waits on what: the
/// scheduler on `cv`, each parked rank on its own `granted` entry — so a
/// grant wakes one thread, not the world.
struct WorldShared {
    state: Mutex<WorldState>,
    cv: Condvar,
    granted: Vec<Condvar>,
}

type StateGuard<'a> = MutexGuard<'a, WorldState>;

impl WorldShared {
    fn lock(&self) -> StateGuard<'_> {
        self.state.lock().expect("model world lock")
    }

    /// Tear an execution down: every parked rank unwinds.
    fn abort(&self, st: &mut StateGuard<'_>) {
        st.aborted = true;
        self.granted.iter().for_each(Condvar::notify_one);
    }
}

// ---------------------------------------------------------------------------
// The endpoint.
// ---------------------------------------------------------------------------

/// One rank's endpoint into a model world. [`run_execution`] produces
/// them.
pub struct ModelTransport {
    shared: Arc<WorldShared>,
    rank: usize,
    size: usize,
    op_counter: u64,
}

/// Build a world: endpoints plus the shared handle the scheduler drives.
/// `timeout_budget` bounds live-src deadline branches per execution;
/// `check_races` arms the wildcard-receive race check.
fn world(
    p: usize,
    timeout_budget: u32,
    check_races: bool,
) -> (Vec<ModelTransport>, Arc<WorldShared>) {
    assert!(p > 0, "world needs at least one rank");
    let shared = Arc::new(WorldShared {
        state: Mutex::new(WorldState {
            p,
            queues: BTreeMap::new(),
            finished: vec![false; p],
            parked: (0..p).map(|_| None).collect(),
            grants: (0..p).map(|_| None).collect(),
            clocks: (0..p).map(|_| VClock::new(p)).collect(),
            cells: BTreeMap::new(),
            next_seq: 0,
            aborted: false,
            log: Vec::new(),
            timeouts_left: timeout_budget,
            check_races,
            races: Vec::new(),
            lost_updates: Vec::new(),
            cycles: Vec::new(),
        }),
        cv: Condvar::new(),
        granted: (0..p).map(|_| Condvar::new()).collect(),
    });
    let endpoints = (0..p)
        .map(|rank| ModelTransport {
            shared: Arc::clone(&shared),
            rank,
            size: p,
            op_counter: 0,
        })
        .collect();
    (endpoints, shared)
}

impl ModelTransport {
    /// Shared-cell read (scheduler-mediated; joins the cell's last-writer
    /// clock).
    pub fn cell_load(&mut self, cell: u32) -> Result<f32, CommError> {
        self.cell_op(PendingOp::CellLoad { cell })
    }

    /// Shared-cell blind write. The checker flags the write as a *lost
    /// update* when the writer's clock does not dominate the cell's
    /// last-writer clock (the previous write was never observed).
    pub fn cell_store(&mut self, cell: u32, value: f32) -> Result<(), CommError> {
        self.cell_op(PendingOp::CellStore { cell, value })
            .map(|_| ())
    }

    /// Shared-cell atomic read-modify-write (`+= delta`); joins the cell
    /// clock, so it can never lose an update. Returns the new value.
    pub fn cell_add(&mut self, cell: u32, delta: f32) -> Result<f32, CommError> {
        self.cell_op(PendingOp::CellAdd { cell, delta })
    }

    fn cell_op(&mut self, op: PendingOp) -> Result<f32, CommError> {
        match self.scheduled(op) {
            Grant::Value(v) => Ok(v),
            Grant::Abort => Err(CommError::Disconnected {
                src: self.rank,
                tag: 0,
            }),
            _ => unreachable!("cell ops grant values"),
        }
    }

    /// Park the operation and wait for the scheduler's grant.
    fn scheduled(&self, op: PendingOp) -> Grant {
        let mut st = self.shared.lock();
        if st.aborted {
            return Grant::Abort;
        }
        st.parked[self.rank] = Some(op);
        self.shared.cv.notify_all();
        loop {
            if let Some(g) = st.grants[self.rank].take() {
                return g;
            }
            if st.aborted && st.parked[self.rank].is_some() {
                st.parked[self.rank] = None;
                return Grant::Abort;
            }
            let granted = &self.shared.granted[self.rank];
            st = granted.wait(st).expect("model world lock");
        }
    }
}

/// Rank `r` sends: tick its clock and queue the stamped message, or
/// `PeerGone` when the destination has left.
fn enqueue(
    st: &mut StateGuard<'_>,
    r: usize,
    dst: usize,
    tag: u64,
    payload: Vec<f32>,
) -> Result<(), CommError> {
    st.clocks[r].tick(r);
    if st.finished[dst] {
        return Err(CommError::PeerGone { peer: dst });
    }
    let msg = Msg {
        payload,
        clock: st.clocks[r].clone(),
        seq: st.next_seq,
    };
    st.next_seq += 1;
    st.queues.entry((r, dst, tag)).or_default().push_back(msg);
    Ok(())
}

/// Current `(value, last-writer clock)` of a cell, initializing on first
/// touch.
fn cell_view(st: &mut StateGuard<'_>, cell: u32) -> (f32, VClock) {
    let p = st.p;
    let c = st.cells.entry(cell).or_insert_with(|| Cell {
        value: 0.0,
        clock: VClock::new(p),
    });
    (c.value, c.clock.clone())
}

impl Transport for ModelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        match self.scheduled(PendingOp::Send { dst, tag, payload }) {
            Grant::Sent(res) => res,
            Grant::Abort => Err(CommError::Disconnected { src: dst, tag }),
            _ => unreachable!("send grants Sent"),
        }
    }

    /// Parks the receive over `candidates`. A [`Wait::For`] only says that
    /// the deadline branch exists; the scheduler decides whether it fires.
    fn recv_match(
        &mut self,
        candidates: &[(usize, u64)],
        wait: Wait,
    ) -> Result<((usize, u64), Vec<f32>), CommError> {
        let &(src, tag) = candidates.first().ok_or(CommError::NoCandidates)?;
        let cands = candidates.to_vec();
        let can_timeout = matches!(wait, Wait::For(_));
        match self.scheduled(PendingOp::Recv { cands, can_timeout }) {
            Grant::Received(res) => res,
            Grant::Abort => Err(CommError::Disconnected { src, tag }),
            _ => unreachable!("receives grant Received"),
        }
    }

    fn next_op(&mut self) -> u64 {
        let op = self.op_counter;
        self.op_counter += 1;
        op
    }
}

impl Drop for ModelTransport {
    fn drop(&mut self) {
        // Hangup is immediate (like the mock): the next send to this rank
        // fails with PeerGone, and the scheduler sees the rank as finished.
        let mut st = self.shared.lock();
        st.finished[self.rank] = true;
        self.shared.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The scheduler.
// ---------------------------------------------------------------------------

/// How one execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every rank ran to completion.
    Completed,
    /// A wait-for cycle (or orphaned wait) left no operation enabled.
    Deadlock,
    /// The exploration policy declined every enabled choice (sleep-set
    /// blocked): the branch is redundant and was torn down.
    SleepBlocked,
    /// The harness itself failed (replay divergence, stalled rank thread).
    HarnessError,
}

/// One scheduling point of a recorded execution.
pub struct StepRecord {
    /// Enabled choices at this point, in canonical (rank, kind) order.
    pub enabled: Vec<EnabledChoice>,
    /// Index into `enabled` of the fired choice.
    pub taken: usize,
}

/// A fully recorded execution.
pub struct ExecRecord {
    /// The decision sequence, step by step.
    pub steps: Vec<StepRecord>,
    /// How the execution ended.
    pub outcome: Outcome,
    /// FNV-1a over every rank's result bits (completed runs only).
    pub fingerprint: Option<u64>,
    /// Per-rank scenario errors (completed runs; aborted ranks excluded).
    pub errors: Vec<String>,
    /// Wildcard-receive races detected (concurrent, bitwise-different
    /// matches co-enabled at one receive).
    pub races: Vec<ModelEvent>,
    /// Blind writes that clobbered an unobserved write.
    pub lost_updates: Vec<ModelEvent>,
    /// Structural deadlocks (wait-for cycles / orphaned waits).
    pub cycles: Vec<ModelEvent>,
}

impl ExecRecord {
    /// The decision sequence of this execution.
    pub fn decisions(&self) -> Vec<Decision> {
        self.steps
            .iter()
            .map(|s| {
                let c = &s.enabled[s.taken];
                Decision {
                    rank: c.rank,
                    kind: c.kind,
                }
            })
            .collect()
    }
}

/// What one rank's body produced: its result vector (fingerprinted) or a
/// scenario error.
pub type RankOutcome = Result<Vec<f32>, String>;

/// One rank's body in an execution: owns its endpoint.
pub type ModelRankFn = Arc<dyn Fn(ModelTransport) -> RankOutcome + Send + Sync>;

/// The exploration policy: given the enabled set (canonical order), pick
/// the index to fire, or `None` to abandon the branch (sleep-blocked).
pub type Policy<'a> = &'a mut dyn FnMut(&[EnabledChoice]) -> Option<usize>;

/// Compute the enabled choices of the current quiescent state, in
/// canonical order (by rank, then [`ChoiceKind`] order).
fn enabled_choices(st: &StateGuard<'_>) -> Vec<EnabledChoice> {
    let mut out = Vec::new();
    for r in 0..st.p {
        let Some(op) = st.parked[r].as_ref() else {
            continue;
        };
        match op {
            PendingOp::Send { dst, tag, .. } => out.push(EnabledChoice {
                rank: r,
                kind: ChoiceKind::Fire,
                chans: vec![Chan::Msg(r, *dst, *tag)],
                is_load: false,
            }),
            PendingOp::Recv { cands, can_timeout } => {
                let chans: Vec<Chan> = cands.iter().map(|&(src, t)| Chan::Msg(src, r, t)).collect();
                let deliverable = deliverable_candidates(st, r, cands);
                if deliverable.is_empty() {
                    let all_gone = cands.iter().all(|&(src, _)| st.finished[src]);
                    if *can_timeout && (all_gone || st.timeouts_left > 0) {
                        out.push(EnabledChoice {
                            rank: r,
                            kind: ChoiceKind::Timeout,
                            chans,
                            is_load: false,
                        });
                    }
                } else {
                    for idx in deliverable {
                        out.push(EnabledChoice {
                            rank: r,
                            kind: ChoiceKind::Deliver(idx),
                            chans: chans.clone(),
                            is_load: false,
                        });
                    }
                }
            }
            PendingOp::CellLoad { cell } => out.push(EnabledChoice {
                rank: r,
                kind: ChoiceKind::Fire,
                chans: vec![Chan::Cell(*cell)],
                is_load: true,
            }),
            PendingOp::CellStore { cell, .. } | PendingOp::CellAdd { cell, .. } => {
                out.push(EnabledChoice {
                    rank: r,
                    kind: ChoiceKind::Fire,
                    chans: vec![Chan::Cell(*cell)],
                    is_load: false,
                })
            }
        }
    }
    out
}

/// Candidate indices a wildcard receive could take right now. A message is
/// deliverable only if it is the *earliest* undelivered arrival from its
/// sender among the candidate channels (per-src FIFO: real wires deliver
/// one sender's messages in send order, whatever their tags).
fn deliverable_candidates(st: &StateGuard<'_>, me: usize, cands: &[(usize, u64)]) -> Vec<usize> {
    let mut out = Vec::new();
    for (idx, &(src, tag)) in cands.iter().enumerate() {
        let Some(head_seq) = st
            .queues
            .get(&(src, me, tag))
            .and_then(|q| q.front())
            .map(|m| m.seq)
        else {
            continue;
        };
        let earliest_from_src = cands
            .iter()
            .filter(|&&(osrc, otag)| osrc == src && otag != tag)
            .filter_map(|&(osrc, otag)| {
                st.queues
                    .get(&(osrc, me, otag))
                    .and_then(|q| q.front())
                    .map(|m| m.seq)
            })
            .all(|other_seq| head_seq < other_seq);
        if earliest_from_src {
            out.push(idx);
        }
    }
    out
}

/// Fire one chosen step: mutate the world, stamp clocks, record
/// happens-before violations, and grant the owning rank.
fn apply_choice(st: &mut StateGuard<'_>, choice: &EnabledChoice) {
    let r = choice.rank;
    st.log.push(Decision {
        rank: r,
        kind: choice.kind,
    });
    let op = st.parked[r].take().expect("choice for a parked rank");
    let grant = match (op, choice.kind) {
        (PendingOp::Send { dst, tag, payload }, ChoiceKind::Fire) => {
            Grant::Sent(enqueue(st, r, dst, tag, payload))
        }
        (PendingOp::Recv { cands, .. }, ChoiceKind::Deliver(idx)) => {
            if st.check_races && cands.len() > 1 {
                record_wildcard_races(st, r, &cands);
            }
            let (src, tag) = cands[idx];
            let msg = st
                .queues
                .get_mut(&(src, r, tag))
                .and_then(|q| q.pop_front())
                .expect("enabled deliver has a message");
            let clock = msg.clock;
            st.clocks[r].join(&clock);
            st.clocks[r].tick(r);
            Grant::Received(Ok(((src, tag), msg.payload)))
        }
        (PendingOp::Recv { cands, .. }, ChoiceKind::Timeout) => {
            if !cands.iter().all(|&(src, _)| st.finished[src]) {
                st.timeouts_left = st.timeouts_left.saturating_sub(1);
            }
            st.clocks[r].tick(r);
            let &(src, tag) = cands.first().expect("nonempty candidates");
            Grant::Received(Err(CommError::Timeout { src, tag }))
        }
        (PendingOp::CellLoad { cell }, ChoiceKind::Fire) => {
            let (value, clock) = cell_view(st, cell);
            st.clocks[r].join(&clock);
            st.clocks[r].tick(r);
            Grant::Value(value)
        }
        (PendingOp::CellStore { cell, value }, ChoiceKind::Fire) => {
            let (_, clock) = cell_view(st, cell);
            if !st.clocks[r].dominates(&clock) {
                let witness = st.log.clone();
                st.lost_updates.push(ModelEvent {
                    detail: format!(
                        "lost update: rank {r} stored cell {cell} without having observed \
                         the previous write (writer clocks concurrent)"
                    ),
                    witness,
                });
            }
            st.clocks[r].tick(r);
            let stamp = st.clocks[r].clone();
            let c = st.cells.get_mut(&cell).expect("cell initialized");
            c.value = value;
            c.clock = stamp;
            Grant::Value(value)
        }
        (PendingOp::CellAdd { cell, delta }, ChoiceKind::Fire) => {
            let (_, clock) = cell_view(st, cell);
            st.clocks[r].join(&clock);
            st.clocks[r].tick(r);
            let stamp = st.clocks[r].clone();
            let c = st.cells.get_mut(&cell).expect("cell initialized");
            c.value += delta;
            c.clock = stamp;
            Grant::Value(c.value)
        }
        (_, kind) => unreachable!("choice {kind:?} does not match the parked op"),
    };
    st.grants[r] = Some(grant);
}

/// At a wildcard delivery with several deliverable messages: any pair whose
/// clocks are concurrent and whose payloads differ bitwise is a
/// happens-before race — the receive's outcome depends on the schedule.
fn record_wildcard_races(st: &mut StateGuard<'_>, me: usize, cands: &[(usize, u64)]) {
    let heads: Vec<(usize, u64, VClock, Vec<u32>)> = cands
        .iter()
        .filter_map(|&(src, tag)| {
            st.queues
                .get(&(src, me, tag))
                .and_then(|q| q.front())
                .map(|m| {
                    (
                        src,
                        tag,
                        m.clock.clone(),
                        m.payload.iter().map(|f| f.to_bits()).collect(),
                    )
                })
        })
        .collect();
    for i in 0..heads.len() {
        for j in i + 1..heads.len() {
            let (sa, ta, ca, pa) = &heads[i];
            let (sb, tb, cb, pb) = &heads[j];
            if ca.concurrent(cb) && pa != pb {
                let witness = st.log.clone();
                st.races.push(ModelEvent {
                    detail: format!(
                        "race: wildcard receive at rank {me} can match concurrent, \
                         bitwise-different messages from rank {sa} (tag {ta}) and \
                         rank {sb} (tag {tb})"
                    ),
                    witness,
                });
                return; // one witness per delivery point is enough
            }
        }
    }
}

/// Build the wait-for report of a stuck quiescent state: one line per
/// blocked rank, plus the exact cycle (or orphaned wait) as the event.
fn wait_for_report(st: &StateGuard<'_>) -> String {
    let mut lines = Vec::new();
    // Edges rank -> ranks it waits on, with the blocking (src, tag).
    let mut waits: BTreeMap<usize, Vec<(usize, u64)>> = BTreeMap::new();
    for r in 0..st.p {
        if let Some(PendingOp::Recv { cands, .. }) = st.parked[r].as_ref() {
            waits.insert(r, cands.clone());
        }
    }
    for (&r, targets) in &waits {
        for &(s, t) in targets {
            lines.push(format!("rank {r} blocked on (src {s}, tag {t})"));
        }
    }
    // Find a cycle among blocked ranks by following first blocked targets.
    let mut cycle = None;
    'outer: for &start in waits.keys() {
        let mut path: Vec<usize> = vec![start];
        let mut cur = start;
        while let Some(next) = waits
            .get(&cur)
            .and_then(|ts| ts.iter().map(|&(s, _)| s).find(|s| waits.contains_key(s)))
        {
            if let Some(pos) = path.iter().position(|&x| x == next) {
                cycle = Some(path[pos..].to_vec());
                break 'outer;
            }
            path.push(next);
            cur = next;
        }
    }
    match cycle {
        Some(ranks) => {
            let hops: Vec<String> = ranks
                .iter()
                .map(|&r| {
                    let &(s, t) = waits[&r]
                        .iter()
                        .find(|&&(s, _)| ranks.contains(&s))
                        .unwrap_or(&waits[&r][0]);
                    format!("rank {r} blocked on (src {s}, tag {t})")
                })
                .collect();
            format!(
                "wait-for cycle: {} -> rank {}; all waits: {}",
                hops.join(" -> "),
                ranks[0],
                lines.join("; ")
            )
        }
        None => format!("orphaned wait (peer finished): {}", lines.join("; ")),
    }
}

/// Run one execution of `bodies` (rank order), scheduling with
/// `policy`. `prefix_ok` replays are the caller's business — the policy
/// sees every scheduling point, including replayed ones.
pub fn run_execution(
    p: usize,
    bodies: &ModelRankFn,
    timeout_budget: u32,
    check_races: bool,
    policy: Policy<'_>,
) -> ExecRecord {
    let (endpoints, shared) = world(p, timeout_budget, check_races);
    let results: Mutex<Vec<Option<RankOutcome>>> = Mutex::new((0..p).map(|_| None).collect());
    let mut steps = Vec::new();
    let mut outcome = Outcome::Completed;
    std::thread::scope(|scope| {
        for (rank, endpoint) in endpoints.into_iter().enumerate() {
            let bodies = Arc::clone(bodies);
            let results = &results;
            scope.spawn(move || {
                let out = bodies(endpoint);
                results.lock().expect("results lock")[rank] = Some(out);
            });
        }
        // The scheduler: wait for quiescence, fire one choice, repeat.
        loop {
            let mut st = shared.lock();
            let quiescent = |s: &WorldState| {
                (0..p).all(|r| s.finished[r] || (s.parked[r].is_some() && s.grants[r].is_none()))
            };
            let mut stalled = false;
            while !quiescent(&st) {
                let (guard, timed_out) = shared
                    .cv
                    .wait_timeout(st, SCHEDULER_STALL)
                    .expect("model world lock");
                st = guard;
                if timed_out.timed_out() && !quiescent(&st) {
                    stalled = true;
                    break;
                }
            }
            if stalled {
                outcome = Outcome::HarnessError;
                shared.abort(&mut st);
                break;
            }
            if (0..p).all(|r| st.finished[r]) {
                break;
            }
            let enabled = enabled_choices(&st);
            if enabled.is_empty() {
                let report = wait_for_report(&st);
                let witness = st.log.clone();
                st.cycles.push(ModelEvent {
                    detail: report,
                    witness,
                });
                outcome = Outcome::Deadlock;
                shared.abort(&mut st);
                break;
            }
            let Some(idx) = policy(&enabled) else {
                outcome = Outcome::SleepBlocked;
                shared.abort(&mut st);
                break;
            };
            apply_choice(&mut st, &enabled[idx]);
            shared.granted[enabled[idx].rank].notify_one();
            steps.push(StepRecord {
                enabled,
                taken: idx,
            });
        }
    });
    let mut st = shared.lock();
    let races = std::mem::take(&mut st.races);
    let lost_updates = std::mem::take(&mut st.lost_updates);
    let cycles = std::mem::take(&mut st.cycles);
    drop(st);
    let collected = results.into_inner().expect("results lock");
    let (fingerprint, errors) = match outcome {
        Outcome::Completed => match world_fingerprint(collected) {
            Ok(fp) => (Some(fp), Vec::new()),
            Err(errors) => (None, errors),
        },
        _ => (None, Vec::new()),
    };
    ExecRecord {
        steps,
        outcome,
        fingerprint,
        errors,
        races,
        lost_updates,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_round_trips() {
        let ds = vec![
            Decision {
                rank: 0,
                kind: ChoiceKind::Fire,
            },
            Decision {
                rank: 12,
                kind: ChoiceKind::Deliver(3),
            },
            Decision {
                rank: 1,
                kind: ChoiceKind::Timeout,
            },
        ];
        let s = witness_string(&ds);
        assert_eq!(s, "0f.12d3.1t");
        assert_eq!(parse_witness(&s), Some(ds));
        assert_eq!(parse_witness(""), Some(vec![]));
        assert_eq!(parse_witness("0x"), None);
    }

    /// Run `ops` as every rank's body of a `p`-rank world, taking the
    /// first enabled choice at each point: how the execution ended, and
    /// each rank's operation errors in program order.
    fn observe(
        p: usize,
        timeout_budget: u32,
        ops: fn(&mut ModelTransport) -> Vec<Option<CommError>>,
    ) -> (Outcome, Vec<Vec<Option<CommError>>>) {
        let seen = Arc::new(Mutex::new(vec![Vec::new(); p]));
        let log = Arc::clone(&seen);
        let body: ModelRankFn = Arc::new(move |mut t: ModelTransport| {
            let errors = ops(&mut t);
            log.lock().expect("log")[t.rank()] = errors;
            Ok(vec![])
        });
        let mut first = |_: &[EnabledChoice]| Some(0);
        let rec = run_execution(p, &body, timeout_budget, false, &mut first);
        let seen = seen.lock().expect("log").clone();
        (rec.outcome, seen)
    }

    /// The failure-semantics table of `sasgd_comm::transport`, under the
    /// scheduler the DPOR explorer drives.
    #[test]
    fn controlled_mode_keeps_the_failure_semantics_table() {
        // Rank 1 leaves at once: a send to it is `PeerGone`, a deadline
        // receive from it takes the (always enabled) dead-source timeout,
        // and a receive naming no candidate is `NoCandidates`.
        let (outcome, seen) = observe(2, 0, |t| match t.rank() {
            0 => vec![
                t.send(1, 3, vec![1.0]).err(),
                t.recv_deadline(1, 4, Duration::from_secs(1)).err(),
                t.recv_any(&[]).err(),
            ],
            _ => vec![],
        });
        assert_eq!(outcome, Outcome::Completed);
        let expect = [
            Some(CommError::PeerGone { peer: 1 }),
            Some(CommError::Timeout { src: 1, tag: 4 }),
            Some(CommError::NoCandidates),
        ];
        assert_eq!(seen[0], expect);

        // A live peer that has sent nothing: with a budget of one, the
        // deadline branch is the only enabled choice, and the run goes on.
        let (outcome, seen) = observe(2, 1, |t| match t.rank() {
            0 => vec![
                t.recv_deadline(1, 5, Duration::from_secs(1)).err(),
                t.send(1, 6, vec![2.0]).err(),
            ],
            _ => vec![t.recv(0, 6).err()],
        });
        assert_eq!(outcome, Outcome::Completed);
        assert_eq!(seen[0], [Some(CommError::Timeout { src: 1, tag: 5 }), None]);
        assert_eq!(seen[1], [None]);

        // Two ranks waiting on each other: the execution is torn down and
        // each parked receive surfaces as `Disconnected`.
        let (outcome, seen) = observe(2, 0, |t| {
            let peer = 1 - t.rank();
            vec![t.recv(peer, 7).err()]
        });
        assert_eq!(outcome, Outcome::Deadlock);
        let gone = |src| vec![Some(CommError::Disconnected { src, tag: 7 })];
        assert_eq!(seen, [gone(1), gone(0)]);
    }

    #[test]
    fn controlled_two_rank_send_recv_explores_one_order() {
        let body: ModelRankFn = Arc::new(|mut t: ModelTransport| {
            let r = t.rank();
            if r == 0 {
                t.send(1, 1, vec![5.0]).map_err(|e| e.to_string())?;
                Ok(vec![0.0])
            } else {
                let v = t.recv(0, 1).map_err(|e| e.to_string())?;
                Ok(v)
            }
        });
        let mut first = |_enabled: &[EnabledChoice]| Some(0);
        let rec = run_execution(2, &body, 0, false, &mut first);
        assert_eq!(rec.outcome, Outcome::Completed);
        assert!(rec.errors.is_empty(), "{:?}", rec.errors);
        assert!(rec.fingerprint.is_some());
        // Exactly two scheduled steps: the send fires, then the recv.
        assert_eq!(rec.decisions().len(), 2);
    }

    #[test]
    fn controlled_recv_cycle_reports_wait_for_cycle() {
        let body: ModelRankFn = Arc::new(|mut t: ModelTransport| {
            let peer = (t.rank() + 1) % 2;
            let v = t.recv(peer, 99).map_err(|e| e.to_string())?;
            t.send(peer, 99, v.clone()).map_err(|e| e.to_string())?;
            Ok(v)
        });
        let mut first = |_: &[EnabledChoice]| Some(0);
        let rec = run_execution(2, &body, 0, false, &mut first);
        assert_eq!(rec.outcome, Outcome::Deadlock);
        assert_eq!(rec.cycles.len(), 1);
        let detail = &rec.cycles[0].detail;
        assert!(detail.contains("wait-for cycle"), "{detail}");
        assert!(
            detail.contains("rank 0 blocked on (src 1, tag 99)"),
            "{detail}"
        );
        assert!(
            detail.contains("rank 1 blocked on (src 0, tag 99)"),
            "{detail}"
        );
    }

    #[test]
    fn controlled_cells_catch_lost_update() {
        let body: ModelRankFn = Arc::new(|mut t: ModelTransport| {
            let v = t.cell_load(0).map_err(|e| e.to_string())?;
            t.cell_store(0, v + 1.0).map_err(|e| e.to_string())?;
            Ok(vec![])
        });
        // Interleave the loads before the stores: both ranks load 0, both
        // store 1 — the second store clobbers an unobserved write.
        let script = [0usize, 1, 1, 0]; // r0 load, r1 load, r1 store, r0 store
        let mut i = 0;
        let mut policy = move |enabled: &[EnabledChoice]| {
            let want = script[i.min(script.len() - 1)];
            i += 1;
            enabled.iter().position(|c| c.rank == want)
        };
        let rec = run_execution(2, &body, 0, false, &mut policy);
        assert_eq!(rec.outcome, Outcome::Completed);
        assert_eq!(rec.lost_updates.len(), 1, "one clobbered write");
    }

    #[test]
    fn controlled_rmw_never_loses_updates() {
        let body: ModelRankFn = Arc::new(|mut t: ModelTransport| {
            let v = t.cell_add(0, 1.0).map_err(|e| e.to_string())?;
            Ok(vec![v])
        });
        let mut first = |_: &[EnabledChoice]| Some(0);
        let rec = run_execution(2, &body, 0, false, &mut first);
        assert_eq!(rec.outcome, Outcome::Completed);
        assert!(rec.lost_updates.is_empty());
    }
}
