//! Schedule-exploration race checker for the `sasgd-comm` substrate.
//!
//! The threaded backend's headline claim — "SASGD over threads equals
//! SASGD simulated, bit for bit" — rests on the collectives combining in a
//! *fixed* order no matter how the OS schedules the rank threads. This
//! harness attacks that claim directly: it runs each collective (and the
//! PS server) under many distinct injected-delay schedules that perturb
//! message arrival orders, and asserts
//!
//! * **(a) bitwise invariance** — every rank's result is bitwise identical
//!   across all explored schedules;
//! * **(b) deadlock freedom** — a polled **wait-for-graph cycle detector**
//!   samples the world's wait table and declares deadlock only when the
//!   same cycle of blocked ranks persists across consecutive polls,
//!   reporting the exact cycle and which ranks are blocked on which
//!   `(src, tag)` resource. Slow schedulers (1-core CI) cannot produce
//!   false positives: without a cycle, a run is only abandoned after the
//!   generous fallback budget;
//! * **(c) no lost updates** on the PS path — after all concurrent pushes,
//!   the pulled parameters equal the exact expected sum, and every
//!   mid-flight pull observes only shard states a serial application of
//!   that shard's messages could produce.
//!
//! ## Exploration model and its limits
//!
//! Schedules are *injected delays*, not a model checker's full interleaving
//! tree: for p ≤ 4 the harness exhaustively enumerates all `p!` start-order
//! permutations crossed with a basis of per-operation delay patterns
//! (pre-send, pre-recv, and none); for p = 8 it draws seeded pseudo-random
//! delay vectors. Delays bias the OS schedule toward the targeted arrival
//! orders rather than forcing them, so a pass is strong evidence over the
//! explored envelope, not a proof over all interleavings — see DESIGN.md
//! §4d. The regression tests show the harness *does* catch an
//! arrival-order-combining reduce and a real recv cycle.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use sasgd_comm::collectives::{allreduce_ring, allreduce_tree, reduce_tree};
use sasgd_comm::ft::{ft_allreduce, Membership};
use sasgd_comm::hierarchy::{grouped, hierarchical_allreduce};
use sasgd_comm::ps_transport::{serve_shard, PsLayout, PsTransportClient};
use sasgd_comm::sparse::{sparse_allreduce_tree_v2, SparseLevelProfile, SparseTreeOpts, SparseVec};
use sasgd_comm::transport::Transport;
use sasgd_comm::world::{CommWorld, Communicator, DelaySchedule};

/// One delay unit. Long enough that a delayed send reliably loses the race
/// against an undelayed one; short enough that a full exploration stays in
/// CI budget.
const UNIT: Duration = Duration::from_micros(300);

/// Fallback budget per schedule run. Generous: a legitimate run finishes in
/// a few milliseconds even under maximal injected delay. Only reached when
/// ranks are stuck *without* a wait-for cycle (e.g. a thread wedged outside
/// the comm layer) — cyclic deadlocks are detected structurally long before.
const WATCHDOG: Duration = Duration::from_secs(10);

/// Poll cadence of the structural deadlock detector: each expiry samples
/// the world's wait table and looks for a wait-for cycle among the blocked
/// ranks.
const CYCLE_POLL: Duration = Duration::from_millis(25);

/// Consecutive polls one cycle must persist before it is declared real — a
/// rank can transiently appear blocked while its partner is mid-send, but
/// a true cycle can never dissolve on its own.
const CYCLE_CONFIRM: usize = 3;

/// Outcome of exploring one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (`allreduce_tree`, `ps_push_pull`, …).
    pub name: String,
    /// Ranks / learners involved.
    pub p: usize,
    /// Schedules explored.
    pub schedules: usize,
    /// Distinct per-rank result checksums observed (must be 1).
    pub distinct_results: usize,
    /// Schedules on which a deadlock was detected (wait-for cycle, or the
    /// fallback budget with ranks still missing).
    pub deadlocks: usize,
    /// Deadlock diagnostics: per deadlocked schedule, which ranks were
    /// blocked on which `(src, tag)`.
    pub deadlock_reports: Vec<String>,
    /// PS-path consistency violations (lost updates / impossible shard
    /// states); 0 for collective scenarios.
    pub lost_updates: usize,
    /// FNV-1a over the per-rank result checksums of the first completed
    /// schedule — the bitwise fingerprint every other schedule must match.
    pub fingerprint: u64,
}

impl ScenarioResult {
    /// Did the scenario uphold all checked properties?
    pub fn ok(&self) -> bool {
        self.distinct_results <= 1 && self.deadlocks == 0 && self.lost_updates == 0
    }
}

/// FNV-1a over the bit patterns of a result vector — the same fingerprint
/// style as `tests/engine_golden.rs`.
pub fn fnv1a_f32(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Deterministic pseudo-random stream (splitmix64) — the harness must not
/// depend on `rand` so it stays usable from every crate's dev-deps.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n.max(1))) as u32
    }
}

/// A full schedule: per-rank start delays plus the comm-level delay table.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// Delay units each rank sleeps before its first operation.
    pub start: Vec<u32>,
    /// Delay table handed to the communicators.
    pub delays: DelaySchedule,
}

/// All `p!` permutations of `0..p` (Heap's algorithm).
fn permutations(p: usize) -> Vec<Vec<u32>> {
    let mut a: Vec<u32> = (0..p as u32).collect();
    let mut out = vec![a.clone()];
    let mut c = vec![0usize; p];
    let mut i = 0usize;
    while i < p {
        if c[i] < i {
            if i.is_multiple_of(2) {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            out.push(a.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

/// The exhaustive schedule set for small `p`: every start-order permutation
/// crossed with three per-operation delay bases (none, alternating
/// pre-send, reversed pre-recv).
pub fn exhaustive_schedules(p: usize) -> Vec<Schedule> {
    let mut out = Vec::new();
    for perm in permutations(p) {
        for basis in 0..3u32 {
            let (send, recv): (Vec<Vec<u32>>, Vec<Vec<u32>>) = match basis {
                0 => (vec![Vec::new(); p], vec![Vec::new(); p]),
                1 => (
                    (0..p).map(|r| vec![perm[r] % 2, 1 - perm[r] % 2]).collect(),
                    vec![Vec::new(); p],
                ),
                _ => (
                    vec![Vec::new(); p],
                    (0..p).map(|r| vec![perm[p - 1 - r] % 3]).collect(),
                ),
            };
            out.push(Schedule {
                start: perm.clone(),
                delays: DelaySchedule {
                    unit: UNIT,
                    send,
                    recv,
                },
            });
        }
    }
    out
}

/// Seeded random schedules for larger `p`.
pub fn random_schedules(p: usize, count: usize, seed: u64) -> Vec<Schedule> {
    let mut rng = SplitMix(seed);
    (0..count)
        .map(|_| Schedule {
            start: (0..p).map(|_| rng.below(4)).collect(),
            delays: DelaySchedule {
                unit: UNIT,
                send: (0..p)
                    .map(|_| (0..4).map(|_| rng.below(3)).collect())
                    .collect(),
                recv: (0..p)
                    .map(|_| (0..4).map(|_| rng.below(2)).collect())
                    .collect(),
            },
        })
        .collect()
}

/// Rank inputs chosen so that any change in combine order is visible
/// bitwise: mixed magnitudes make float addition order-sensitive.
pub fn order_sensitive_input(rank: usize, m: usize) -> Vec<f32> {
    (0..m)
        .map(|j| {
            let base = match (rank + j) % 4 {
                0 => 1.0e8,
                1 => 1.0,
                2 => -1.0e8,
                _ => 3.7e-5,
            };
            base + (rank as f32 + 1.0) * 0.123 + j as f32 * 0.017
        })
        .collect()
}

/// One rank's body in a schedule run: `(rank, communicator) -> result`.
pub type RankFn = Arc<dyn Fn(usize, &mut Communicator) -> Vec<f32> + Send + Sync>;

/// Outcome of one schedule run.
enum RunOutcome {
    /// Per-rank result checksums, rank order.
    Done(Vec<u64>),
    /// Deadlock detected; human-readable cycle + held-resource report.
    Deadlock(String),
}

/// Find a wait-for cycle among blocked, unfinished ranks: `r` waits on
/// `src` iff the wait table holds `Some((src, _))` for `r`. Every blocked
/// rank has exactly one outgoing edge, so following edges either leaves the
/// blocked set or closes a cycle. The cycle is rotated to start at its
/// smallest rank so consecutive polls of the same stuck state compare equal.
fn wait_cycle(held: &[Option<(usize, u64)>], done: &[bool]) -> Option<Vec<usize>> {
    let blocked = |r: usize| !done[r] && held[r].is_some();
    for start in 0..held.len() {
        if !blocked(start) {
            continue;
        }
        let mut path = vec![start];
        let mut cur = start;
        while let Some((src, _)) = held[cur] {
            if !blocked(src) {
                break;
            }
            if let Some(pos) = path.iter().position(|&x| x == src) {
                let mut cycle = path[pos..].to_vec();
                let min_idx = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &r)| r)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                cycle.rotate_left(min_idx);
                return Some(cycle);
            }
            path.push(src);
            cur = src;
        }
    }
    None
}

/// Build the deadlock report: the cycle (when one exists) followed by the
/// held resource of every rank.
fn deadlock_report(held: &[Option<(usize, u64)>], cycle: Option<&[usize]>) -> String {
    let mut report = match cycle {
        Some(c) => {
            let hops: Vec<String> = c.iter().map(|r| format!("rank {r}")).collect();
            format!(
                "deadlock: wait-for cycle {} -> rank {}; ",
                hops.join(" -> "),
                c[0]
            )
        }
        None => String::from("deadlock: "),
    };
    for (r, w) in held.iter().enumerate() {
        match w {
            Some((src, tag)) => {
                report.push_str(&format!("rank {r} blocked on (src {src}, tag {tag}); "))
            }
            None => report.push_str(&format!("rank {r} not blocked in recv; ")),
        }
    }
    report
}

/// Run `scenario` on `p` fresh ranks under `sched`. The scenario receives
/// `(rank, communicator)` and returns the rank's result vector.
///
/// Deadlock detection is structural: the result channel is polled on a
/// short cadence, and each expiry samples the world's wait table looking
/// for a wait-for cycle among blocked ranks. A cycle that persists
/// [`CYCLE_CONFIRM`] consecutive polls is a deadlock — no matter how slow
/// the machine. `watchdog` is only the fallback for cycle-free wedges, so
/// a loaded 1-core runner cannot turn a slow-but-live schedule into a
/// false positive.
fn run_schedule(p: usize, sched: &Schedule, scenario: RankFn, watchdog: Duration) -> RunOutcome {
    let mut world = CommWorld::new(p);
    world.set_delays(Arc::new(sched.delays.clone()));
    let comms = world.communicators();
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    for (rank, mut comm) in comms.into_iter().enumerate() {
        let tx = tx.clone();
        let scenario = Arc::clone(&scenario);
        let start_units = sched.start.get(rank).copied().unwrap_or(0);
        // Detached threads: on deadlock they stay blocked and are leaked —
        // the cycle report is the product, and the process moves on.
        // lint:allow(raw-spawn): the race checker is the one sanctioned
        // thread host outside comm/the threaded harness (see SPAWN_ALLOWED).
        std::thread::spawn(move || {
            if start_units > 0 {
                std::thread::sleep(UNIT * start_units);
            }
            let result = scenario(rank, &mut comm);
            let _ = tx.send((rank, fnv1a_f32(&result)));
        });
    }
    drop(tx);
    let max_polls = (watchdog.as_micros() / CYCLE_POLL.as_micros()).max(1) as usize;
    let mut sums = vec![0u64; p];
    let mut done = vec![false; p];
    let mut remaining = p;
    let mut last_cycle: Option<Vec<usize>> = None;
    let mut persist = 0usize;
    let mut polls_left = max_polls;
    loop {
        match rx.recv_timeout(CYCLE_POLL) {
            Ok((rank, h)) => {
                sums[rank] = h;
                if !done[rank] {
                    done[rank] = true;
                    remaining -= 1;
                }
                if remaining == 0 {
                    return RunOutcome::Done(sums);
                }
                // Progress: reset the cycle confirmation and the fallback.
                last_cycle = None;
                persist = 0;
                polls_left = max_polls;
            }
            Err(e) => {
                let held = world.waiting_snapshot();
                let cycle = wait_cycle(&held, &done);
                match &cycle {
                    Some(c) if last_cycle.as_ref() == Some(c) => persist += 1,
                    Some(_) => persist = 1,
                    None => persist = 0,
                }
                last_cycle = cycle;
                polls_left = polls_left.saturating_sub(1);
                // Disconnected with results missing: a rank exited without
                // reporting (panic) — no amount of waiting will finish.
                let wedged = matches!(e, mpsc::RecvTimeoutError::Disconnected);
                if persist >= CYCLE_CONFIRM || polls_left == 0 || wedged {
                    return RunOutcome::Deadlock(deadlock_report(&held, last_cycle.as_deref()));
                }
            }
        }
    }
}

/// Explore `schedules` for one collective scenario and fold the outcomes.
pub fn explore(name: &str, p: usize, schedules: &[Schedule], scenario: RankFn) -> ScenarioResult {
    explore_with(name, p, schedules, scenario, WATCHDOG)
}

/// [`explore`] with an explicit watchdog budget — the deliberate-deadlock
/// self-check uses a short one (its hang is certain, not probabilistic).
pub fn explore_with(
    name: &str,
    p: usize,
    schedules: &[Schedule],
    scenario: RankFn,
    watchdog: Duration,
) -> ScenarioResult {
    let mut seen: Vec<Vec<u64>> = Vec::new();
    let mut deadlocks = 0usize;
    let mut deadlock_reports = Vec::new();
    for sched in schedules {
        match run_schedule(p, sched, Arc::clone(&scenario), watchdog) {
            RunOutcome::Done(sums) => {
                if !seen.contains(&sums) {
                    seen.push(sums);
                }
            }
            RunOutcome::Deadlock(report) => {
                deadlocks += 1;
                if deadlock_reports.len() < 4 {
                    deadlock_reports.push(report);
                }
            }
        }
    }
    ScenarioResult {
        name: name.to_string(),
        p,
        schedules: schedules.len(),
        distinct_results: seen.len(),
        deadlocks,
        deadlock_reports,
        lost_updates: 0,
        fingerprint: seen.first().map_or(0, |s| fingerprint_of(s)),
    }
}

/// Fold per-rank checksums into one scenario fingerprint.
fn fingerprint_of(sums: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in sums {
        for b in s.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Scenario definitions.
// ---------------------------------------------------------------------------

/// Dense binomial-tree allreduce.
pub fn scenario_allreduce_tree(p: usize, schedules: &[Schedule]) -> ScenarioResult {
    explore(
        "allreduce_tree",
        p,
        schedules,
        Arc::new(|rank, comm| {
            let mut v = order_sensitive_input(rank, 9);
            allreduce_tree(comm, &mut v).expect("allreduce");
            v
        }),
    )
}

/// Dense binomial-tree reduce to a nonzero root (exercises the
/// virtual-rank remapping); result includes the non-root partials, which
/// are also schedule-invariant.
pub fn scenario_reduce_tree(p: usize, schedules: &[Schedule]) -> ScenarioResult {
    explore(
        "reduce_tree_root1",
        p,
        schedules,
        Arc::new(move |rank, comm| {
            let root = 1 % p;
            let mut v = order_sensitive_input(rank, 7);
            reduce_tree(comm, root, &mut v).expect("reduce");
            v
        }),
    )
}

/// Sparse tree allreduce over the `[len, nnz, idx…, val…]` wire format.
pub fn scenario_sparse_allreduce(p: usize, schedules: &[Schedule]) -> ScenarioResult {
    explore(
        "sparse_allreduce_tree",
        p,
        schedules,
        Arc::new(|rank, comm| {
            let m = 23;
            let dense: Vec<f32> = (0..m)
                .map(|j| {
                    if (j + rank) % 3 == 0 {
                        1.0e7 + (rank as f32 + 1.0) * 0.31 + j as f32
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut sv = SparseVec::from_dense(&dense);
            let mut profile = SparseLevelProfile::default();
            sparse_allreduce_tree_v2(comm, &mut sv, SparseTreeOpts::default(), &mut profile)
                .expect("sparse allreduce");
            sv.to_dense()
        }),
    )
}

/// Ring allreduce (reduce-scatter + allgather).
pub fn scenario_allreduce_ring(p: usize, schedules: &[Schedule]) -> ScenarioResult {
    explore(
        "allreduce_ring",
        p,
        schedules,
        Arc::new(|rank, comm| {
            let mut v = order_sensitive_input(rank, 11);
            allreduce_ring(comm, &mut v).expect("ring allreduce");
            v
        }),
    )
}

/// Two consecutive collectives — catches tag-space collisions between
/// overlapping operations under reordering.
pub fn scenario_back_to_back(p: usize, schedules: &[Schedule]) -> ScenarioResult {
    explore(
        "back_to_back_collectives",
        p,
        schedules,
        Arc::new(|rank, comm| {
            let mut a = order_sensitive_input(rank, 5);
            allreduce_tree(comm, &mut a).expect("allreduce a");
            let mut b = order_sensitive_input(rank + 1, 5);
            allreduce_tree(comm, &mut b).expect("allreduce b");
            a.extend_from_slice(&b);
            a
        }),
    )
}

/// Hierarchical (grouped) allreduce: local reduce → leader allreduce →
/// local broadcast. Delay injection is applied to all three communicator
/// scopes of every learner.
pub fn scenario_hierarchical(
    groups: usize,
    per_group: usize,
    schedules: &[Schedule],
) -> ScenarioResult {
    let p = groups * per_group;
    let mut seen: Vec<Vec<u64>> = Vec::new();
    let mut deadlocks = 0usize;
    let mut deadlock_reports = Vec::new();
    for sched in schedules {
        let delays = Arc::new(sched.delays.clone());
        let (mut bundles, _) = grouped(groups, per_group);
        for b in bundles.iter_mut() {
            b.global.set_delays(Arc::clone(&delays));
            b.local.set_delays(Arc::clone(&delays));
            if let Some(l) = b.leaders.as_mut() {
                l.set_delays(Arc::clone(&delays));
            }
        }
        let (tx, rx) = mpsc::channel::<(usize, u64)>();
        for (rank, mut b) in bundles.into_iter().enumerate() {
            let tx = tx.clone();
            let start_units = sched.start.get(rank).copied().unwrap_or(0);
            // lint:allow(raw-spawn): race-checker thread host.
            std::thread::spawn(move || {
                if start_units > 0 {
                    std::thread::sleep(UNIT * start_units);
                }
                let mut v = order_sensitive_input(rank, 9);
                hierarchical_allreduce(&mut b, &mut v).expect("hierarchical allreduce");
                let _ = tx.send((rank, fnv1a_f32(&v)));
            });
        }
        drop(tx);
        let mut sums = vec![0u64; p];
        let mut dead = false;
        for _ in 0..p {
            match rx.recv_timeout(WATCHDOG) {
                Ok((rank, h)) => sums[rank] = h,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            deadlocks += 1;
            if deadlock_reports.len() < 4 {
                deadlock_reports
                    .push("deadlock in hierarchical_allreduce (grouped worlds)".to_string());
            }
        } else if !seen.contains(&sums) {
            seen.push(sums);
        }
    }
    ScenarioResult {
        name: format!("hierarchical_{groups}x{per_group}"),
        p,
        schedules: schedules.len(),
        distinct_results: seen.len(),
        deadlocks,
        deadlock_reports,
        lost_updates: 0,
        fingerprint: seen.first().map_or(0, |s| fingerprint_of(s)),
    }
}

/// One rank of a PS scenario world — pushers `0..p`, one reader at rank
/// `p`, then the shards: its result vector (a shard's is its final
/// segment), or the consistency violation it observed.
fn ps_rank(
    mut comm: Communicator,
    layout: PsLayout,
    pushes: usize,
    snapshot: bool,
) -> Result<Vec<f32>, String> {
    let (rank, reader) = (comm.rank(), layout.p - 1);
    if rank > reader {
        return serve_shard(&mut comm, &layout, &vec![0.0; layout.dim]).map_err(|e| e.to_string());
    }
    let mut client = PsTransportClient::new(comm, layout);
    if rank < reader {
        // Constant deltas of `rank + 1`: exactly representable, sums stay
        // exact in f32. The world's delay schedule spaces the sends.
        for _ in 0..pushes {
            let delta = vec![(rank + 1) as f32; layout.dim];
            client.add(&delta).map_err(|e| e.to_string())?;
        }
        return Ok(Vec::new());
    }
    // A shard applies whole adds serially, so a mid-flight pull must see
    // every shard *segment* uniform; a snapshot is a consistent cut, so it
    // must be uniform across the whole vector.
    let uniform = |x: &[f32]| x.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
    let cuts: Vec<(usize, usize)> = if snapshot {
        vec![(0, layout.dim)]
    } else {
        (0..layout.shards).map(|k| layout.segment(k)).collect()
    };
    for _ in 0..6 {
        let x = if snapshot {
            client.pull_snapshot(WATCHDOG, 400)
        } else {
            client.pull(WATCHDOG)
        }
        .map_err(|e| format!("reader pull failed: {e}"))?;
        for &(lo, hi) in &cuts {
            if !uniform(&x[lo..hi]) {
                return Err(format!("torn read in [{lo}, {hi}): {:?}", &x[lo..hi]));
            }
        }
        std::thread::sleep(UNIT);
    }
    Ok(Vec::new())
}

/// The parameter server under concurrent clients, over a delayed
/// [`CommWorld`] whose last `shards` ranks serve: lost-update and
/// read-consistency detection.
///
/// Every pusher `r` adds `pushes` constant vectors of `r + 1` while a
/// reader pulls mid-flight. Plain pulls (`snapshot = false`) must observe
/// uniform shard segments — anything else is a lost or partial update.
/// Snapshot pulls must be uniform across shard boundaries: a torn
/// cross-shard cut (EXPERIMENTS.md's documented `pull` caveat) is the
/// violation. Once every client is done, the shards' final segments must
/// equal the exact expected sum (any miss is a lost update).
fn explore_ps(
    name: String,
    p: usize,
    shards: usize,
    pushes: usize,
    schedules: &[Schedule],
    snapshot: bool,
) -> ScenarioResult {
    let layout = PsLayout {
        p: p + 1,
        shards,
        dim: 24,
    };
    let ranks = layout.p + shards;
    let expected: f32 = (1..=p).map(|r| (r * pushes) as f32).sum();
    let mut lost = 0usize;
    let mut deadlocks = 0usize;
    let mut reports = Vec::new();
    let mut seen: Vec<u64> = Vec::new();
    for sched in schedules {
        let mut world = CommWorld::new(ranks);
        world.set_delays(Arc::new(sched.delays.clone()));
        let (tx, rx) = mpsc::channel();
        for (rank, comm) in world.communicators().into_iter().enumerate() {
            let tx = tx.clone();
            let start_units = sched.start.get(rank).copied().unwrap_or(0);
            // lint:allow(raw-spawn): race-checker thread host.
            std::thread::spawn(move || {
                std::thread::sleep(UNIT * start_units);
                let _ = tx.send((rank, ps_rank(comm, layout, pushes, snapshot)));
            });
        }
        drop(tx);
        let mut final_params = vec![0.0f32; layout.dim];
        let mut violations = Vec::new();
        let mut finished = 0usize;
        while let Ok((rank, out)) = rx.recv_timeout(WATCHDOG) {
            finished += 1;
            match out {
                Ok(segment) if rank >= layout.p => {
                    let (lo, hi) = layout.segment(rank - layout.p);
                    final_params[lo..hi].copy_from_slice(&segment);
                }
                Ok(_) => {}
                Err(report) => violations.push(report),
            }
        }
        if finished < ranks {
            deadlocks += 1;
            continue;
        }
        if violations.is_empty() && final_params.iter().any(|&v| v != expected) {
            violations.push(format!(
                "lost update: expected uniform {expected}, got {:?}",
                &final_params[..4]
            ));
        }
        lost += violations.len();
        reports.extend(violations);
        let checksum = fnv1a_f32(&final_params);
        if !seen.contains(&checksum) {
            seen.push(checksum);
        }
    }
    reports.truncate(4);
    ScenarioResult {
        name,
        p,
        schedules: schedules.len(),
        // Sums of identical commuting adds: final state must be invariant.
        distinct_results: seen.len(),
        deadlocks,
        deadlock_reports: reports,
        lost_updates: lost,
        fingerprint: seen.first().map_or(0, |&s| fingerprint_of(&[s])),
    }
}

/// PS push/pull under concurrent clients (see `explore_ps`).
pub fn scenario_ps(
    p: usize,
    shards: usize,
    pushes: usize,
    schedules: &[Schedule],
) -> ScenarioResult {
    let name = format!("ps_push_pull_s{shards}");
    explore_ps(name, p, shards, pushes, schedules, false)
}

/// Stamp-consistent snapshot pulls under concurrent cross-shard pushes
/// (see `explore_ps`).
pub fn scenario_ps_snapshot(
    p: usize,
    shards: usize,
    pushes: usize,
    schedules: &[Schedule],
) -> ScenarioResult {
    let name = format!("ps_snapshot_s{shards}");
    explore_ps(name, p, shards, pushes, schedules, true)
}

/// Failure-detection deadline for the fault-free fault-tolerant scenario.
/// Far above any injected delay (units are 300 µs), so a live-but-delayed
/// rank is never spuriously evicted; a clean round never waits it out, so
/// generosity costs nothing.
const FT_DEADLINE: Duration = Duration::from_millis(400);

/// Deadline for the dead-rank scenario. Every round with a confirmed death
/// waits out the recovery-sweep window (a small multiple of this), so it
/// is shorter — still three orders of magnitude above the injected delays.
const FT_EVICT_DEADLINE: Duration = Duration::from_millis(150);

/// Fault-free fault-tolerant allreduce: schedule-invariant *and* bitwise
/// equal to the plain binomial tree (the FT path reduces in the identical
/// combine order; the mask prefix and direct result distribution must not
/// perturb a single bit).
pub fn scenario_ft_allreduce(p: usize, schedules: &[Schedule]) -> ScenarioResult {
    let mut r = explore(
        "ft_allreduce_fault_free",
        p,
        schedules,
        Arc::new(|rank, comm| {
            let mut membership = Membership::new(comm.size());
            let mut v = order_sensitive_input(rank, 9);
            let out = ft_allreduce(comm, &mut membership, &mut v, FT_DEADLINE)
                .expect("fault-free ft allreduce");
            assert!(out.lost.is_empty(), "fault-free round must not evict");
            v
        }),
    );
    let plain = explore(
        "plain_reference",
        p,
        &[Schedule::default()],
        Arc::new(|rank, comm| {
            let mut v = order_sensitive_input(rank, 9);
            allreduce_tree(comm, &mut v).expect("allreduce");
            v
        }),
    );
    if r.fingerprint != plain.fingerprint && r.distinct_results == 1 {
        r.lost_updates += 1;
        r.deadlock_reports.push(format!(
            "ft_allreduce fingerprint {:#x} differs from plain allreduce {:#x}",
            r.fingerprint, plain.fingerprint
        ));
    }
    r
}

/// Fault-tolerant allreduce with one rank dead from the start (its thread
/// returns immediately, dropping its endpoints — the crash signature the
/// threaded backend produces). Survivors must evict exactly that rank,
/// agree bitwise under every schedule, and never deadlock.
pub fn scenario_ft_one_dead(p: usize, dead: usize, schedules: &[Schedule]) -> ScenarioResult {
    assert!(
        dead > 0 && dead < p,
        "rank 0 coordinates; kill an interior rank"
    );
    let mut r = explore(
        "ft_allreduce_one_dead",
        p,
        schedules,
        Arc::new(move |rank, comm| {
            if rank == dead {
                return Vec::new(); // crash before the collective
            }
            let mut membership = Membership::new(comm.size());
            let mut v = order_sensitive_input(rank, 9);
            let out = ft_allreduce(comm, &mut membership, &mut v, FT_EVICT_DEADLINE)
                .expect("survivor ft allreduce");
            assert_eq!(out.lost, vec![dead], "exactly the dead rank is evicted");
            assert_eq!(membership.len(), comm.size() - 1);
            v
        }),
    );
    r.name = format!("ft_allreduce_dead_rank{dead}");
    r
}

// ---------------------------------------------------------------------------
// Bad fixtures: what a failure looks like (used by tests and the
// analyzer's self-check).
// ---------------------------------------------------------------------------

/// A deliberately broken tree reduce that merges children in **arrival
/// order** (via [`Communicator::recv_any`]) instead of rank order. Float
/// addition does not commute bitwise, so its result depends on the thread
/// schedule — the race checker must observe divergent checksums.
pub fn bad_reduce_arrival_order<T: Transport>(comm: &mut T, root: usize, buf: &mut [f32]) {
    let p = comm.size();
    if p == 1 {
        comm.next_op();
        return;
    }
    let op = comm.next_op();
    let tag = (op << 4) | 1;
    let vrank = (comm.rank() + p - root) % p;
    // Children/parent sets identical to the correct reduce_tree…
    let mut children = Vec::new();
    let mut bit = 1usize;
    let mut parent = None;
    while bit < p {
        if vrank & bit != 0 {
            parent = Some(((vrank & !bit) + root) % p);
            break;
        }
        let child_v = vrank | bit;
        if child_v < p {
            children.push((child_v + root) % p);
        }
        bit <<= 1;
    }
    // …but the merge happens in whatever order the messages arrive.
    let candidates: Vec<(usize, u64)> = children.iter().map(|&c| (c, tag)).collect();
    let mut outstanding = candidates.len();
    while outstanding > 0 {
        let (_, part) = comm.recv_any(&candidates).expect("arrival-order recv");
        for (a, b) in buf.iter_mut().zip(&part) {
            *a += b;
        }
        outstanding -= 1;
    }
    if let Some(par) = parent {
        comm.send(par, tag, buf.to_vec()).expect("bad-reduce send");
    }
}

/// Explore the bad reduce; a healthy checker reports `distinct_results > 1`.
pub fn scenario_bad_reduce(p: usize, schedules: &[Schedule]) -> ScenarioResult {
    let mut r = explore(
        "bad_reduce_arrival_order",
        p,
        schedules,
        Arc::new(|rank, comm| {
            let mut v = order_sensitive_input(rank, 6);
            bad_reduce_arrival_order(comm, 0, &mut v);
            v
        }),
    );
    r.name = "bad_reduce_arrival_order (expected to diverge)".to_string();
    r
}

/// A deliberate recv cycle: every rank waits for its right neighbour
/// before sending. The watchdog must flag it and name the held resources.
pub fn scenario_deadlock(p: usize) -> ScenarioResult {
    let schedules = vec![Schedule {
        start: vec![0; p],
        delays: DelaySchedule::default(),
    }];
    // The hang is certain (a pure recv cycle), so a short watchdog suffices
    // and keeps the self-check cheap.
    explore_with(
        "deliberate_recv_cycle",
        p,
        &schedules,
        Arc::new(move |rank, comm| {
            let peer = (rank + 1) % p;
            // Everyone receives first: classic cycle, nobody ever sends.
            let v = comm.recv(peer, 99).expect("cycle recv");
            comm.send(peer, 99, v.clone()).expect("cycle send");
            v
        }),
        Duration::from_millis(500),
    )
}

/// The full production sweep: every shipped collective and the PS path,
/// exhaustive at p ≤ 4 and seeded-random at p = 8.
pub fn run_production_sweep() -> Vec<ScenarioResult> {
    let mut out = Vec::new();
    for p in [2usize, 3, 4] {
        let scheds = exhaustive_schedules(p);
        out.push(scenario_allreduce_tree(p, &scheds));
    }
    let s4 = exhaustive_schedules(4);
    out.push(scenario_reduce_tree(4, &s4));
    out.push(scenario_sparse_allreduce(4, &s4));
    out.push(scenario_allreduce_ring(4, &s4));
    out.push(scenario_back_to_back(4, &s4));
    out.push(scenario_hierarchical(2, 2, &s4));
    out.push(scenario_ps(4, 2, 6, &s4));
    out.push(scenario_ps_snapshot(4, 3, 6, &s4));
    out.push(scenario_ft_allreduce(4, &s4));
    // Dead-rank rounds wait out the recovery sweep, so a schedule subset
    // keeps the sweep in CI budget (coverage of the fast path stays full
    // via the fault-free scenario above).
    out.push(scenario_ft_one_dead(4, 3, &s4[..8.min(s4.len())]));
    let s8 = random_schedules(8, 12, 0x0005_a56d);
    out.push(scenario_allreduce_tree(8, &s8));
    out.push(scenario_sparse_allreduce(8, &s8));
    out.push(scenario_allreduce_ring(8, &s8));
    out.push(scenario_hierarchical(2, 4, &s8));
    out.push(scenario_ps(8, 3, 4, &s8));
    out.push(scenario_ft_allreduce(8, &s8));
    out.push(scenario_ft_one_dead(8, 5, &s8[..6.min(s8.len())]));
    out
}
