//! Sleep-set DPOR exploration over [`crate::model`] worlds.
//!
//! The explorer enumerates **every Mazurkiewicz-inequivalent interleaving**
//! of a scenario for small worlds (the production corpus runs p ≤ 4
//! exhaustively) by stateless replay: each execution is a decision
//! sequence; after a run, every enabled-but-not-taken choice at every free
//! scheduling point seeds a new branch whose prefix forces that choice.
//! Sleep sets (Godefroid) prune branches that only commute independent
//! steps of an already-explored trace — the classic dynamic partial-order
//! reduction, sound because two executions are only identified when every
//! reordered pair of steps is independent under
//! [`EnabledChoice::dependent`]. Wildcard receives deliberately declare
//! *all* candidate channels as their resource set, so the interleaving in
//! which two racy sends are simultaneously pending is never pruned away —
//! the vector-clock race check needs to see it.
//!
//! At p = 8 the same machinery runs a seeded-random bounded search
//! ([`explore_random`]): no completeness claim, same invariant checks.
//!
//! The scenario corpus ([`model_scenarios`]) covers the shipped
//! collectives, the hierarchy bundle, the parameter server (adds and
//! pulls, the snapshot pull across two shards, the pull-retry ladder),
//! fault-tolerant allreduce (fault-free and one-dead), and the engine
//! ranks (SASGD, DaSGD's delayed average, Downpour against its shard).
//! [`model_self_checks`] runs the implanted bugs — arrival-order reduce,
//! PS lost update, recv cycle — and proves each is caught by
//! happens-before machinery (with a replayable witness), not by
//! fingerprint luck.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use sasgd_comm::collectives::{allreduce_ring, allreduce_tree, reduce_tree};
use sasgd_comm::ft::{ft_allreduce, Membership};
use sasgd_comm::hierarchy::{hierarchical_allreduce, GroupedComm};
use sasgd_comm::ps_transport::{serve_shard, PsLayout, PsTransportClient, PsTransportError};
use sasgd_comm::sparse::{sparse_allreduce_tree_v2, SparseLevelProfile, SparseTreeOpts, SparseVec};
use sasgd_comm::transport::Transport;
use sasgd_comm::world::CommError;
use sasgd_core::algorithms::{Algorithm, GammaP};
use sasgd_core::engine::rank::run_rank;
use sasgd_core::trainer::TrainConfig;
use sasgd_data::Dataset;
use sasgd_nn::models::tiny_mlp;
use sasgd_tensor::SeedRng;

use crate::model::{
    run_execution, witness_string, Decision, EnabledChoice, ExecRecord, ModelRankFn,
    ModelTransport, Outcome,
};
use crate::schedule::{bad_reduce_arrival_order, order_sensitive_input};

/// A scenario the model checker explores: `p` rank bodies over one
/// controlled world.
#[derive(Clone)]
pub struct ModelScenario {
    /// Scenario name (stable; lands in ANALYSIS.json).
    pub name: &'static str,
    /// World size.
    pub p: usize,
    /// Every rank's body (dispatches on `rank()`).
    pub body: ModelRankFn,
    /// Live-src deadline branches allowed per execution (dead-src
    /// timeouts are always enabled and free).
    pub timeout_budget: u32,
    /// Arm the wildcard-receive happens-before race check. Off for
    /// scenarios whose wildcard arrival order is *by design* benign (the
    /// PS shard loop); those rely on the bitwise-divergence check instead.
    pub check_races: bool,
    /// Every interleaving must produce bitwise-identical rank results.
    pub expect_bitwise: bool,
    /// Execution cap; hitting it marks the exploration non-exhaustive.
    pub max_execs: usize,
}

/// What exploring one scenario produced.
#[derive(Debug, Clone)]
pub struct ModelScenarioResult {
    /// Scenario name.
    pub name: String,
    /// World size.
    pub p: usize,
    /// Maximal executions run (completed + deadlocked) — for the
    /// exhaustive explorer, exactly the number of inequivalent
    /// interleavings.
    pub explored: usize,
    /// Branches DPOR pruned: sleep-suppressed alternatives plus
    /// sleep-blocked replays abandoned mid-run.
    pub pruned: usize,
    /// Distinct per-rank result fingerprints over completed executions.
    pub distinct_results: usize,
    /// Happens-before races at wildcard receives.
    pub races: usize,
    /// Blind writes that clobbered an unobserved write.
    pub lost_updates: usize,
    /// Structural deadlocks (wait-for cycles / orphaned waits).
    pub cycles: usize,
    /// The explorer drained its seed stack (meaningless when `bounded`).
    pub exhausted: bool,
    /// Seeded bounded search (p = 8) rather than exhaustive DFS.
    pub bounded: bool,
    /// Shortest replayable witness among detected events, if any.
    pub witness: Option<String>,
    /// Event details (capped).
    pub reports: Vec<String>,
    /// Scenario/harness errors (capped), including bitwise divergence
    /// when `expect_bitwise` was set.
    pub errors: Vec<String>,
}

impl ModelScenarioResult {
    /// Did the scenario uphold every checked property over the explored
    /// envelope?
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
            && self.races == 0
            && self.lost_updates == 0
            && self.cycles == 0
            && (self.bounded || self.exhausted)
    }
}

/// Cap on stored reports/errors per scenario.
const REPORT_CAP: usize = 4;

/// A pending DFS branch: replay `prefix`, then run free with `sleep` as
/// the sleep set of the state the prefix reaches.
struct Seed {
    prefix: Vec<Decision>,
    sleep: Vec<EnabledChoice>,
}

/// Outcome of one seeded run plus the bookkeeping the DFS needs.
struct SeedRun {
    rec: ExecRecord,
    /// Enabled-but-slept choices encountered at free points (branches the
    /// reduction refused to spawn).
    suppressed: usize,
    /// Prefix replay failed to find its forced choice (harness bug).
    diverged: bool,
}

fn in_sleep(sleep: &[EnabledChoice], c: &EnabledChoice) -> bool {
    sleep.iter().any(|z| z.rank == c.rank && z.kind == c.kind)
}

fn sleep_after(sleep: &[EnabledChoice], fired: &EnabledChoice) -> Vec<EnabledChoice> {
    sleep
        .iter()
        .filter(|z| !z.dependent(fired))
        .cloned()
        .collect()
}

/// Run one execution under a seed: force the prefix, then take the first
/// non-slept enabled choice at every subsequent point.
fn run_seed(sc: &ModelScenario, seed: &Seed) -> SeedRun {
    let mut step = 0usize;
    let mut sleep: Vec<EnabledChoice> = Vec::new();
    let mut suppressed = 0usize;
    let mut diverged = false;
    let mut policy = |enabled: &[EnabledChoice]| -> Option<usize> {
        if step < seed.prefix.len() {
            let want = seed.prefix[step];
            step += 1;
            let found = enabled
                .iter()
                .position(|c| c.rank == want.rank && c.kind == want.kind);
            if found.is_none() {
                diverged = true;
            }
            return found;
        }
        if step == seed.prefix.len() {
            sleep = seed.sleep.clone();
        }
        step += 1;
        suppressed += enabled.iter().filter(|c| in_sleep(&sleep, c)).count();
        let pick = enabled.iter().position(|c| !in_sleep(&sleep, c))?;
        sleep = sleep_after(&sleep, &enabled[pick]);
        Some(pick)
    };
    let rec = run_execution(
        sc.p,
        &sc.body,
        sc.timeout_budget,
        sc.check_races,
        &mut policy,
    );
    SeedRun {
        rec,
        suppressed,
        diverged,
    }
}

/// After a run, seed the unexplored siblings of every free scheduling
/// point, with the sleep sets the recursive sleep-set algorithm would
/// carry. Pushed deepest-point-last so the LIFO stack pops in DFS order.
fn seed_siblings(seed: &Seed, rec: &ExecRecord, stack: &mut Vec<Seed>) {
    let decisions = rec.decisions();
    let mut sleep = seed.sleep.clone();
    for (i, stepr) in rec.steps.iter().enumerate().skip(seed.prefix.len()) {
        let taken = &stepr.enabled[stepr.taken];
        // Siblings: enabled, not slept, ordered after the taken choice
        // (the policy takes the first non-slept, so everything before
        // `taken` is slept).
        let mut sibling_sleep = sleep.clone();
        sibling_sleep.push(taken.clone());
        for c in stepr.enabled.iter().skip(stepr.taken + 1) {
            if in_sleep(&sleep, c) {
                continue;
            }
            let mut prefix = decisions[..i].to_vec();
            prefix.push(Decision {
                rank: c.rank,
                kind: c.kind,
            });
            stack.push(Seed {
                prefix,
                sleep: sleep_after(&sibling_sleep, c),
            });
            sibling_sleep.push(c.clone());
        }
        sleep = sleep_after(&sleep, taken);
    }
}

/// Fold one execution's events and results into the scenario aggregate.
struct Aggregate {
    explored: usize,
    pruned: usize,
    fingerprints: BTreeSet<u64>,
    /// detail -> shortest witness.
    events: BTreeMap<String, String>,
    races: usize,
    lost_updates: usize,
    cycles: usize,
    errors: Vec<String>,
}

impl Aggregate {
    fn new() -> Self {
        Aggregate {
            explored: 0,
            pruned: 0,
            fingerprints: BTreeSet::new(),
            events: BTreeMap::new(),
            races: 0,
            lost_updates: 0,
            cycles: 0,
            errors: Vec::new(),
        }
    }

    fn absorb(&mut self, rec: &ExecRecord) {
        for (count, list) in [
            (&mut self.races, &rec.races),
            (&mut self.lost_updates, &rec.lost_updates),
            (&mut self.cycles, &rec.cycles),
        ] {
            *count += list.len();
            for ev in list {
                let w = witness_string(&ev.witness);
                self.events
                    .entry(ev.detail.clone())
                    .and_modify(|old| {
                        if w.len() < old.len() {
                            *old = w.clone();
                        }
                    })
                    .or_insert(w);
            }
        }
        if let Some(fp) = rec.fingerprint {
            self.fingerprints.insert(fp);
        }
        for e in &rec.errors {
            if self.errors.len() < REPORT_CAP && !self.errors.contains(e) {
                self.errors.push(e.clone());
            }
        }
    }

    fn into_result(
        mut self,
        sc: &ModelScenario,
        exhausted: bool,
        bounded: bool,
    ) -> ModelScenarioResult {
        if sc.expect_bitwise && self.fingerprints.len() > 1 {
            self.errors.push(format!(
                "result diverged across interleavings: {} distinct fingerprints",
                self.fingerprints.len()
            ));
        }
        let witness = self.events.values().min_by_key(|w| w.len()).cloned();
        let reports = self.events.keys().take(REPORT_CAP).cloned().collect();
        ModelScenarioResult {
            name: sc.name.to_string(),
            p: sc.p,
            explored: self.explored,
            pruned: self.pruned,
            distinct_results: self.fingerprints.len(),
            races: self.races,
            lost_updates: self.lost_updates,
            cycles: self.cycles,
            exhausted,
            bounded,
            witness,
            reports,
            errors: self.errors,
        }
    }
}

/// Exhaustive sleep-set DPOR DFS over every interleaving of `sc`.
pub fn explore_exhaustive(sc: &ModelScenario) -> ModelScenarioResult {
    let mut stack = vec![Seed {
        prefix: Vec::new(),
        sleep: Vec::new(),
    }];
    let mut agg = Aggregate::new();
    let mut runs = 0usize;
    let mut exhausted = true;
    while let Some(seed) = stack.pop() {
        if runs >= sc.max_execs {
            exhausted = false;
            break;
        }
        runs += 1;
        let out = run_seed(sc, &seed);
        if out.diverged || out.rec.outcome == Outcome::HarnessError {
            agg.errors.push(format!(
                "harness error replaying prefix {}",
                witness_string(&seed.prefix)
            ));
            continue;
        }
        agg.pruned += out.suppressed;
        match out.rec.outcome {
            Outcome::Completed | Outcome::Deadlock => {
                agg.explored += 1;
                agg.absorb(&out.rec);
                seed_siblings(&seed, &out.rec, &mut stack);
            }
            Outcome::SleepBlocked => {
                // The whole continuation was redundant; nothing to seed
                // (its events, if any, were found on the equivalent
                // explored trace).
                agg.pruned += 1;
            }
            Outcome::HarnessError => unreachable!("handled above"),
        }
    }
    agg.into_result(sc, exhausted, false)
}

/// Deterministic pseudo-random stream (splitmix64) for the bounded
/// search; local copy so [`crate::schedule`]'s stays private.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z = z ^ (z >> 31);
        (z % (n.max(1) as u64)) as usize
    }
}

/// Seeded bounded search: `execs` random maximal interleavings. No
/// completeness claim (`bounded` is set); the same invariants are
/// checked on every execution.
pub fn explore_random(sc: &ModelScenario, execs: usize, seed: u64) -> ModelScenarioResult {
    let mut rng = SplitMix(seed);
    let mut agg = Aggregate::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for _ in 0..execs {
        let mut policy =
            |enabled: &[EnabledChoice]| -> Option<usize> { Some(rng.below(enabled.len())) };
        let rec = run_execution(
            sc.p,
            &sc.body,
            sc.timeout_budget,
            sc.check_races,
            &mut policy,
        );
        if rec.outcome == Outcome::HarnessError {
            agg.errors
                .push("harness error in bounded search".to_string());
            continue;
        }
        if seen.insert(witness_string(&rec.decisions())) {
            agg.explored += 1;
            agg.absorb(&rec);
        }
    }
    agg.into_result(sc, false, true)
}

/// Replay a recorded decision prefix (e.g. a race witness) and continue
/// first-enabled to a maximal execution — the "replayable witness" API
/// the negative controls exercise.
pub fn replay_decisions(sc: &ModelScenario, prefix: &[Decision]) -> ExecRecord {
    let mut step = 0usize;
    let mut policy = |enabled: &[EnabledChoice]| -> Option<usize> {
        let pick = if step < prefix.len() {
            let want = prefix[step];
            enabled
                .iter()
                .position(|c| c.rank == want.rank && c.kind == want.kind)
        } else {
            Some(0)
        };
        step += 1;
        pick
    };
    run_execution(
        sc.p,
        &sc.body,
        sc.timeout_budget,
        sc.check_races,
        &mut policy,
    )
}

// ---------------------------------------------------------------------------
// The production scenario corpus.
// ---------------------------------------------------------------------------

fn wire<T>(r: Result<T, CommError>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

fn scenario(
    name: &'static str,
    p: usize,
    body: ModelRankFn,
    timeout_budget: u32,
    check_races: bool,
    expect_bitwise: bool,
) -> ModelScenario {
    ModelScenario {
        name,
        p,
        body,
        timeout_budget,
        check_races,
        expect_bitwise,
        max_execs: 60_000,
    }
}

fn sc_allreduce_tree(p: usize, name: &'static str) -> ModelScenario {
    scenario(
        name,
        p,
        Arc::new(|mut t: ModelTransport| {
            let mut v = order_sensitive_input(t.rank(), 4);
            wire(allreduce_tree(&mut t, &mut v))?;
            Ok(v)
        }),
        0,
        true,
        true,
    )
}

fn sc_reduce_root1(p: usize) -> ModelScenario {
    scenario(
        "reduce_tree_root1",
        p,
        Arc::new(|mut t: ModelTransport| {
            let mut v = order_sensitive_input(t.rank(), 4);
            wire(reduce_tree(&mut t, 1, &mut v))?;
            Ok(v)
        }),
        0,
        true,
        true,
    )
}

fn sc_sparse(p: usize) -> ModelScenario {
    scenario(
        "sparse_allreduce_tree",
        p,
        Arc::new(|mut t: ModelTransport| {
            let rank = t.rank();
            let dense: Vec<f32> = order_sensitive_input(rank, 6)
                .into_iter()
                .enumerate()
                .map(|(j, x)| if (rank + j).is_multiple_of(2) { x } else { 0.0 })
                .collect();
            let mut sv = SparseVec::from_dense(&dense);
            let mut profile = SparseLevelProfile::default();
            let opts = SparseTreeOpts::default();
            wire(sparse_allreduce_tree_v2(
                &mut t,
                &mut sv,
                opts,
                &mut profile,
            ))?;
            Ok(sv.to_dense())
        }),
        0,
        true,
        true,
    )
}

fn sc_ring(p: usize) -> ModelScenario {
    scenario(
        "allreduce_ring",
        p,
        Arc::new(|mut t: ModelTransport| {
            let mut v = order_sensitive_input(t.rank(), 4);
            wire(allreduce_ring(&mut t, &mut v))?;
            Ok(v)
        }),
        0,
        true,
        true,
    )
}

fn sc_back_to_back(p: usize) -> ModelScenario {
    scenario(
        "back_to_back_allreduce",
        p,
        Arc::new(|mut t: ModelTransport| {
            let mut a = order_sensitive_input(t.rank(), 3);
            wire(allreduce_tree(&mut t, &mut a))?;
            let mut b: Vec<f32> = a.iter().map(|x| x * 0.5).collect();
            wire(allreduce_tree(&mut t, &mut b))?;
            a.extend(b);
            Ok(a)
        }),
        0,
        true,
        true,
    )
}

fn sc_hierarchical() -> ModelScenario {
    // 2 groups × 2 learners over one 4-rank world: the GroupedComm bundle
    // is assembled from subgroup views (the rank pairs of the three scopes
    // are disjoint, so their tag spaces cannot collide).
    scenario(
        "hierarchical_2x2",
        4,
        Arc::new(|t: ModelTransport| {
            let rank = t.rank();
            let group = rank / 2;
            let local = t.subgroup(&[group * 2, group * 2 + 1]);
            let leaders = if rank.is_multiple_of(2) {
                Some(t.subgroup(&[0, 2]))
            } else {
                None
            };
            let mut gc = GroupedComm {
                global: t,
                local,
                leaders,
                group,
            };
            let mut v = order_sensitive_input(rank, 4);
            wire(hierarchical_allreduce(&mut gc, &mut v))?;
            Ok(v)
        }),
        0,
        true,
        true,
    )
}

/// Serve this rank's shard of `layout` from zeros; the rank's result is
/// the segment the learners left behind.
fn shard_body(mut t: ModelTransport, layout: &PsLayout) -> Result<Vec<f32>, String> {
    serve_shard(&mut t, layout, &vec![0.0; layout.dim]).map_err(|e| e.to_string())
}

/// 2 learners + 1 shard over a 3-rank world. Learners assert their own
/// add is visible in their subsequent pull (per-src FIFO + causality);
/// the shard's final segment is the bitwise-checked result. The wildcard
/// race check stays off: the shard's arrival-order merge is *by design*
/// order-insensitive here, and the bitwise check across all
/// interleavings is the property that verifies it.
fn sc_ps(snapshot: bool) -> ModelScenario {
    let layout = PsLayout {
        p: 2,
        shards: 1,
        dim: 2,
    };
    scenario(
        if snapshot {
            "ps_snapshot"
        } else {
            "ps_transport"
        },
        3,
        Arc::new(move |t: ModelTransport| {
            let rank = t.rank();
            if rank == 2 {
                return shard_body(t, &layout);
            }
            // Snapshot variant: learner 0 runs a second add+pull round, so
            // pull monotonicity is checked against a *moving* shard state.
            // Asymmetric on purpose — both learners at 2 rounds pushes the
            // interleaving count past the exhaustion budget without adding
            // coverage (the second learner's rounds are symmetric).
            let rounds = if snapshot && rank == 0 { 2usize } else { 1 };
            let delta = vec![(rank + 1) as f32, (10 * (rank + 1)) as f32];
            let mut client = PsTransportClient::new(t, layout);
            let mut prev = vec![f32::NEG_INFINITY; 2];
            for _ in 0..rounds {
                client.add(&delta).map_err(|e| e.to_string())?;
                let pulled = client
                    .pull(Duration::from_millis(50))
                    .map_err(|e| e.to_string())?;
                for ((a, d), pv) in pulled.iter().zip(&delta).zip(&prev) {
                    if a < d {
                        return Err(format!("own add not visible in pull: got {a}, sent {d}"));
                    }
                    if a < pv {
                        return Err(format!(
                            "pull went backwards: {a} after {pv} (torn snapshot)"
                        ));
                    }
                }
                prev = pulled;
            }
            Ok(vec![])
        }),
        0,
        false,
        true,
    )
}

/// One writer, one `pull_snapshot` reader, two one-element shards
/// (`dim == shards`, the layout where an add is as short as a control
/// word). The writer's add reaches the shards at independent times, so a
/// plain pull can be torn; every cut `pull_snapshot` *returns* must be
/// uniform across the shards. The scheduler may starve the writer's add at
/// one shard for as long as the reader keeps asking, so running out of
/// retries is a legal outcome — returning a torn cut is not.
fn sc_ps_snapshot_two_shards() -> ModelScenario {
    let layout = PsLayout {
        p: 2,
        shards: 2,
        dim: 2,
    };
    scenario(
        "ps_snapshot_two_shards",
        4,
        Arc::new(move |t: ModelTransport| {
            let rank = t.rank();
            if rank >= layout.p {
                return shard_body(t, &layout);
            }
            let mut client = PsTransportClient::new(t, layout);
            if rank == 0 {
                client.add(&[1.0, 1.0]).map_err(|e| e.to_string())?;
                return Ok(vec![]);
            }
            match client.pull_snapshot(Duration::from_millis(50), 1) {
                Ok(x) if x[0].to_bits() == x[1].to_bits() => Ok(vec![]),
                Ok(x) => Err(format!("torn snapshot returned: {x:?}")),
                Err(PsTransportError::SnapshotContention { .. }) => Ok(vec![]),
                Err(e) => Err(e.to_string()),
            }
        }),
        0,
        false,
        true,
    )
}

fn sc_ft_fault_free(p: usize) -> ModelScenario {
    scenario(
        "ft_allreduce_fault_free",
        p,
        Arc::new(|mut t: ModelTransport| {
            let mut membership = Membership::new(t.size());
            let mut v = order_sensitive_input(t.rank(), 3);
            let out = ft_allreduce(&mut t, &mut membership, &mut v, Duration::from_millis(10))
                .map_err(|e| e.to_string())?;
            if !out.lost.is_empty() {
                return Err(format!("unexpected eviction: {:?}", out.lost));
            }
            v.push(out.epoch as f32);
            Ok(v)
        }),
        0,
        true,
        true,
    )
}

fn sc_ft_one_dead(p: usize) -> ModelScenario {
    scenario(
        "ft_allreduce_one_dead",
        p,
        Arc::new(move |mut t: ModelTransport| {
            if t.rank() == p - 1 {
                // Dies before contributing: its endpoint drop is the
                // hangup the survivors detect and evict.
                return Ok(vec![]);
            }
            let mut membership = Membership::new(p);
            let mut v = order_sensitive_input(t.rank(), 3);
            let out = ft_allreduce(&mut t, &mut membership, &mut v, Duration::from_millis(10))
                .map_err(|e| e.to_string())?;
            if out.lost != vec![p - 1] {
                return Err(format!(
                    "expected to evict rank {}, lost {:?}",
                    p - 1,
                    out.lost
                ));
            }
            v.push(out.epoch as f32);
            Ok(v)
        }),
        0,
        false,
        true,
    )
}

/// Shared tiny training fixture for the engine scenarios: 8 samples, 2
/// features, 2 classes — identical on every rank and every execution.
fn engine_fixture() -> (Dataset, Dataset) {
    let n = 8usize;
    let x: Vec<f32> = (0..n * 2)
        .map(|i| ((i * 37 % 11) as f32) / 11.0 - 0.5)
        .collect();
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
    let train = Dataset::new(x, labels, &[2], 2);
    let tx: Vec<f32> = (0..8).map(|i| ((i * 53 % 7) as f32) / 7.0 - 0.5).collect();
    let tlabels: Vec<usize> = (0..4).map(|i| (i + 1) % 2).collect();
    (train, Dataset::new(tx, tlabels, &[2], 2))
}

/// One engine rank of `algo` over the model transport on the tiny
/// fixture: the production rank loop, batch orders and all, in a world of
/// the algorithm's learners plus `shards` parameter-server ranks.
fn engine_scenario(name: &'static str, algo: Algorithm, shards: usize) -> ModelScenario {
    scenario(
        name,
        algo.learners() + shards,
        Arc::new(move |t: ModelTransport| {
            let (train, test) = engine_fixture();
            let cfg = TrainConfig::new(1, 2, 0.05, 7);
            let model = || tiny_mlp(2, 3, 2, &mut SeedRng::new(42));
            let hist =
                run_rank(t, &model, &train, &test, &algo, &cfg).map_err(|e| e.to_string())?;
            hist.final_params
                .ok_or_else(|| "no final params".to_string())
        }),
        0,
        true,
        true,
    )
}

fn sc_engine_sasgd() -> ModelScenario {
    engine_scenario(
        "engine_sasgd_rank",
        Algorithm::sasgd(2, 1, GammaP::OverP),
        0,
    )
}

fn sc_engine_dasgd() -> ModelScenario {
    engine_scenario(
        "engine_dasgd_delayed_average",
        Algorithm::DelayedAvg { p: 2, t: 1 },
        0,
    )
}

/// Downpour at p = 1 against its one shard, `run_rank` on both ranks: the
/// learner's claims, pushes and retry-laddered pulls interleave with the
/// shard's serve loop every way the wire allows, and both ranks' final
/// parameters must not notice.
fn sc_engine_downpour() -> ModelScenario {
    let algo = Algorithm::Downpour {
        p: 1,
        t: 1,
        staleness_gamma: false,
    };
    engine_scenario("engine_downpour_rank", algo, 1)
}

/// The production pull-retry ladder ([`PsTransportClient::pull_retry`])
/// against the production shard: the learner re-requests after a deadline
/// miss, and the model's timeout budget bounds how many misses an
/// interleaving may inject. Two misses per interleaving and two retries:
/// the third attempt must be served (exactly the ladder's worst case), a
/// late reply to an abandoned attempt must never satisfy a later one, and
/// every interleaving ends with the learner holding the parameters.
fn sc_downpour_retry() -> ModelScenario {
    let layout = PsLayout {
        p: 1,
        shards: 1,
        dim: 1,
    };
    scenario(
        "downpour_pull_retry",
        2,
        Arc::new(move |t: ModelTransport| {
            if t.rank() == 1 {
                return shard_body(t, &layout);
            }
            let mut client = PsTransportClient::new(t, layout);
            client.add(&[42.0]).map_err(|e| e.to_string())?;
            client
                .pull_retry(Duration::from_millis(20), 2, Duration::ZERO)
                .map_err(|e| e.to_string())
        }),
        2,
        true,
        true,
    )
}

/// The exhaustive (p ≤ 4) production corpus.
pub fn model_scenarios() -> Vec<ModelScenario> {
    vec![
        sc_allreduce_tree(2, "allreduce_tree_p2"),
        sc_allreduce_tree(3, "allreduce_tree_p3"),
        sc_allreduce_tree(4, "allreduce_tree_p4"),
        sc_reduce_root1(4),
        sc_sparse(3),
        sc_ring(3),
        sc_back_to_back(3),
        sc_hierarchical(),
        sc_ps(false),
        sc_ps(true),
        sc_ps_snapshot_two_shards(),
        sc_ft_fault_free(3),
        sc_ft_one_dead(3),
        sc_engine_sasgd(),
        sc_engine_dasgd(),
        sc_engine_downpour(),
        sc_downpour_retry(),
    ]
}

/// Run the whole production sweep: exhaustive DPOR at p ≤ 4, seeded
/// bounded search at p = 8.
pub fn run_model_sweep() -> Vec<ModelScenarioResult> {
    let mut out: Vec<ModelScenarioResult> =
        model_scenarios().iter().map(explore_exhaustive).collect();
    let p8 = sc_allreduce_tree(8, "allreduce_tree_p8_bounded");
    out.push(explore_random(&p8, 12, 0x0005_a56d));
    let ring8 = ModelScenario {
        name: "allreduce_ring_p8_bounded",
        ..sc_ring(8)
    };
    out.push(explore_random(&ring8, 8, 0x00c0_ffee));
    out
}

// ---------------------------------------------------------------------------
// Negative controls: the implanted bugs the checker must catch.
// ---------------------------------------------------------------------------

/// What the model checker's self-check produced. Every field must hold
/// for the analyzer to report `ok` — a silently dead checker cannot go
/// green.
#[derive(Debug, Clone)]
pub struct ModelSelfCheck {
    /// Races found in the implanted arrival-order reduce.
    pub bad_reduce_races: usize,
    /// Minimal replay string witnessing the race.
    pub bad_reduce_witness: String,
    /// Replaying the witness re-detects the race deterministically.
    pub bad_reduce_replay_confirms: bool,
    /// Lost updates found in the implanted load/store PS cell.
    pub lost_updates_caught: usize,
    /// Replay string for the first lost update.
    pub lost_update_witness: String,
    /// The read-modify-write twin of the same access pattern is clean.
    pub rmw_clean: bool,
    /// The implanted recv cycle was detected structurally.
    pub cycle_caught: bool,
    /// The cycle report (names every blocked `(src, tag)` edge).
    pub cycle_report: String,
}

impl ModelSelfCheck {
    /// All implanted bugs caught, by the right detector, with replayable
    /// witnesses.
    pub fn ok(&self) -> bool {
        self.bad_reduce_races > 0
            && !self.bad_reduce_witness.is_empty()
            && self.bad_reduce_replay_confirms
            && self.lost_updates_caught > 0
            && self.rmw_clean
            && self.cycle_caught
            && self.cycle_report.contains("blocked on")
    }
}

/// The implanted arrival-order reduce over the model world: the root's
/// wildcard receive can match concurrent, bitwise-different children —
/// a happens-before race the checker must flag (with a replay string).
pub fn sc_bad_reduce() -> ModelScenario {
    scenario(
        "bad_reduce_arrival_order",
        3,
        Arc::new(|mut t: ModelTransport| {
            let mut v = order_sensitive_input(t.rank(), 4);
            bad_reduce_arrival_order(&mut t, 0, &mut v);
            Ok(v)
        }),
        0,
        true,
        false,
    )
}

/// The implanted PS lost update: read-then-blind-write on a shared cell.
pub fn sc_lost_update() -> ModelScenario {
    scenario(
        "implanted_lost_update",
        2,
        Arc::new(|mut t: ModelTransport| {
            let v = t.cell_load(0).map_err(|e| e.to_string())?;
            t.cell_store(0, v + 1.0).map_err(|e| e.to_string())?;
            Ok(vec![])
        }),
        0,
        false,
        false,
    )
}

/// The clean twin: the same increments through the scheduler-mediated
/// read-modify-write, which joins the cell clock and cannot lose writes.
pub fn sc_rmw_clean() -> ModelScenario {
    scenario(
        "rmw_increment_clean",
        2,
        Arc::new(|mut t: ModelTransport| {
            t.cell_add(0, 1.0).map_err(|e| e.to_string())?;
            Ok(vec![])
        }),
        0,
        false,
        false,
    )
}

/// The implanted recv cycle: every rank receives from its neighbour
/// before sending — a pure wait-for cycle the checker must report
/// structurally (no watchdog involved).
pub fn sc_recv_cycle() -> ModelScenario {
    scenario(
        "implanted_recv_cycle",
        2,
        Arc::new(|mut t: ModelTransport| {
            let peer = (t.rank() + 1) % 2;
            let v = t.recv(peer, 99).map_err(|e| e.to_string())?;
            wire(t.send(peer, 99, v.clone()))?;
            Ok(v)
        }),
        0,
        false,
        false,
    )
}

/// Run all negative controls and assemble the self-check verdict.
pub fn model_self_checks() -> ModelSelfCheck {
    let bad = sc_bad_reduce();
    let bad_res = explore_exhaustive(&bad);
    let bad_reduce_witness = bad_res.witness.clone().unwrap_or_default();
    let bad_reduce_replay_confirms = match crate::model::parse_witness(&bad_reduce_witness) {
        Some(prefix) if !prefix.is_empty() => {
            let rec = replay_decisions(&bad, &prefix);
            !rec.races.is_empty()
        }
        _ => false,
    };
    let lost = explore_exhaustive(&sc_lost_update());
    let rmw = explore_exhaustive(&sc_rmw_clean());
    let cyc = explore_exhaustive(&sc_recv_cycle());
    ModelSelfCheck {
        bad_reduce_races: bad_res.races,
        bad_reduce_witness,
        bad_reduce_replay_confirms,
        lost_updates_caught: lost.lost_updates,
        lost_update_witness: lost.witness.unwrap_or_default(),
        rmw_clean: rmw.lost_updates == 0 && rmw.races == 0 && rmw.cycles == 0,
        cycle_caught: cyc.cycles > 0,
        cycle_report: cyc.reports.first().cloned().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_two_rank_sends_prune_the_commuted_order() {
        // Two independent sends to different channels: 2 interleavings,
        // 1 trace — DPOR must explore one and prune the other.
        let sc = scenario(
            "two_independent_sends",
            2,
            Arc::new(|mut t: ModelTransport| {
                let peer = (t.rank() + 1) % 2;
                wire(t.send(peer, 5, vec![t.rank() as f32]))?;
                let v = wire(t.recv(peer, 5))?;
                Ok(v)
            }),
            0,
            true,
            true,
        );
        let res = explore_exhaustive(&sc);
        assert!(res.ok(), "{res:?}");
        assert!(res.exhausted);
        assert!(res.pruned > 0, "commuted order must be pruned: {res:?}");
        assert_eq!(res.distinct_results, 1);
    }

    #[test]
    fn allreduce_tree_p3_is_clean_and_exhaustive() {
        let res = explore_exhaustive(&sc_allreduce_tree(3, "allreduce_tree_p3"));
        assert!(res.ok(), "{res:?}");
        assert!(res.exhausted);
        assert!(res.explored >= 1);
    }

    #[test]
    fn bad_reduce_race_is_found_with_replayable_witness() {
        let check = model_self_checks();
        assert!(check.bad_reduce_races > 0, "{check:?}");
        assert!(check.bad_reduce_replay_confirms, "{check:?}");
        assert!(check.lost_updates_caught > 0, "{check:?}");
        assert!(check.rmw_clean, "{check:?}");
        assert!(check.cycle_caught, "{check:?}");
        assert!(check.cycle_report.contains("wait-for cycle"), "{check:?}");
        assert!(check.ok(), "{check:?}");
    }

    #[test]
    fn engine_downpour_rank_is_bitwise_across_interleavings() {
        let res = explore_exhaustive(&sc_engine_downpour());
        assert!(res.ok(), "{res:?}");
        // The learner's async push races its shard's serve loop, so there
        // is more than one trace — and one result.
        assert!(res.explored > 1, "{res:?}");
        assert_eq!(res.distinct_results, 1, "{res:?}");
    }

    #[test]
    fn downpour_retry_always_ends_served() {
        let res = explore_exhaustive(&sc_downpour_retry());
        assert!(res.ok(), "{res:?}");
        // The timeout budget makes deadline branches real choices, so the
        // retry ladder itself is explored.
        assert!(res.explored > 1, "{res:?}");
    }
}
