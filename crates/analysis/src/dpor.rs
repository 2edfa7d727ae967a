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
//! At p = 8 (and for the large parameter-server worlds) the same machinery
//! runs a seeded-random bounded search ([`Search::Random`]): no
//! completeness claim, same invariant checks. [`explore`] is the entry
//! point; a scenario says which search it gets.
//!
//! What is explored — the production rows and the implanted bugs — lives
//! in [`crate::corpus`]; this file is the explorer alone.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::crosscheck::RealWorld;
use crate::model::{
    run_execution, witness_string, Decision, EnabledChoice, ExecRecord, ModelRankFn,
    ModelTransport, Outcome, Policy, RankOutcome,
};

/// How a scenario's interleavings are searched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Search {
    /// Sleep-set DPOR DFS over every inequivalent interleaving.
    Exhaustive,
    /// `execs` seeded-random maximal interleavings (p = 8, large PS worlds).
    Random {
        /// Executions drawn.
        execs: usize,
        /// splitmix64 seed.
        seed: u64,
    },
}

/// A scenario the model checker explores: `p` rank bodies over one
/// controlled world.
#[derive(Clone)]
pub struct ModelScenario {
    /// Scenario name (stable; lands in ANALYSIS.json).
    pub name: String,
    /// World size.
    pub p: usize,
    /// Every rank's body (dispatches on `rank()`).
    pub body: ModelRankFn,
    /// The same body instantiated over the production transport, for the
    /// real-thread cross-check; `None` where the outcome on OS threads
    /// depends on wall-clock deadlines or the body uses model cells.
    pub real: Option<RealWorld>,
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
    /// Exhaustive DFS or seeded bounded search.
    pub search: Search,
}

impl ModelScenario {
    /// A scenario with the defaults most rows keep: exhaustive, race-checked,
    /// bitwise-expected, no timeout budget, no real-thread twin.
    pub fn new(
        name: impl Into<String>,
        p: usize,
        body: impl Fn(ModelTransport) -> RankOutcome + Send + Sync + 'static,
    ) -> Self {
        ModelScenario {
            name: name.into(),
            p,
            body: Arc::new(body),
            real: None,
            timeout_budget: 0,
            check_races: true,
            expect_bitwise: true,
            max_execs: 60_000,
            search: Search::Exhaustive,
        }
    }

    /// One controlled execution of this scenario under `policy`.
    fn run(&self, policy: Policy<'_>) -> ExecRecord {
        run_execution(
            self.p,
            &self.body,
            self.timeout_budget,
            self.check_races,
            policy,
        )
    }
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
    /// The smallest of those fingerprints (0 when no execution completed
    /// cleanly) — with `distinct_results == 1`, *the* bitwise result every
    /// interleaving computes, and what the real-thread run must reproduce.
    pub fingerprint: u64,
    /// Happens-before races at wildcard receives.
    pub races: usize,
    /// Blind writes that clobbered an unobserved write.
    pub lost_updates: usize,
    /// Structural deadlocks (wait-for cycles / orphaned waits).
    pub cycles: usize,
    /// The explorer drained its seed stack (meaningless when `bounded`).
    pub exhausted: bool,
    /// Seeded bounded search rather than exhaustive DFS.
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
    let rec = sc.run(&mut policy);
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
#[derive(Default)]
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
            name: sc.name.clone(),
            p: sc.p,
            explored: self.explored,
            pruned: self.pruned,
            distinct_results: self.fingerprints.len(),
            fingerprint: self.fingerprints.first().copied().unwrap_or(0),
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
fn explore_exhaustive(sc: &ModelScenario) -> ModelScenarioResult {
    let mut stack = vec![Seed {
        prefix: Vec::new(),
        sleep: Vec::new(),
    }];
    let mut agg = Aggregate::default();
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
/// search.
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

/// Explore `sc` the way its [`Search`] says.
pub fn explore(sc: &ModelScenario) -> ModelScenarioResult {
    match sc.search {
        Search::Exhaustive => explore_exhaustive(sc),
        Search::Random { execs, seed } => explore_random(sc, execs, seed),
    }
}

/// Seeded bounded search: `execs` random maximal interleavings. No
/// completeness claim (`bounded` is set); the same invariants are
/// checked on every execution.
fn explore_random(sc: &ModelScenario, execs: usize, seed: u64) -> ModelScenarioResult {
    let mut rng = SplitMix(seed);
    let mut agg = Aggregate::default();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for _ in 0..execs {
        let mut policy =
            |enabled: &[EnabledChoice]| -> Option<usize> { Some(rng.below(enabled.len())) };
        let rec = sc.run(&mut policy);
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
    let seed = Seed {
        prefix: prefix.to_vec(),
        sleep: Vec::new(),
    };
    run_seed(sc, &seed).rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_comm::transport::Transport;

    #[test]
    fn exhaustive_two_rank_sends_prune_the_commuted_order() {
        // Two independent sends to different channels: 2 interleavings,
        // 1 trace — DPOR must explore one and prune the other.
        let sc = ModelScenario::new("two_independent_sends", 2, |mut t| {
            let peer = (t.rank() + 1) % 2;
            let rank = t.rank() as f32;
            t.send(peer, 5, vec![rank]).map_err(|e| e.to_string())?;
            t.recv(peer, 5).map_err(|e| e.to_string())
        });
        let res = explore(&sc);
        assert!(res.ok(), "{res:?}");
        assert!(res.exhausted);
        assert!(res.pruned > 0, "commuted order must be pruned: {res:?}");
        assert_eq!(res.distinct_results, 1);
    }
}
