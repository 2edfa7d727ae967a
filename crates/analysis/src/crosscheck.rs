//! The real-thread cross-check: one run of the corpus over the production
//! transport, held bitwise to the model's result.
//!
//! The DPOR sweep proves every row schedule-independent over
//! [`crate::model::ModelTransport`]. What carries that to the transport a
//! training run uses is (a) one failure-semantics table, which the model
//! transport's tests check under the scheduler DPOR drives and the
//! `Transport` conformance suite checks on the real transports, and (b)
//! this: every corpus row whose outcome on OS threads is deterministic runs
//! **once** over [`CommWorld`] — the same generic body, instantiated for
//! [`Communicator`] — and its per-rank results must fingerprint to exactly
//! what every explored interleaving of the model computed. A default
//! receive deadline on every endpoint turns a hang into a typed `Timeout`
//! the row reports.

use std::sync::Arc;

use sasgd_comm::world::{CommWorld, Communicator};

use crate::corpus::{world_fingerprint, WAIT};
use crate::dpor::{ModelScenario, ModelScenarioResult};
use crate::model::RankOutcome;

/// One rank of a real-thread world, ready to run on its own thread.
pub type RankThunk = Box<dyn FnOnce() -> RankOutcome + Send>;

/// Builds a fresh production world and hands back its ranks.
pub type RealWorld = Arc<dyn Fn() -> Vec<RankThunk> + Send + Sync>;

/// A flat [`CommWorld`] of `p` ranks, each running `body`.
pub fn flat(
    p: usize,
    body: impl Fn(Communicator) -> RankOutcome + Send + Sync + 'static,
) -> RealWorld {
    let body = Arc::new(body);
    Arc::new(move || {
        let mut world = CommWorld::new(p);
        world
            .set_default_deadline(Some(WAIT))
            .expect("deadline set before the split");
        let ranks = world.communicators().into_iter();
        ranks
            .map(|c| {
                let body = Arc::clone(&body);
                Box::new(move || body(c)) as RankThunk
            })
            .collect()
    })
}

/// What the cross-check found.
#[derive(Debug, Clone, Default)]
pub struct RealThreadReport {
    /// Rows run on OS threads.
    pub rows: usize,
    /// One line per row whose real-thread result is not bitwise the
    /// model's (or that failed outright), naming the row.
    pub mismatches: Vec<String>,
}

impl RealThreadReport {
    /// At least one row ran and every one matched.
    pub fn ok(&self) -> bool {
        self.rows > 0 && self.mismatches.is_empty()
    }
}

/// Run one real-thread world to completion and fingerprint its results.
fn run_world(world: &RealWorld) -> Result<u64, Vec<String>> {
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = world().into_iter().map(|r| scope.spawn(r)).collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    world_fingerprint(outcomes)
}

/// Run every row of `corpus` that has a real-thread instantiation and hold
/// it to `model`'s result for the same row (`model[i]` explored
/// `corpus[i]`).
pub fn cross_check(corpus: &[ModelScenario], model: &[ModelScenarioResult]) -> RealThreadReport {
    let mut report = RealThreadReport::default();
    for (sc, m) in corpus.iter().zip(model) {
        let Some(world) = &sc.real else { continue };
        report.rows += 1;
        let verdict = match run_world(world) {
            Err(errors) => Some(errors.join("; ")),
            Ok(_) if m.distinct_results != 1 => Some(format!(
                "the model has {} results to compare against",
                m.distinct_results
            )),
            Ok(fp) if fp != m.fingerprint => Some(format!(
                "real threads computed {fp:016x}, the model {:016x}",
                m.fingerprint
            )),
            Ok(_) => None,
        };
        if let Some(why) = verdict {
            report.mismatches.push(format!("{}: {why}", sc.name));
        }
    }
    report
}
