//! # sasgd-analysis
//!
//! Repo-invariant static analysis and schedule exploration for the SASGD
//! workspace. Two legs, one verdict:
//!
//! 1. **Lint pass** ([`lints`], [`scan`]) — a hand-rolled lexer
//!    ([`lexer`]; the workspace vendors no `syn`) drives six repo-specific
//!    lints that encode the invariants the paper reproduction depends on:
//!    deterministic iteration (`map-iter`), audited unsafety (`unsafe`),
//!    wall-clock containment (`wall-clock`), structured concurrency
//!    (`raw-spawn`), allocation-free hot paths (`hot-alloc`), and explicit
//!    float↔int conversions in gradient math (`float-cast`). Suppression
//!    is per-site: `// lint:allow(<id>): <justification>`.
//!
//! 2. **Model checker** ([`model`], [`vclock`], [`dpor`], [`corpus`]) — a
//!    `Transport` impl routes every operation through a cooperative
//!    scheduler that owns all nondeterminism, and a sleep-set DPOR
//!    explorer enumerates **every inequivalent interleaving** of the
//!    scenario corpus at p ≤ 4 (seeded bounded search at p = 8). Races
//!    and lost updates are happens-before violations on vector clocks;
//!    deadlocks are wait-for-graph cycles with the exact blocked-op cycle
//!    in the report; every finding carries a replayable decision-sequence
//!    witness. Every corpus body is generic over `Transport`, and
//!    [`crosscheck`] runs the deterministic rows once on OS threads over
//!    the production transport, bitwise against the model's result.
//!
//! Both legs self-check against deliberate failures (a bad-fixture lint
//! corpus; an arrival-order reduce, a PS lost update, and a recv cycle)
//! so a silently dead analyzer cannot go green. Entry point: [`run_all`],
//! surfaced as `repro analyze` in `sasgd-bench` and as a CI gate.

pub mod corpus;
pub mod crosscheck;
pub mod dpor;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod report;
pub mod scan;
pub mod vclock;

use report::{Analysis, ModelReport};
use scan::{fixtures_dir, lint_fixture_corpus, lint_repo, repo_root};

/// Run the lint leg only (real tree + fixture self-check).
pub fn run_lints() -> (usize, Vec<lints::Violation>, usize, usize) {
    let run = lint_repo(&repo_root());
    let (fixture_files, fixture_violations) = lint_fixture_corpus(&fixtures_dir());
    (
        run.files_scanned,
        run.violations,
        fixture_files,
        fixture_violations.len(),
    )
}

/// Run the model-checker leg only: the DPOR sweep over the scenario
/// corpus, the real-thread cross-check of its deterministic rows, and the
/// implanted-bug self-check.
pub fn run_model_checks() -> ModelReport {
    let corpus = corpus::corpus();
    let scenarios: Vec<_> = corpus.iter().map(dpor::explore).collect();
    ModelReport {
        real_thread: crosscheck::cross_check(&corpus, &scenarios),
        scenarios,
        self_check: corpus::model_self_checks(),
    }
}

/// Run both legs and assemble the full [`Analysis`].
pub fn run_all() -> Analysis {
    let (files_scanned, violations, fixture_files, fixture_violations) = run_lints();
    Analysis {
        files_scanned,
        violations,
        fixture_violations,
        fixture_files,
        model: run_model_checks(),
    }
}
