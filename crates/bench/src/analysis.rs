//! `repro analyze` — the static-analysis and schedule-exploration gate.
//!
//! Runs the two `sasgd-analysis` legs (the repo-invariant lint pass and the
//! DPOR model checker with its real-thread cross-check) and packages the
//! outcome as a bench [`Artifact`]: a human-readable report plus the
//! machine-readable `ANALYSIS.json` CI consumes. The second tuple element
//! is the verdict — `repro` exits nonzero when it is `false`.

use crate::figures::Artifact;

/// Run the analyzer and return `(artifact, ok)`.
pub fn analyze() -> (Artifact, bool) {
    let analysis = sasgd_analysis::run_all();
    let ok = analysis.ok();
    let artifact = Artifact {
        name: "analyze".to_string(),
        report: analysis.to_text(),
        csvs: vec![("ANALYSIS.json".to_string(), analysis.to_json())],
    };
    (artifact, ok)
}
