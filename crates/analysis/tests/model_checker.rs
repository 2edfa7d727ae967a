//! Negative controls for the DPOR model checker: every detector must
//! catch its implanted bug — with a replayable witness — and the clean
//! twins must stay clean. These are the tests that prove the checker can
//! see the classes of bug it exists for; `repro analyze` runs the same
//! scenarios as part of the CI gate.

use sasgd_analysis::corpus::{corpus, sc_bad_reduce, sc_lost_update, sc_recv_cycle, sc_rmw_clean};
use sasgd_analysis::dpor::{explore, replay_decisions};
use sasgd_analysis::model::parse_witness;

/// The implanted arrival-order reduce: the root's wildcard receive can
/// match concurrent, bitwise-different children. The checker must flag a
/// happens-before race AND hand back a decision string that replays to
/// the same race deterministically.
#[test]
fn implanted_bad_reduce_yields_replayable_racy_witness() {
    let sc = sc_bad_reduce();
    let r = explore(&sc);
    assert!(r.exhausted, "{r:?}");
    assert!(r.races > 0, "race not detected: {r:?}");
    let witness = r.witness.as_deref().expect("racy witness");
    let prefix = parse_witness(witness).expect("witness parses");
    assert!(!prefix.is_empty(), "empty witness {witness:?}");
    // Minimality in the useful sense: the witness is the decision prefix
    // up to the racy delivery, not a full-execution trace.
    assert!(
        prefix.len() <= 4,
        "witness {witness:?} is not a minimal prefix"
    );
    let rec = replay_decisions(&sc, &prefix);
    assert!(
        !rec.races.is_empty(),
        "replaying {witness:?} did not reproduce the race"
    );
}

/// The implanted PS lost update (load, then blind store) must be caught by
/// the vector-clock check, and the read-modify-write twin of the same
/// access pattern must stay clean — the detector keys on the blind write,
/// not on mere concurrency.
#[test]
fn implanted_lost_update_caught_and_rmw_twin_clean() {
    let lost = explore(&sc_lost_update());
    assert!(lost.lost_updates > 0, "lost update not detected: {lost:?}");
    assert!(
        lost.witness.as_deref().is_some_and(|w| !w.is_empty()),
        "no witness for the lost update: {lost:?}"
    );
    let rmw = explore(&sc_rmw_clean());
    assert_eq!(rmw.lost_updates, 0, "{rmw:?}");
    assert_eq!(rmw.races, 0, "{rmw:?}");
    assert_eq!(rmw.cycles, 0, "{rmw:?}");
    assert!(rmw.exhausted, "{rmw:?}");
}

/// The implanted recv cycle must be reported *structurally* from the
/// wait-for graph — naming each blocked `(src, tag)` edge — not via a
/// wall-clock watchdog.
#[test]
fn implanted_recv_cycle_reported_from_wait_for_graph() {
    let r = explore(&sc_recv_cycle());
    assert!(r.cycles > 0, "cycle not detected: {r:?}");
    let report = r.reports.first().expect("cycle report");
    assert!(report.contains("wait-for cycle"), "{report}");
    assert!(report.contains("blocked on"), "{report}");
    assert!(report.contains("tag 99"), "{report}");
}

/// Spot-check the real corpus: the shipped collectives are clean over the
/// full trace space, and sleep-set DPOR actually prunes (collectives have
/// exactly one Mazurkiewicz trace, so everything beyond the first
/// execution must be pruned, not explored).
#[test]
fn shipped_collectives_are_clean_and_dpor_prunes() {
    let corpus = corpus();
    for name in [
        "allreduce_tree_p3",
        "allreduce_tree_p4",
        "sparse_allreduce_tree_p3",
    ] {
        let sc = corpus
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from corpus"));
        let r = explore(sc);
        assert!(r.ok(), "{name}: {r:?}");
        assert!(r.exhausted, "{name}: {r:?}");
        assert_eq!(r.explored, 1, "{name} has >1 trace: {r:?}");
        assert!(r.pruned > 0, "{name}: DPOR pruned nothing: {r:?}");
    }
}
