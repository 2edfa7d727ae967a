//! Integration tests for the lint leg and the real-thread cross-check
//! (the model checker's negative controls are in `model_checker.rs`).
//!
//! * The lint pass must fire on every bad fixture, stay silent on every
//!   good fixture, and report **zero** violations on the real tree.
//! * The cross-check must find the production transport bitwise on the
//!   model's result for every row it covers — and must be able to fail.

use std::collections::BTreeSet;

use sasgd_analysis::corpus::{corpus, order_sensitive_input};
use sasgd_analysis::crosscheck::{cross_check, flat};
use sasgd_analysis::dpor::{explore, ModelScenario, Search};
use sasgd_analysis::lints::{call_taint_single, lint_file};
use sasgd_analysis::scan::{fixtures_dir, lint_fixture_corpus, lint_repo, repo_root};
use sasgd_comm::collectives::allreduce_tree;
use sasgd_comm::transport::Transport;

fn fixture_lints(name: &str) -> Vec<&'static str> {
    let path = fixtures_dir().join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let virtual_path = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("// virtual-path:"))
        .map(|s| s.trim().to_string())
        .expect("fixture declares a virtual path");
    // Per-file lints plus the degenerate one-file-crate `call-taint` pass —
    // the same combination `lint_fixture_corpus` runs.
    let mut v = lint_file(&virtual_path, &src);
    v.extend(call_taint_single(&virtual_path, &src));
    v.into_iter().map(|v| v.lint).collect()
}

#[test]
fn every_bad_fixture_fires_its_lint() {
    // Two `use`s plus two signature mentions: the lint is per occurrence.
    assert_eq!(
        fixture_lints("bad/map_iter.rs"),
        vec!["map-iter", "map-iter", "map-iter", "map-iter"]
    );
    assert_eq!(fixture_lints("bad/unsafe_unlisted.rs"), vec!["unsafe"]);
    assert_eq!(fixture_lints("bad/unsafe_undocumented.rs"), vec!["unsafe"]);
    assert_eq!(
        fixture_lints("bad/wall_clock.rs"),
        vec!["wall-clock", "wall-clock", "wall-clock"]
    );
    // `spawn`, `Builder` and a scoped fork-join outside `parallel.rs`.
    assert_eq!(
        fixture_lints("bad/raw_spawn.rs"),
        vec!["raw-spawn", "raw-spawn", "raw-spawn"]
    );
    assert_eq!(
        fixture_lints("bad/hot_alloc.rs"),
        vec!["hot-alloc", "hot-alloc", "hot-alloc"]
    );
    assert_eq!(
        fixture_lints("bad/float_cast.rs"),
        vec!["float-cast", "float-cast", "float-cast"]
    );
    // `.unwrap()` and `.expect()` each fire once.
    assert_eq!(
        fixture_lints("bad/comm_unwrap.rs"),
        vec!["comm-unwrap", "comm-unwrap"]
    );
    // `assert!`, `assert_eq!`, `assert_ne!`, `unreachable!`, `panic!`;
    // not `debug_assert!`, not the test module.
    assert_eq!(fixture_lints("bad/comm_panic.rs"), vec!["comm-unwrap"; 5]);
    // Both tainted call edges fire: decay_seed -> thread_salt and
    // scale_gradients -> decay_seed.
    assert_eq!(
        fixture_lints("bad/call_taint.rs"),
        vec!["call-taint", "call-taint"]
    );
}

/// The panic-macro half of `comm-unwrap` covers the wire library only:
/// the same source under `core` is clean, and a justified allow silences
/// one site.
#[test]
fn comm_panic_macros_fire_in_the_comm_library_only() {
    let path = fixtures_dir().join("bad/comm_panic.rs");
    let src = std::fs::read_to_string(&path).expect("fixture");
    assert_eq!(lint_file("crates/comm/src/frames.rs", &src).len(), 5);
    assert!(lint_file("crates/core/src/frames.rs", &src).is_empty());
    let allowed = src.replace(
        "    assert!(frame.len()",
        "    // lint:allow(comm-unwrap): the caller sized the frame.\n    assert!(frame.len()",
    );
    assert_eq!(lint_file("crates/comm/src/frames.rs", &allowed).len(), 4);
}

#[test]
fn every_good_fixture_is_clean() {
    for name in [
        "good/map_btree.rs",
        "good/unsafe_documented.rs",
        "good/wall_clock_threaded.rs",
        "good/spawn_comm.rs",
        "good/hot_ws.rs",
        "good/float_promote.rs",
        "good/comm_propagate.rs",
        "good/call_taint_local.rs",
    ] {
        let fired = fixture_lints(name);
        assert!(fired.is_empty(), "{name} fired {fired:?}");
    }
}

#[test]
fn corpus_exercises_every_lint_id() {
    let (files, violations) = lint_fixture_corpus(&fixtures_dir());
    assert!(files >= 18, "expected the full corpus, saw {files} files");
    let fired: BTreeSet<&str> = violations.iter().map(|v| v.lint).collect();
    for id in sasgd_analysis::lints::LINT_IDS {
        assert!(fired.contains(id), "no fixture fires `{id}` — lint is dead");
    }
}

#[test]
fn real_tree_is_clean() {
    let run = lint_repo(&repo_root());
    assert!(
        run.files_scanned > 40,
        "scan found only {} files",
        run.files_scanned
    );
    let msgs: Vec<String> = run
        .violations
        .iter()
        .map(|v| format!("[{}] {}:{} {}", v.lint, v.file, v.line, v.message))
        .collect();
    assert!(
        msgs.is_empty(),
        "lint violations on the real tree:\n{}",
        msgs.join("\n")
    );
}

// ---------------------------------------------------------------------------
// Real-thread cross-check.
// ---------------------------------------------------------------------------

/// Every row with a real-thread instantiation, minus the two exhaustive
/// snapshot rows (a minute of exploration `repro analyze` already pays;
/// their bodies run here at `ps_transport`'s and the bounded worlds' size).
fn cross_checked_rows() -> Vec<ModelScenario> {
    let slow = ["ps_snapshot", "ps_snapshot_two_shards"];
    let rows = corpus().into_iter();
    rows.filter(|sc| sc.real.is_some() && !slow.contains(&sc.name.as_str()))
        .collect()
}

#[test]
fn production_transport_is_bitwise_the_model_on_every_covered_row() {
    let rows = cross_checked_rows();
    let model: Vec<_> = rows.iter().map(explore).collect();
    for m in &model {
        assert!(m.ok(), "{m:?}");
        assert_eq!(m.distinct_results, 1, "{m:?}");
    }
    let report = cross_check(&rows, &model);
    assert!(report.rows >= 10, "only {} rows cross-checked", report.rows);
    assert!(report.ok(), "{:#?}", report.mismatches);
}

/// The corpus keeps the deleted delay sweep's envelope: exhaustive rows at
/// p = 4 for every collective it swept there, bounded rows at p = 8, and
/// the three many-pusher PS worlds.
#[test]
fn corpus_covers_the_deleted_sweeps_envelope() {
    let rows = corpus();
    let find = |name: &str| {
        let row = rows.iter().find(|sc| sc.name == name);
        row.unwrap_or_else(|| panic!("{name} missing from the corpus"))
    };
    for name in [
        "allreduce_tree_p4",
        "members_1to3_of_4",
        "sparse_allreduce_tree_p4",
        "back_to_back_allreduce_p4",
        "hierarchical_2x2",
        "ft_allreduce_fault_free_p4",
        "ft_allreduce_one_dead_p4",
        "ft_sparse_fault_free_p4",
        "ft_sparse_one_dead_p4",
    ] {
        let sc = find(name);
        assert_eq!((sc.p, sc.search), (4, Search::Exhaustive), "{name}");
    }
    for (name, p) in [
        ("allreduce_tree_p8_bounded", 8),
        ("sparse_allreduce_tree_p8_bounded", 8),
        ("hierarchical_2x4_bounded", 8),
        ("ft_allreduce_fault_free_p8_bounded", 8),
        ("ft_allreduce_one_dead_p8_bounded", 8),
        ("ps_push_pull_4x2_bounded", 7),
        ("ps_push_pull_8x3_bounded", 12),
        ("ps_snapshot_4x3_bounded", 8),
    ] {
        let sc = find(name);
        assert_eq!(sc.p, p, "{name}");
        assert!(matches!(sc.search, Search::Random { .. }), "{name}");
    }
}

/// The check can fail: perturb one rank's input on the real-thread side
/// only, and the row is reported by name.
#[test]
fn cross_check_names_a_row_whose_real_side_differs() {
    let model_side = |rank: usize| order_sensitive_input(rank, 4);
    let mut row = ModelScenario::new("perturbed_allreduce", 3, move |mut t| {
        let mut v = model_side(t.rank());
        allreduce_tree(&mut t, &mut v).map_err(|e| e.to_string())?;
        Ok(v)
    });
    row.real = Some(flat(3, move |mut c| {
        let mut v = model_side(c.rank());
        if c.rank() == 1 {
            v[0] += 1024.0; // large enough not to be absorbed next to 1e8
        }
        allreduce_tree(&mut c, &mut v).map_err(|e| e.to_string())?;
        Ok(v)
    }));
    let rows = [row];
    let model: Vec<_> = rows.iter().map(explore).collect();
    assert!(model[0].ok(), "{:?}", model[0]);
    let report = cross_check(&rows, &model);
    assert_eq!(report.rows, 1);
    assert!(!report.ok());
    assert!(
        report.mismatches[0].starts_with("perturbed_allreduce: real threads computed"),
        "{:?}",
        report.mismatches
    );
    // Unperturbed, the same row passes — the mismatch is the input's.
    let mut clean = rows[0].clone();
    clean.real = Some(flat(3, move |mut c| {
        let mut v = model_side(c.rank());
        allreduce_tree(&mut c, &mut v).map_err(|e| e.to_string())?;
        Ok(v)
    }));
    assert!(cross_check(&[clean], &model).ok());
}

/// A rank that fails outright on the real side is a mismatch too, not a
/// hang and not a pass.
#[test]
fn cross_check_reports_a_real_side_error() {
    let mut row = ModelScenario::new("real_side_fails", 2, |_t| Ok(vec![1.0]));
    row.real = Some(flat(2, |c| match c.rank() {
        0 => Ok(vec![1.0]),
        _ => Err("boom".to_string()),
    }));
    let rows = [row];
    let model: Vec<_> = rows.iter().map(explore).collect();
    let report = cross_check(&rows, &model);
    assert_eq!(report.mismatches, ["real_side_fails: rank 1: boom"]);
}
