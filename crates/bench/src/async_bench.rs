//! The `async` repro target: accuracy vs modeled epoch time across the
//! staleness-adaptive strategy lattice, recorded as `BENCH_async.json`.
//!
//! One sweep per learner count (p = 4 and p = 8), all on the simulated
//! backend with per-learner speed jitter so stragglers cost real virtual
//! time: SASGD at a fixed interval (the baseline every row is judged
//! against), then SASGD with an adaptive interval (Local SGD's point) and
//! delayed (DaSGD's point), and Downpour with and without staleness-aware
//! γ. A row "meets target" when it reaches the baseline's final accuracy
//! within one point at a measurably lower modeled epoch time — the
//! lattice's reason to exist. One lattice point is run twice and compared
//! bitwise so `deterministic_replay` is measured, not asserted.

use sasgd_core::algorithms::GammaP;
use sasgd_core::report::ascii_table;
use sasgd_core::{train, Algorithm, History, TSchedule, TrainConfig};
use sasgd_simnet::JitterModel;

use crate::figures::Artifact;
use crate::scale::{cifar_workload, Scale};

/// Aggregation interval shared by every fixed-T lattice point.
const T: usize = 5;
/// Accuracy tolerance against the sync baseline (the ±1 % of the target).
const ACC_TOL: f32 = 0.01;
/// A row must beat the baseline's epoch time by at least this factor to
/// count as "measurably" faster (guards against float dust).
const TIME_MARGIN: f64 = 0.99;

/// SASGD at `γp = γ/p`, uncompressed.
fn sasgd(p: usize, schedule: TSchedule, delayed: bool) -> Algorithm {
    Algorithm::Sasgd {
        p,
        schedule,
        gamma_p: GammaP::OverP,
        compression: None,
        delayed,
    }
}

/// The lattice at a given learner count. The first entry is the SASGD
/// baseline the other rows are measured against.
fn lattice(p: usize) -> Vec<Algorithm> {
    let fixed = |t| TSchedule::Fixed { t };
    let adaptive = TSchedule::AdaptivePlateau {
        t0: T,
        t_max: 4 * T,
        patience: 2,
        rel_improve: 0.05,
    };
    let downpour = |staleness_gamma| Algorithm::Downpour {
        p,
        t: T,
        staleness_gamma,
    };
    vec![
        sasgd(p, fixed(T), false),
        sasgd(p, adaptive, false),
        sasgd(p, fixed(2), true),
        sasgd(p, fixed(T), true),
        sasgd(p, fixed(2 * T), true),
        downpour(false),
        downpour(true),
    ]
}

/// One lattice point's outcome.
pub struct AsyncRow {
    /// Algorithm label.
    pub label: String,
    /// Learner count.
    pub p: usize,
    /// Final test accuracy.
    pub test_acc: f32,
    /// Modeled (virtual) seconds per collective epoch.
    pub epoch_seconds: f64,
    /// Virtual seconds spent communicating/waiting (learner 0, total).
    pub comm_seconds: f64,
    /// Aggregation rounds executed.
    pub sync_rounds: u64,
    /// Mean staleness: the mean interval the rounds ran, in steps, for
    /// SASGD; the measured τ in global updates for Downpour.
    pub staleness_mean: f64,
    /// Whether this row reaches the same-p sync baseline's accuracy
    /// (±`ACC_TOL`) at a measurably lower epoch time. `None` for the
    /// baseline itself.
    pub meets_target: Option<bool>,
}

fn row(algo: &Algorithm, h: &History, baseline: Option<(f32, f64)>) -> AsyncRow {
    let epoch_seconds = h.epoch_seconds();
    AsyncRow {
        label: algo.label(),
        p: algo.learners(),
        test_acc: h.final_test_acc(),
        epoch_seconds,
        comm_seconds: h.records.last().map_or(0.0, |r| r.comm_seconds),
        sync_rounds: h.sync_rounds,
        staleness_mean: h.staleness.as_ref().map_or(0.0, |s| s.mean),
        meets_target: baseline.map(|(acc, secs)| {
            h.final_test_acc() >= acc - ACC_TOL && epoch_seconds < secs * TIME_MARGIN
        }),
    }
}

/// Hand-rolled JSON (the workspace builds offline, with no serde).
pub fn to_json(rows: &[AsyncRow], deterministic_replay: bool, winners_p8: usize) -> String {
    let mut s = format!(
        "{{\n  \"t\": {T},\n  \"acc_tolerance\": {ACC_TOL},\n  \
         \"deterministic_replay\": {deterministic_replay},\n  \
         \"lattice_points_beating_sync_at_p8\": {winners_p8},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let target = match r.meets_target {
            None => "null".to_string(),
            Some(v) => v.to_string(),
        };
        s.push_str(&format!(
            "    {{\"label\": \"{}\", \"p\": {}, \"test_acc\": {:.4}, \
             \"epoch_seconds\": {:.4}, \"comm_seconds\": {:.4}, \
             \"sync_rounds\": {}, \"staleness_mean\": {:.3}, \
             \"meets_target\": {target}}}{}\n",
            r.label,
            r.p,
            r.test_acc,
            r.epoch_seconds,
            r.comm_seconds,
            r.sync_rounds,
            r.staleness_mean,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `async` repro target: the staleness lattice at p = 4 and p = 8,
/// emitted as a report plus `BENCH_async.json`.
pub fn async_lattice(scale: Scale, epochs: Option<usize>) -> Artifact {
    let w = cifar_workload(scale, epochs.or(Some(24)));
    // Run the lattice slightly cooler than the sync-tuned `gamma_hi`: the
    // staleness penalty of the delayed/asynchronous points scales with γ,
    // and the paper's Fig. 5-style comparison is about communication
    // schedules, not learning-rate headroom.
    let mut cfg = TrainConfig::new(w.epochs, w.batch, w.gamma_hi * 0.6, 0xA51C);
    // Per-learner speed spread: the straggler penalty the asynchronous
    // lattice points exist to avoid. Jitter shapes virtual time only, so
    // accuracies stay deterministic.
    cfg.jitter = JitterModel {
        cv: 0.2,
        learner_spread: 0.3,
    };

    let mut rows = Vec::new();
    for p in [4usize, 8] {
        let mut baseline: Option<(f32, f64)> = None;
        for algo in lattice(p) {
            let mut f = &*w.factory;
            let h = train(&mut f, &w.train, &w.test, &algo, &cfg);
            rows.push(row(&algo, &h, baseline));
            if baseline.is_none() {
                baseline = Some((h.final_test_acc(), h.epoch_seconds()));
            }
        }
    }

    // Replay one lattice point and compare bitwise.
    let replay_algo = sasgd(8, TSchedule::Fixed { t: T }, true);
    let mut f1 = &*w.factory;
    let first = train(&mut f1, &w.train, &w.test, &replay_algo, &cfg);
    let mut f2 = &*w.factory;
    let second = train(&mut f2, &w.train, &w.test, &replay_algo, &cfg);
    let deterministic_replay =
        first.final_params.is_some() && first.final_params == second.final_params;

    let winners_p8 = rows
        .iter()
        .filter(|r| r.p == 8 && r.meets_target == Some(true))
        .count();

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.4}", r.test_acc),
                format!("{:.3}", r.epoch_seconds),
                format!("{:.3}", r.comm_seconds),
                r.sync_rounds.to_string(),
                format!("{:.2}", r.staleness_mean),
                r.meets_target.map_or("baseline".into(), |v| v.to_string()),
            ]
        })
        .collect();
    let table = ascii_table(
        &[
            "lattice point",
            "test acc",
            "epoch s (modeled)",
            "comm s",
            "rounds",
            "mean τ",
            "beats sync",
        ],
        &table_rows,
    );
    let report = format!(
        "Staleness lattice — simulated backend, T = {T}, jitter cv 0.2 / \
         spread 0.3, {} epochs\n\n{table}\n\
         \"beats sync\" = reaches the same-p synchronous SASGD accuracy\n\
         (±{ACC_TOL}) at a measurably lower modeled epoch time. At p = 8,\n\
         {winners_p8} lattice points beat the sync baseline. Replay of {}\n\
         is bitwise deterministic: {deterministic_replay}.\n",
        w.epochs,
        replay_algo.label()
    );
    Artifact {
        name: "async".into(),
        report,
        csvs: vec![(
            "BENCH_async.json".into(),
            to_json(&rows, deterministic_replay, winners_p8),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_and_flags() {
        let rows = vec![
            AsyncRow {
                label: "SASGD(p=8,T=5)".into(),
                p: 8,
                test_acc: 0.8,
                epoch_seconds: 2.0,
                comm_seconds: 1.0,
                sync_rounds: 10,
                staleness_mean: 5.0,
                meets_target: None,
            },
            AsyncRow {
                label: "SASGD-delayed(p=8,T=5)".into(),
                p: 8,
                test_acc: 0.795,
                epoch_seconds: 1.5,
                comm_seconds: 0.2,
                sync_rounds: 10,
                staleness_mean: 1.0,
                meets_target: Some(true),
            },
        ];
        let j = to_json(&rows, true, 1);
        assert!(j.contains("\"deterministic_replay\": true"));
        assert!(j.contains("\"lattice_points_beating_sync_at_p8\": 1"));
        assert!(j.contains("\"meets_target\": null"));
        assert!(j.contains("\"meets_target\": true"));
    }
}
