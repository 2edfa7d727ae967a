//! `benchmark` — end-to-end threaded training on four fixed workloads, a
//! traced per-layer time budget, and `compare` between two result sets.
//!
//! ```text
//! benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out DIR] [--quick]
//! benchmark compare A.json B.json
//! ```
//!
//! With `--workload`, `run` measures that workload in this process and
//! prints one JSON object as the last line of stdout (the driver's
//! contract). Without it, `run` is the suite: every workload, untraced then
//! traced, each in a child process of its own, merged into
//! `DIR/results.json`.

mod adapter;
mod alloc;
mod compare;
mod json;
mod metrics;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use sasgd_core::Backend;

use adapter::{Built, EngineRun, Fingerprint};
use json::Json;
use metrics::{LayerInputs, MetricDef, Values, END_TO_END, PER_LAYER};
use trace::median;
use workloads::{Algo, Spec, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// The contract this build answers to; `compare` takes its bounds from it.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Minibatches per rank of the correctness slices, and the minibatch cap
/// that keeps them cheap (a slice checks arithmetic, not speed).
const GATE_STEPS: usize = 8;
const GATE_BATCH: usize = 4;
const WARMUP_STEPS: usize = 4;
const QUICK_STEPS: usize = 16;
/// `final_train_loss` must stay below this multiple of ln(classes). A unit
/// ends on 8 evaluation samples of a net still at chance, which over 40
/// seeds read up to 1.024 ln(classes); training that diverged reads far
/// more, or NaN.
const LOSS_CEILING: f64 = 1.10;

struct RunOpts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    quick: bool,
}

const USAGE: &str = "usage: benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out DIR] [--quick]\n       benchmark compare A.json B.json\nworkloads: cnn_seq_p1 cnn_sasgd_p2 nlc_sasgd_p2 nlc_sparse_p2";

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        workload: None,
        seed: 42,
        seconds: 28.0,
        trace: false,
        out: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    alloc::recycle_large_blocks();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|o| match &o.workload {
            Some(name) => {
                let spec = workloads::find(name)
                    .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
                run_workload(spec, &o)
            }
            None => run_suite(&o),
        }),
        Some("compare") if args.len() == 3 => {
            compare::run(Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Gate failures of one run, in words.
#[derive(Default)]
struct Gates(Vec<String>);

impl Gates {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// The instance to time — the workload's inputs for this seed, or their
/// 16-step head with `--quick` — with the timed entry point warmed up on it.
fn instance(spec: &'static Spec, o: &RunOpts, gates: &mut Gates) -> Built {
    let mut built = adapter::build(spec, o.seed);
    if o.quick {
        built = built.head(QUICK_STEPS, spec.batch, spec.eval_cap);
    }
    let warm = built.head(WARMUP_STEPS, spec.batch, 4);
    if let Err(e) = adapter::run_engine(&warm, Backend::Threaded) {
        gates.0.push(format!("warm-up run failed: {e}"));
    }
    built
}

/// One set-up: the instance, and the repo's signature invariant checked on
/// a slice of it — the same algorithm gives bitwise equal parameters on the
/// threaded and the simulated backend. Returns the instance and the slice's
/// operation count.
fn set_up(spec: &'static Spec, o: &RunOpts, gates: &mut Gates) -> (Built, u64) {
    let built = instance(spec, o, gates);
    let slice = built.head(GATE_STEPS, spec.batch.min(GATE_BATCH), 8);
    let threaded = adapter::run_engine(&slice, Backend::Threaded);
    let simulated = adapter::run_engine(&slice, Backend::Simulated);
    match (&threaded, &simulated) {
        (Ok(t), Ok(s)) => gates.check(
            t.params.len > 0 && t.params == s.params,
            || "threaded and simulated final_params differ on the 8-step slice".into(),
        ),
        (Err(e), _) | (_, Err(e)) => gates.0.push(format!("8-step slice failed: {e}")),
    }
    (built, slice.ops())
}

/// The checks a timed unit must pass; returns whether it did.
fn check_unit(b: &Built, u: &EngineRun, gates: &mut Gates) -> bool {
    let before = gates.0.len();
    let name = b.spec.name;
    gates.check(u.records == b.cfg.epochs, || {
        format!(
            "{name}: {} epoch records, expected {}",
            u.records, b.cfg.epochs
        )
    });
    gates.check(u.losses_finite, || format!("{name}: non-finite loss"));
    gates.check(u.retired == 0, || {
        format!("{name}: {} ranks retired", u.retired)
    });
    // A unit is one or two hundred samples: both nets are still at or near
    // the chance plateau (the CNN a hair above or below ln(classes) depending
    // on the seed). The check can tell training that blew up, not training
    // that converged.
    let ceiling = LOSS_CEILING * (b.spec.classes as f64).ln();
    gates.check(u.final_train_loss < ceiling, || {
        format!(
            "{name}: final_train_loss {} is not below {ceiling}",
            u.final_train_loss
        )
    });
    let m = u.params.len as u64;
    let want_wire = match b.spec.algo {
        Algo::Sequential => Some(0),
        Algo::Sasgd { .. } => Some((2 * b.rounds() as u64 + 1) * m),
        // Sparse frames depend on the data; bounded elsewhere in the repo.
        Algo::SasgdSparse { .. } => None,
    };
    if let Some(want) = want_wire {
        gates.check(u.wire_elements == Some(want), || {
            format!(
                "{name}: wire elements {:?}, expected {want}",
                u.wire_elements
            )
        });
    }
    gates.0.len() == before
}

fn run_workload(spec: &'static Spec, o: &RunOpts) -> Result<bool, String> {
    eprintln!("{}: {}", spec.name, spec.why);
    let report = if o.trace {
        traced(spec, o)?
    } else {
        untraced(spec, o)?
    };
    eprintln!("{}", report.table());
    if let Some(dir) = &o.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!(
            "{}.{}.json",
            spec.name,
            if o.trace { "layers" } else { "e2e" }
        ));
        std::fs::write(&path, report.file_json(spec, o).pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(trace) = &report.chrome_trace {
            let path = dir.join(format!("{}.trace.json", spec.name));
            std::fs::write(&path, trace.to_string())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    println!("{}", report.contract_json());
    Ok(report.correct())
}

struct Report {
    defs: &'static [MetricDef],
    values: Values,
    /// Per-unit (or per-set-up) samples behind a timing's median.
    samples: Vec<(&'static str, Vec<f64>)>,
    counts: Vec<(&'static str, Json)>,
    attempted: u64,
    failed: u64,
    gates: Gates,
    chrome_trace: Option<Json>,
}

impl Report {
    fn correct(&self) -> bool {
        self.gates.0.is_empty()
            && self.failed == 0
            && self.values.0.iter().all(|(_, v)| v.is_finite())
    }

    fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.values.to_json(self.defs)),
        ])
    }

    fn file_json(&self, spec: &Spec, o: &RunOpts) -> Json {
        let mut metrics = self.values.to_json(self.defs);
        if let Json::Obj(entries) = &mut metrics {
            for (name, samples) in &self.samples {
                if let Some((_, Json::Obj(m))) = entries.iter_mut().find(|(k, _)| k == name) {
                    m.push(("samples".into(), Json::nums(samples)));
                }
            }
        }
        Json::obj([
            ("workload", Json::Str(spec.name.into())),
            ("seed", Json::Num(o.seed as f64)),
            ("seconds", Json::Num(o.seconds)),
            ("quick", Json::Bool(o.quick)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_gates",
                Json::Arr(self.gates.0.iter().map(|g| Json::Str(g.clone())).collect()),
            ),
            ("counts", Json::obj(self.counts.iter().cloned())),
            ("metrics", metrics),
        ])
    }

    fn table(&self) -> String {
        let mut out = String::new();
        for d in self.defs {
            let v = self.values.get(d.name).unwrap_or(f64::NAN);
            out.push_str(&format!(
                "{:<36} {:>16.6} {:<10} ({} is better)\n",
                d.name, v, d.unit, d.better
            ));
        }
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!(
            "attempted={} failed={} {}\n",
            self.attempted,
            self.failed,
            counts.join(" ")
        ));
        for g in &self.gates.0 {
            out.push_str(&format!("GATE FAILED: {g}\n"));
        }
        out
    }
}

/// Timed `try_run` calls of one instance, with the operations they
/// attempted and failed.
#[derive(Default)]
struct Timed {
    units: Vec<EngineRun>,
    attempted: u64,
    failed: u64,
}

impl Timed {
    /// Time and check one more unit; false when `try_run` itself failed.
    fn run_one(&mut self, b: &Built, gates: &mut Gates) -> bool {
        self.attempted += b.ops();
        match adapter::run_engine(b, Backend::Threaded) {
            Ok(u) => {
                if !check_unit(b, &u, gates) {
                    self.failed += b.ops();
                }
                self.units.push(u);
                true
            }
            Err(e) => {
                gates
                    .0
                    .push(format!("{}: try_run failed: {e}", b.spec.name));
                self.failed += b.ops();
                false
            }
        }
    }

    fn walls(&self) -> Vec<f64> {
        self.units.iter().map(|u| u.wall_s).collect()
    }
}

fn untraced(spec: &'static Spec, o: &RunOpts) -> Result<Report, String> {
    let mut gates = Gates::default();
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..if o.quick { 1 } else { SETUPS } {
        let t0 = Instant::now();
        let built = set_up(spec, o, &mut gates);
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (built, slice_ops) = last.expect("at least one set-up");
    let slice_failed = if gates.0.is_empty() { 0 } else { slice_ops };

    // Whole `try_run` calls back to back until the budget is used: at least
    // one, and none the budget cannot hold at the pace seen so far.
    let mut timed = Timed::default();
    let t0 = Instant::now();
    while timed.run_one(&built, &mut gates) {
        if o.quick || t0.elapsed().as_secs_f64() + median(&timed.walls()) > o.seconds {
            break;
        }
    }
    let units = &timed.units;
    // Deterministic at fixed code: every unit trains the same trajectory.
    if let Some(first) = units.first() {
        let same = units.iter().all(|u| {
            u.final_train_loss.to_bits() == first.final_train_loss.to_bits()
                && u.params == first.params
        });
        gates.check(same, || {
            format!("{}: units of one run disagree bitwise", spec.name)
        });
    }

    let samples = (built.cfg.epochs * built.train.len()) as f64;
    let rate: Vec<f64> = units.iter().map(|u| samples / u.wall_s).collect();
    let epoch_s: Vec<f64> = units
        .iter()
        .map(|u| u.wall_s / built.cfg.epochs as f64)
        .collect();
    let values = Values(vec![
        ("samples_per_s", median(&rate)),
        ("epoch_s", median(&epoch_s)),
        (
            "final_train_loss",
            units.first().map_or(f64::NAN, |u| u.final_train_loss),
        ),
        ("peak_rss_mb", peak_rss_mib()),
        ("setup_s", median(&setup_s)),
    ]);
    Ok(Report {
        defs: &END_TO_END,
        values,
        samples: vec![("samples_per_s", rate), ("epoch_s", epoch_s)],
        counts: vec![
            // Three set-ups, the first of them cold, carry no quartiles:
            // kept for the record, not as samples `compare` takes a spread of.
            ("setup_each_s", Json::nums(&setup_s)),
            ("n_units", Json::Num(units.len() as f64)),
            (
                "n_steps",
                Json::Num(
                    (units.len() * spec.p * built.cfg.epochs * built.steps_per_epoch()) as f64,
                ),
            ),
            ("n_rounds", Json::Num((units.len() * built.rounds()) as f64)),
            (
                "n_epochs",
                Json::Num((units.len() * built.cfg.epochs) as f64),
            ),
            (
                "params_checksum",
                Json::Str(units.first().map_or(String::new(), |u| {
                    format!("{:016x}", u.params.checksum)
                })),
            ),
        ],
        attempted: slice_ops + timed.attempted,
        failed: slice_failed + timed.failed,
        gates,
        chrome_trace: None,
    })
}

fn traced(spec: &'static Spec, o: &RunOpts) -> Result<Report, String> {
    let mut gates = Gates::default();
    let built = instance(spec, o, &mut gates);

    // Replica faithfulness: same parameters as the engine, bitwise, on a
    // slice. A miss marks the per-layer rows stale; it fails no operation.
    let slice = built.head(GATE_STEPS, spec.batch.min(GATE_BATCH), 8);
    let replica_bitwise = match (
        adapter::run_engine(&slice, Backend::Threaded),
        adapter::run_replica(&slice),
    ) {
        (Ok(e), Ok(r)) => {
            e.params.len > 0 && e.params == Fingerprint::of(&r.final_params)
        }
        (Err(e), _) | (_, Err(e)) => {
            gates.0.push(format!("replica slice failed: {e}"));
            false
        }
    };

    // Engine and replica units alternate, so the gap between them is taken
    // under the same conditions; the probes run after the clock.
    let mut timed = Timed::default();
    let mut replicas = Vec::new();
    let t0 = Instant::now();
    while timed.run_one(&built, &mut gates) {
        replicas.push(adapter::run_replica(&built)?);
        let pace =
            median(&timed.walls()) + median(&replicas.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        if o.quick || t0.elapsed().as_secs_f64() + pace > o.seconds {
            break;
        }
    }
    if replicas.is_empty() {
        return Err(format!(
            "{}: no traced unit completed: {}",
            spec.name,
            gates.0.join("; ")
        ));
    }
    let probe = adapter::probe_tensor(spec, o.seed);
    let values = metrics::per_layer(&LayerInputs {
        built: &built,
        replicas: &replicas,
        engine_wall_s: &timed.walls(),
        probe: &probe,
        pred_comm_share: adapter::predict_comm_share(&built),
        replica_bitwise,
    });
    Ok(Report {
        defs: &PER_LAYER,
        values,
        samples: Vec::new(),
        counts: vec![
            ("n_units", Json::Num(replicas.len() as f64)),
            (
                "n_epochs",
                Json::Num((replicas.len() * built.cfg.epochs) as f64),
            ),
        ],
        attempted: timed.attempted + replicas.len() as u64 * built.ops(),
        failed: timed.failed,
        gates,
        chrome_trace: o
            .out
            .as_ref()
            .and(replicas.last())
            .map(|r| trace::chrome_trace(&r.tracers)),
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn environment() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(command_line("git", &["-C", repo, "rev-parse", "HEAD"])),
        ),
        ("build", Json::Str("--release, no cargo features".into())),
    ])
}

/// Every workload, untraced then traced, one child process at a time (so
/// each has its own `VmHWM` and nothing else is loaded), merged into
/// `DIR/results.json`.
fn run_suite(o: &RunOpts) -> Result<bool, String> {
    let dir = o
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let mut merged = Vec::new();
    for spec in &WORKLOADS {
        let mut sections = Vec::new();
        for (trace, kind) in [("0", "e2e"), ("1", "layers")] {
            eprintln!("== {} ({kind})", spec.name);
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", spec.name, "--trace", trace])
                .args([
                    "--seed",
                    &o.seed.to_string(),
                    "--seconds",
                    &o.seconds.to_string(),
                ])
                .arg("--out")
                .arg(&dir);
            if o.quick {
                cmd.arg("--quick");
            }
            // The child's stdout is the contract line; the suite reads the
            // richer file it wrote beside it.
            let status = cmd
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_ok &= status.success();
            let path = dir.join(format!("{}.{kind}.json", spec.name));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            sections.push((
                kind,
                Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
            ));
        }
        merged.push((spec.name, Json::obj(sections)));
    }
    let rate = |name: &str| {
        merged.iter().find(|(n, _)| *n == name).and_then(|(_, w)| {
            w.get("e2e")?
                .get("metrics")?
                .get("samples_per_s")?
                .get("value")?
                .as_f64()
        })
    };
    // Derived across workloads, so only the suite can report it; not gated.
    let scaling_eff = match (rate("cnn_sasgd_p2"), rate("cnn_seq_p1")) {
        (Some(p2), Some(p1)) if p1 > 0.0 => Json::Num(p2 / (2.0 * p1)),
        _ => Json::Null,
    };
    let results = Json::obj([
        ("schema", Json::Num(1.0)),
        ("quick", Json::Bool(o.quick)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("env", environment()),
        ("derived", Json::obj([("core.scaling_eff", scaling_eff)])),
        ("workloads", Json::obj(merged)),
    ]);
    let path = dir.join("results.json");
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_ok)
}
