//! `repro launch` — SASGD across real OS processes.
//!
//! The transport refactor's end-to-end proof: the parent spawns `p` copies
//! of the `repro` binary (hidden `_rank` subcommand), each child joins a
//! loopback TCP mesh via [`SocketTransport`] and runs the *same* per-rank
//! loop ([`run_rank`]) the threaded backend drives over in-process
//! channels. Rank 0's child writes its `final_params` to a file; the
//! parent replays the identical workload in-process through the threaded
//! [`Executor`] and compares the two parameter vectors **bitwise**.
//!
//! Rendezvous is race-free: the parent discovers `p` free loopback ports by
//! binding (then dropping) port-0 listeners and passes the concrete port
//! list to every child, so no child guesses at addresses. A hard
//! wall-clock timeout bounds the whole run — a hung rendezvous or a
//! deadlocked collective kills the world and fails the target instead of
//! wedging CI; per-rank stdout/stderr land in log files next to the params
//! file for post-mortem.
//!
//! The workload is deliberately fixed (same dataset seed, model seed,
//! `TrainConfig` and shard strategy in parent and children) — the target
//! verifies transport equivalence, not a tunable benchmark.

use std::fmt::Write as _;
use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sasgd_comm::{loopback_addrs, SocketTransport};
use sasgd_core::{run_rank, Algorithm, Backend, Executor, GammaP, TrainConfig};
use sasgd_data::cifar_like::{generate, CifarLikeConfig};
use sasgd_data::Dataset;
use sasgd_nn::{models, Model};
use sasgd_tensor::{parallel, SeedRng};

use crate::figures::Artifact;

/// World size of the multi-process run.
pub const WORLD: usize = 4;
/// Aggregation interval `T`.
const AGG_T: usize = 2;
/// How long children may take to form the TCP mesh.
const RENDEZVOUS: Duration = Duration::from_secs(30);
/// Hard wall-clock bound on the whole multi-process run (spawn →
/// last exit). Generous: the workload itself finishes in seconds.
const TIMEOUT: Duration = Duration::from_secs(180);

/// The algorithm every rank (and the in-process reference) runs.
fn algorithm(p: usize) -> Algorithm {
    Algorithm::sasgd(p, AGG_T, GammaP::OverP)
}

/// The fixed verification workload, identical in the parent's in-process
/// reference run and every child (children regenerate it from the seeds —
/// nothing numeric crosses the process boundary except the wire frames).
fn workload() -> (Dataset, Dataset, TrainConfig) {
    let (train, test) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let cfg = TrainConfig::new(2, 8, 0.05, 42);
    (train, test, cfg)
}

fn model() -> Model {
    models::tiny_cnn(3, &mut SeedRng::new(7))
}

// ---------------------------------------------------------------------------
// Child: one rank (`repro _rank --rank R --size P --ports a,b,.. --out F`).
// ---------------------------------------------------------------------------

/// Entry point for the hidden `_rank` subcommand. Returns a process exit
/// code: 0 on a clean run, 1 on bad arguments or a typed wire failure
/// (printed to stderr, which the parent captures into the rank's log).
pub fn rank_main(args: &[String]) -> i32 {
    match rank_run(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("_rank: {e}");
            1
        }
    }
}

fn rank_run(args: &[String]) -> Result<(), String> {
    let mut rank: Option<usize> = None;
    let mut size: Option<usize> = None;
    let mut ports: Vec<u16> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&String, String> {
            args.get(i + 1).ok_or(format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--rank" => rank = Some(need(i)?.parse().map_err(|e| format!("bad --rank: {e}"))?),
            "--size" => size = Some(need(i)?.parse().map_err(|e| format!("bad --size: {e}"))?),
            "--ports" => {
                for p in need(i)?.split(',') {
                    ports.push(p.parse().map_err(|e| format!("bad port {p:?}: {e}"))?);
                }
            }
            "--out" => out = Some(PathBuf::from(need(i)?)),
            other => return Err(format!("unknown _rank argument {other:?}")),
        }
        i += 2;
    }
    let rank = rank.ok_or("--rank is required")?;
    let size = size.ok_or("--size is required")?;
    if ports.len() != size {
        return Err(format!(
            "--ports has {} entries for size {size}",
            ports.len()
        ));
    }

    // Address list: same loopback host for every rank, parent-chosen ports.
    let mut addrs = loopback_addrs(size, 0);
    for (a, &p) in addrs.iter_mut().zip(&ports) {
        a.set_port(p);
    }
    let comm = SocketTransport::connect(rank, &addrs, RENDEZVOUS)
        .map_err(|e| format!("rank {rank} rendezvous failed: {e}"))?;

    // Regenerate the fixed workload; every child derives the identical
    // shards and lockstep step count the in-process backend would.
    let (train, test, cfg) = workload();
    // The `size` rank processes share this machine: each takes its share
    // of the compute threads, as the threaded backend gives a rank thread.
    let width = parallel::width_for(size, 0);
    let history = parallel::with_width(width, || {
        run_rank(comm, &model, &train, &test, &algorithm(size), &cfg)
    })
    .map_err(|e| format!("rank {rank} wire failure: {e}"))?;

    if rank == 0 {
        let out = out.ok_or("--out is required for rank 0")?;
        let params = history
            .final_params
            .ok_or("rank 0 history has no final_params")?;
        let mut bytes = Vec::with_capacity(params.len() * 4);
        for v in &params {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        fs::write(&out, bytes).map_err(|e| format!("writing {}: {e}", out.display()))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent: spawn, supervise, compare.
// ---------------------------------------------------------------------------

/// Outcome of one multi-process run, ready for the repro report.
pub struct LaunchOutcome {
    /// Human-readable account (spawn layout, timing, verdict).
    pub report: String,
    /// Did every child exit cleanly *and* did rank 0's parameters match the
    /// in-process run bitwise?
    pub ok: bool,
}

/// Bind-then-drop `n` port-0 listeners to reserve distinct free loopback
/// ports. The tiny window between drop and the child's bind is the
/// standard trade-off; collisions surface as a rendezvous failure within
/// the timeout, never a hang.
fn free_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| Ok(l.local_addr()?.port()))
        .collect()
}

fn kill_all(children: &mut [(usize, Child)]) {
    for (_, c) in children.iter_mut() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// Tail of a rank's captured log, indented for the report.
fn log_tail(path: &Path, lines: usize) -> String {
    let Ok(text) = fs::read_to_string(path) else {
        return String::from("    <no log>\n");
    };
    let all: Vec<&str> = text.lines().collect();
    let start = all.len().saturating_sub(lines);
    let mut out = String::new();
    for l in &all[start..] {
        let _ = writeln!(out, "    {l}");
    }
    if out.is_empty() {
        out.push_str("    <empty>\n");
    }
    out
}

/// Run the full multi-process verification: spawn `WORLD` ranks of `exe`
/// (the `repro` binary), bound by a hard timeout, then compare rank 0's
/// written parameters bitwise against the in-process threaded run.
/// `scratch` receives the params file and one log file per rank.
pub fn run_launch(exe: &Path, scratch: &Path) -> LaunchOutcome {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "Multi-process SASGD over the socket transport (p={WORLD}, T={AGG_T})\n\
         exe: {}\nscratch: {}\n",
        exe.display(),
        scratch.display()
    );
    if let Err(e) = fs::create_dir_all(scratch) {
        let _ = writeln!(report, "FAILED: cannot create scratch dir: {e}");
        return LaunchOutcome { report, ok: false };
    }
    let ports = match free_ports(WORLD) {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(report, "FAILED: free-port discovery: {e}");
            return LaunchOutcome { report, ok: false };
        }
    };
    let ports_csv = ports
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let params_path = scratch.join("launch_rank0_params.bin");
    let _ = fs::remove_file(&params_path);
    let _ = writeln!(report, "ports: {ports_csv}");

    // Spawn every rank with stdout/stderr captured to per-rank logs.
    let t0 = Instant::now();
    let mut children: Vec<(usize, Child)> = Vec::new();
    let log_path = |rank: usize| scratch.join(format!("launch_rank{rank}.log"));
    for rank in 0..WORLD {
        let log = match fs::File::create(log_path(rank)) {
            Ok(f) => f,
            Err(e) => {
                let _ = writeln!(report, "FAILED: log file for rank {rank}: {e}");
                kill_all(&mut children);
                return LaunchOutcome { report, ok: false };
            }
        };
        let spawned = Command::new(exe)
            .arg("_rank")
            .args(["--rank", &rank.to_string()])
            .args(["--size", &WORLD.to_string()])
            .args(["--ports", &ports_csv])
            .args(["--out", &params_path.to_string_lossy()])
            .stdin(Stdio::null())
            .stdout(log.try_clone().map(Stdio::from).unwrap_or(Stdio::null()))
            .stderr(Stdio::from(log))
            .spawn();
        match spawned {
            Ok(c) => children.push((rank, c)),
            Err(e) => {
                let _ = writeln!(report, "FAILED: spawning rank {rank}: {e}");
                kill_all(&mut children);
                return LaunchOutcome { report, ok: false };
            }
        }
    }

    // Supervise under the hard wall-clock bound.
    let deadline = t0 + TIMEOUT;
    let mut failures: Vec<String> = Vec::new();
    while !children.is_empty() {
        if Instant::now() >= deadline {
            let hung: Vec<String> = children.iter().map(|(r, _)| r.to_string()).collect();
            failures.push(format!(
                "timeout after {:?}: rank(s) {} still running (killed)",
                TIMEOUT,
                hung.join(", ")
            ));
            kill_all(&mut children);
            break;
        }
        let mut still = Vec::new();
        for (rank, mut c) in children {
            match c.try_wait() {
                Ok(Some(status)) if status.success() => {}
                Ok(Some(status)) => failures.push(format!("rank {rank} exited {status}")),
                Ok(None) => still.push((rank, c)),
                Err(e) => failures.push(format!("rank {rank} wait error: {e}")),
            }
        }
        children = still;
        if !children.is_empty() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let wall = t0.elapsed();
    let _ = writeln!(report, "children done in {:.2}s", wall.as_secs_f64());
    if !failures.is_empty() {
        for f in &failures {
            let _ = writeln!(report, "FAILED: {f}");
        }
        for rank in 0..WORLD {
            let _ = writeln!(report, "  rank {rank} log tail:");
            report.push_str(&log_tail(&log_path(rank), 10));
        }
        return LaunchOutcome { report, ok: false };
    }

    // Rank 0's parameters, as written by the child process.
    let socket_params: Vec<f32> = match fs::read(&params_path) {
        Ok(bytes) if bytes.len() % 4 == 0 => bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect(),
        Ok(bytes) => {
            let _ = writeln!(
                report,
                "FAILED: params file has {} bytes (not 4-aligned)",
                bytes.len()
            );
            return LaunchOutcome { report, ok: false };
        }
        Err(e) => {
            let _ = writeln!(report, "FAILED: reading {}: {e}", params_path.display());
            return LaunchOutcome { report, ok: false };
        }
    };

    // In-process reference on the identical workload.
    let (train, test, cfg) = workload();
    let reference =
        Executor::new(Backend::Threaded).run(&|| model(), &train, &test, &algorithm(WORLD), &cfg);
    let ref_params = reference
        .final_params
        .expect("in-process threaded run always records final_params");

    let mut mismatches = 0usize;
    let mut first_bad: Option<usize> = None;
    if socket_params.len() != ref_params.len() {
        let _ = writeln!(
            report,
            "FAILED: {} socket params vs {} in-process params",
            socket_params.len(),
            ref_params.len()
        );
        return LaunchOutcome { report, ok: false };
    }
    for (i, (a, b)) in socket_params.iter().zip(&ref_params).enumerate() {
        if a.to_bits() != b.to_bits() {
            mismatches += 1;
            first_bad.get_or_insert(i);
        }
    }
    let ok = mismatches == 0;
    let _ = writeln!(
        report,
        "bitwise comparison over {} parameters: {}",
        ref_params.len(),
        if ok {
            "IDENTICAL — socket transport reproduces the in-process run exactly".to_string()
        } else {
            format!(
                "{mismatches} mismatching element(s), first at index {}",
                first_bad.unwrap_or(0)
            )
        }
    );
    LaunchOutcome { report, ok }
}

/// The `launch` repro target: run the multi-process verification with the
/// current executable re-invoked as the rank binary.
pub fn launch() -> (Artifact, bool) {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            return (
                Artifact {
                    name: "launch".to_string(),
                    report: format!("launch: cannot resolve current exe: {e}"),
                    csvs: vec![],
                },
                false,
            )
        }
    };
    let scratch = std::env::temp_dir().join(format!("sasgd-launch-{}", std::process::id()));
    let outcome = run_launch(&exe, &scratch);
    (
        Artifact {
            name: "launch".to_string(),
            report: outcome.report,
            csvs: vec![],
        },
        outcome.ok,
    )
}
