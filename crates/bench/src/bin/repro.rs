//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all [--scale 0|1|2] [--epochs N] [--out DIR]
//! repro fig1|fig2|...|fig10|table1|table2|theorem1|theorem2 [flags]
//! ```
//!
//! Reports print to stdout; reports and CSV series are also written under
//! `--out` (default `target/repro/`).

use std::path::PathBuf;
use std::process::ExitCode;

use sasgd_bench::engine;
use sasgd_bench::extensions;
use sasgd_bench::faults;
use sasgd_bench::figures::{self, Artifact};
use sasgd_bench::Scale;
use sasgd_bench::{hotpath, kernels};
use sasgd_core::report::write_file;

/// Count heap traffic so the `hotpath` target can report per-step
/// steady-state allocation numbers.
#[global_allocator]
static GLOBAL: sasgd_bench::alloc::CountingAllocator = sasgd_bench::alloc::CountingAllocator;

struct Options {
    targets: Vec<String>,
    scale: Scale,
    epochs: Option<usize>,
    out: PathBuf,
}

const ALL: &[&str] = &[
    "table1", "table2", "fig1", "fig2", "fig3", "theorem1", "theorem2", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "fig10",
];

/// Extension artifacts beyond the paper (run via `ext` or by name).
const EXTENSIONS: &[&str] = &[
    "kernels",
    "hotpath",
    "engine",
    "faults",
    "async",
    "sparsity",
    "staleness",
    "compression",
    "noniid",
    "whatif",
    "gradnorm",
    "hierarchy",
    "timeline",
    "analyze",
    "launch",
];

fn usage() -> String {
    format!(
        "usage: repro <target>... [--scale 0|1|2] [--epochs N] [--out DIR]\n\
         targets: all {} | ext {}\n",
        ALL.join(" "),
        EXTENSIONS.join(" ")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        targets: Vec::new(),
        scale: Scale::Tiny,
        epochs: None,
        out: PathBuf::from("target/repro"),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let v = args.get(i).ok_or("--scale needs a value")?;
                opts.scale = Scale::parse(v).ok_or(format!("bad scale {v:?}"))?;
            }
            "--epochs" => {
                i += 1;
                let v = args.get(i).ok_or("--epochs needs a value")?;
                opts.epochs = Some(v.parse().map_err(|_| format!("bad epoch count {v:?}"))?);
            }
            "--out" => {
                i += 1;
                opts.out = PathBuf::from(args.get(i).ok_or("--out needs a value")?);
            }
            "all" => opts.targets.extend(ALL.iter().map(|s| s.to_string())),
            "ext" => opts
                .targets
                .extend(EXTENSIONS.iter().map(|s| s.to_string())),
            t if ALL.contains(&t) || EXTENSIONS.contains(&t) => opts.targets.push(t.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
        i += 1;
    }
    if opts.targets.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

/// Build one artifact. The second element is the target's verdict: only
/// `analyze` can fail; every other target reports unconditionally.
fn build(target: &str, o: &Options) -> (Artifact, bool) {
    if target == "analyze" {
        return sasgd_bench::analysis::analyze();
    }
    if target == "launch" {
        return sasgd_bench::launch::launch();
    }
    let artifact = match target {
        "table1" => figures::table1(),
        "table2" => figures::table2(),
        "fig1" => figures::fig1(),
        "fig2" => figures::fig2(o.scale, o.epochs),
        "fig3" => figures::fig3(o.scale, o.epochs),
        "theorem1" => figures::theorem1(),
        "theorem2" => figures::theorem2(),
        "fig4" => figures::fig4(),
        "fig5" => figures::fig5(),
        "fig6" => figures::fig6(),
        "fig7" => figures::fig7(o.scale, o.epochs),
        "fig8" => figures::fig8(o.scale, o.epochs),
        "fig9" => figures::fig9(o.scale, o.epochs),
        "fig10" => figures::fig10(o.scale, o.epochs),
        "kernels" => kernels::kernels(),
        "hotpath" => hotpath::hotpath(),
        "engine" => engine::engine(o.scale, o.epochs),
        "faults" => faults::faults(o.scale, o.epochs),
        "async" => sasgd_bench::async_bench::async_lattice(o.scale, o.epochs),
        "sparsity" => sasgd_bench::sparsity::sparsity(o.scale, o.epochs),
        "staleness" => extensions::staleness(o.scale, o.epochs),
        "compression" => extensions::compression(o.scale, o.epochs),
        "noniid" => extensions::noniid(o.scale, o.epochs),
        "whatif" => extensions::whatif(),
        "gradnorm" => extensions::gradnorm(o.scale, o.epochs),
        "hierarchy" => extensions::hierarchy(o.scale, o.epochs),
        "timeline" => extensions::timeline(),
        _ => unreachable!("validated in parse_args"),
    };
    (artifact, true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden subcommand: `repro _rank ...` is this binary re-invoked by the
    // `launch` target as one rank of a multi-process SASGD world.
    if args.first().is_some_and(|a| a == "_rank") {
        return match sasgd_bench::launch::rank_main(&args[1..]) {
            0 => ExitCode::SUCCESS,
            _ => ExitCode::FAILURE,
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for target in &opts.targets {
        let t0 = std::time::Instant::now();
        let (artifact, ok) = build(target, &opts);
        if !ok {
            failed = true;
        }
        println!("{}", "=".repeat(78));
        println!("{}", artifact.report);
        let report_path = opts.out.join(format!("{}.txt", artifact.name));
        if let Err(e) = write_file(&report_path, &artifact.report) {
            eprintln!("failed to write {}: {e}", report_path.display());
            return ExitCode::FAILURE;
        }
        for (file, content) in &artifact.csvs {
            let p = opts.out.join(file);
            if let Err(e) = write_file(&p, content) {
                eprintln!("failed to write {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        }
        eprintln!(
            "[{target}] {} in {:.1}s -> {}",
            if ok { "done" } else { "FAILED" },
            t0.elapsed().as_secs_f64(),
            opts.out.display()
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
