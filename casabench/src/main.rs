//! `casabench`: the repository's benchmark for `casa-seed` and `casa-serve`.
//!
//! ```text
//! cargo run --release -q --manifest-path casabench/Cargo.toml -- \
//!     --workload reseq|screen|serve --seed N --seconds S --trace 0|1 \
//!     [--scale full|smoke] [--lo-rps R] [--hi-rps R]
//! ```
//!
//! Builds the release binaries from this checkout, generates the
//! workload's inputs from `--seed`, gates correctness, then measures. With
//! `--trace 0` it times the real binaries end to end from outside; with
//! `--trace 1` it times calls into each layer's public functions from its
//! own code and writes the spans as a Chrome trace. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Human-readable rows come before it; full run records and traces land
//! in `.bench_out/` at the checkout root.

mod inputs;
mod layers;
mod load;
mod proc;
mod report;
mod seedrun;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use inputs::{Inputs, Scale, Workload};
use seedrun::Bins;
use serde_json::json;

/// Open-loop request rates of the `serve` phases (requests/s): `lo` is
/// about a third and `hi` about two thirds of the capacity measured on
/// the reference machine. `BENCHMARK.json` passes them explicitly.
const DEFAULT_LO_RPS: f64 = 55.0;
const DEFAULT_HI_RPS: f64 = 110.0;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    lo_rps: f64,
    hi_rps: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::FULL;
    let mut lo_rps = DEFAULT_LO_RPS;
    let mut hi_rps = DEFAULT_HI_RPS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|_| format!("bad {flag}: {v}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => seconds = num(value)?,
            "--trace" => trace = value == "1",
            "--scale" => {
                scale = Scale::parse(value).ok_or_else(|| format!("unknown scale {value}"))?
            }
            "--lo-rps" => lo_rps = num(value)?,
            "--hi-rps" => hi_rps = num(value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        scale,
        lo_rps,
        hi_rps,
    })
}

/// The checkout root (this package sits one level below it).
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Builds `casa-seed` and `casa-serve` (release) into the same target
/// directory as this executable and returns their paths.
fn build_bins(root: &Path) -> Result<Bins, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "-q"])
        .args(["--bin", "casa-seed", "--bin", "casa-serve"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the binaries failed: {status}"));
    }
    let bin = |name: &str| target_dir.join("release").join(name);
    Ok(Bins {
        seed: bin("casa-seed"),
        serve: bin("casa-serve"),
    })
}

/// Removes the run's scratch files however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let root = root();
    let bins = build_bins(&root)?;
    let work = WorkDir(root.join(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    let inputs = Inputs::generate(args.workload, args.seed, args.scale, &work.0)
        .map_err(|e| format!("generating inputs: {e}"))?;
    let out_dir = root.join(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let stem = format!(
        "{}-{}-seed{}-trace{}",
        args.workload.name(),
        args.scale.name,
        args.seed,
        u8::from(args.trace)
    );

    let outcome = if args.trace {
        layers::run(&inputs, &bins, args, &out_dir)?
    } else {
        match args.workload {
            Workload::Reseq | Workload::Screen => seedrun::run(&inputs, &bins, args.seconds)?,
            Workload::Serve => load::run(&inputs, &bins, args)?,
        }
    };

    let provenance = report::provenance(
        &root,
        inputs.digests().map_err(|e| e.to_string())?,
        vec![
            ("workload", json!(args.workload.name())),
            ("seed", json!(args.seed)),
            ("scale", json!(args.scale.name)),
            ("seconds", json!(args.seconds)),
            ("trace", json!(args.trace)),
            ("lo_rps", json!(args.lo_rps)),
            ("hi_rps", json!(args.hi_rps)),
        ],
    );
    let record = outcome.record(provenance.clone());
    std::fs::write(
        out_dir.join(format!("{stem}.json")),
        record.to_string() + "\n",
    )
    .map_err(|e| e.to_string())?;
    println!("provenance {provenance}");
    for line in outcome.table() {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("casabench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("casabench: {e}");
            ExitCode::FAILURE
        }
    }
}
