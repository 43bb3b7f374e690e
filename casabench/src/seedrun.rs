//! The `reseq` and `screen` workloads: `casa-seed` FASTQ→SAM runs, timed
//! from spawn to exit, behind a correctness gate that runs first.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use casa::core::{BackendKind, CasaConfig, FaultPlan, SeedingSession};
use casa::genome::fasta::{read_fasta_from_path, NPolicy};
use casa::genome::{Base, PackedSeq};

use crate::inputs::{Inputs, Workload, READ_LEN};
use crate::proc::run_timed;
use crate::report::Outcome;
use crate::util::{file_digest, median};

/// Longest a single `casa-seed` run may take before it counts as failed.
const RUN_DEADLINE: Duration = Duration::from_secs(60);
/// Seeding worker threads for every run (`nproc` = 2 on the reference
/// machine; fixed so results do not depend on the host's core count).
pub const THREADS: usize = 2;

/// Paths of the release binaries under test.
#[derive(Clone, Debug)]
pub struct Bins {
    /// `casa-seed`.
    pub seed: PathBuf,
    /// `casa-serve`.
    pub serve: PathBuf,
}

/// The `casa-seed` invocation for a FASTQ→SAM run.
pub fn casa_seed(bins: &Bins, inputs: &Inputs, sam: &Path, stream: bool) -> Command {
    let mut cmd = Command::new(&bins.seed);
    cmd.arg("--reference")
        .arg(&inputs.fasta)
        .arg("--reads")
        .arg(&inputs.fastq)
        .arg("--sam")
        .arg(sam)
        .arg("--partition")
        .arg(inputs.scale.partition.to_string())
        .arg("--threads")
        .arg(THREADS.to_string());
    if stream {
        cmd.arg("--stream");
    }
    cmd
}

/// The accelerator config `casa-seed` derives for these inputs.
pub fn cli_config(inputs: &Inputs, reference: &PackedSeq) -> CasaConfig {
    let part = inputs
        .scale
        .partition
        .min(reference.len().saturating_sub(1).max(1));
    CasaConfig::builder()
        .partition_len(part)
        .read_len(READ_LEN)
        .build()
        .expect("the benchmark's partition and read length form a valid config")
}

/// One in-process set-up, through the public calls `casa-seed` makes:
/// FASTA parse, then the index build. Returns seconds and the session.
pub fn timed_setup(inputs: &Inputs) -> Result<(f64, SeedingSession), String> {
    let start = Instant::now();
    let reference = read_fasta_from_path(&inputs.fasta, NPolicy::Replace(Base::A))
        .map_err(|e| format!("reference: {e}"))?
        .into_iter()
        .next()
        .ok_or("reference FASTA has no records")?
        .seq;
    let config = cli_config(inputs, &reference);
    let session =
        SeedingSession::new(&reference, config, THREADS).map_err(|e| format!("index: {e}"))?;
    Ok((start.elapsed().as_secs_f64(), session))
}

/// SMEMs of a read sample, both strands, on `session` versus the FM-index
/// golden model. Returns the number of reads whose SMEMs differ.
pub fn golden_mismatches(
    inputs: &Inputs,
    session: &SeedingSession,
    sample: &[PackedSeq],
) -> Result<usize, String> {
    let fm = SeedingSession::with_backend(
        &inputs.reference,
        *session.config(),
        THREADS,
        FaultPlan::default(),
        BackendKind::Fm,
    )
    .map_err(|e| format!("golden session: {e}"))?;
    let got = session.seed_reads_both_strands(sample);
    let want = fm.seed_reads_both_strands(sample);
    Ok((0..sample.len())
        .filter(|&i| {
            got.forward.smems[i] != want.forward.smems[i]
                || got.reverse.smems[i] != want.reverse.smems[i]
        })
        .count())
}

/// Runs the `reseq` or `screen` workload for `seconds` and reports its
/// end-to-end metrics.
pub fn run(inputs: &Inputs, bins: &Bins, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let io = |e: std::io::Error| e.to_string();

    // Gate, before any timing: whole-file and streaming SAM byte-identical.
    let whole = inputs.dir.join("whole.sam");
    let streamed = inputs.dir.join("stream.sam");
    let w = run_timed(&mut casa_seed(bins, inputs, &whole, false), RUN_DEADLINE).map_err(io)?;
    let s = run_timed(&mut casa_seed(bins, inputs, &streamed, true), RUN_DEADLINE).map_err(io)?;
    out.check("casa-seed whole-file run exits 0", w.exit.success());
    out.check("casa-seed --stream run exits 0", s.exit.success());
    let want = file_digest(&whole).map_err(io)?;
    out.check(
        "whole-file and --stream SAM byte-identical",
        want == file_digest(&streamed).map_err(io)?,
    );
    let (records, mapped) = sam_counts(&whole).map_err(io)?;
    out.check("one SAM record per read", records == inputs.reads.len());
    out.note("sam.mapped_frac", mapped as f64 / records.max(1) as f64, "");
    std::fs::remove_file(&streamed).map_err(io)?;

    // Set-up, in process: FASTA parse + index build, as casa-seed does.
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..inputs.scale.setup_reps {
        let (secs, s) = timed_setup(inputs)?;
        setups.push(secs);
        session = Some(s);
    }
    let session = session.expect("at least one set-up rep");

    let sample: Vec<PackedSeq> = inputs
        .reads
        .iter()
        .take(inputs.scale.golden_sample)
        .map(|r| r.seq.clone())
        .collect();
    let bad = golden_mismatches(inputs, &session, &sample)?;
    out.check("sampled SMEMs equal the FM-index golden model", bad == 0);
    drop(session);

    // Timed runs of the workload's own mode, each checked against the gate.
    let stream = inputs.workload == Workload::Screen;
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut cpu = Vec::new();
    let start = Instant::now();
    let mut runs = 0;
    while runs < 2 || start.elapsed().as_secs_f64() < seconds {
        runs += 1;
        let sam = inputs.dir.join("timed.sam");
        let t = run_timed(&mut casa_seed(bins, inputs, &sam, stream), RUN_DEADLINE).map_err(io)?;
        let ok = t.exit.success() && file_digest(&sam).map_err(io)? == want;
        out.check("timed casa-seed run exits 0 with the gated SAM", ok);
        if ok {
            walls.push(t.wall_s);
            rss.push(t.exit.peak_rss_mb);
            cpu.push(t.exit.cpu_s);
        }
    }
    if walls.is_empty() {
        return Err("no timed casa-seed run succeeded".into());
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric(
        "reads_per_s",
        inputs.reads.len() as f64 / median(&walls),
        "reads/s",
    );
    out.metric("peak_rss_mb", median(&rss), "MB");
    out.note("runs", walls.len() as f64, "count");
    out.note("wall_s.median", median(&walls), "s");
    out.note("cpu_s.median", median(&cpu), "s");
    Ok(out)
}

/// SAM records and mapped records in `path`.
fn sam_counts(path: &Path) -> std::io::Result<(usize, usize)> {
    let text = std::fs::read_to_string(path)?;
    let mut records = 0;
    let mut mapped = 0;
    for line in text.lines().filter(|l| !l.starts_with('@')) {
        records += 1;
        let flag: u16 = line
            .split('\t')
            .nth(1)
            .and_then(|f| f.parse().ok())
            .unwrap_or(4);
        mapped += usize::from(flag & 4 == 0);
    }
    Ok((records, mapped))
}
