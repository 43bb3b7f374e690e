//! Stage-level pipeline profile: the per-stage wall-time breakdown of the
//! `session/1` workload (50 human-like reads, one worker — the Fig. 12
//! configuration every BENCH record quotes) next to its unprofiled wall
//! time, with SMEM, statistics *and* SAM-byte equality asserted between
//! the profiled and unprofiled runs and across all three backends before
//! any timing. Written to `results/stage_profile.{csv,json}` and the
//! repo-root `BENCH_pipeline.json` by the `stage_profile` binary.

use std::time::Instant;

use casa_core::profile::time_stage;
use casa_core::{BackendKind, FaultPlan, SeedingSession, Stage, StageProfile};
use casa_genome::sam::{Cigar, CigarOp, SamFormatter, SamRecord};
use casa_genome::PackedSeq;
use casa_index::Smem;

use crate::report::{percent, Table};
use crate::scenario::{Genome, Scale, Scenario};

/// Timed samples of the unprofiled batch (best-of reported).
const SAMPLES: usize = 25;
/// Profiled passes merged into each breakdown (shares, not absolute
/// nanoseconds, are the payload — merging passes smooths clock noise).
const PROFILE_PASSES: usize = 5;
/// Reads in the session workload (the `session/1` configuration).
const SESSION_READS: usize = 50;

/// The harness output: the per-stage breakdown and the unprofiled wall
/// time of the same workload.
#[derive(Clone, Debug)]
pub struct StageProfileReport {
    /// Reads per batch.
    pub reads: usize,
    /// Per-stage breakdown (profiling on), summed over `PROFILE_PASSES`
    /// passes.
    pub profile: StageProfile,
    /// Best wall time of one unprofiled batch over the timed samples,
    /// nanoseconds.
    pub best_ns: u128,
    /// Total SMEMs in the (identical) outputs.
    pub smems: usize,
    /// Bytes of the (identical) rendered SAM bodies.
    pub sam_bytes: usize,
}

impl StageProfileReport {
    /// Best-of milliseconds of one unprofiled batch.
    pub fn session_ms(&self) -> f64 {
        self.best_ns as f64 / 1e6
    }
}

/// Times one call of `f`, nanoseconds (clamped to at least 1).
fn time_ns<R: FnMut()>(f: &mut R) -> u128 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos().max(1)
}

/// Renders per-read SMEM lists as SAM records the way the CLI does for
/// seed output: best (longest, then leftmost) SMEM per read becomes a
/// soft-clipped match at its first hit; reads with no SMEM are unmapped.
fn sam_records(reads: &[PackedSeq], smems: &[Vec<Smem>]) -> Vec<SamRecord> {
    reads
        .iter()
        .zip(smems)
        .enumerate()
        .map(|(i, (read, list))| {
            let qname = format!("read{i}");
            let best = list
                .iter()
                .max_by_key(|s| (s.len(), std::cmp::Reverse(s.read_start)));
            match best {
                Some(smem) => {
                    let mut ops = Vec::new();
                    if smem.read_start > 0 {
                        ops.push(CigarOp::SoftClip(smem.read_start as u32));
                    }
                    ops.push(CigarOp::AlnMatch(smem.len() as u32));
                    if smem.read_end < read.len() {
                        ops.push(CigarOp::SoftClip((read.len() - smem.read_end) as u32));
                    }
                    SamRecord {
                        qname,
                        flag: 0,
                        rname: "ref".to_string(),
                        pos: u64::from(smem.hits[0]) + 1,
                        mapq: 60,
                        cigar: Cigar(ops),
                        seq: read.clone(),
                    }
                }
                None => SamRecord::unmapped(&qname, read.clone()),
            }
        })
        .collect()
}

/// One profiled pass: harness-side read packing + SAM emission spans
/// around the engine-side profile of a full `seed_reads` batch.
fn profiled_pass(
    session: &SeedingSession,
    reads: &[PackedSeq],
    formatter: &mut SamFormatter,
) -> StageProfile {
    let mut profile = StageProfile::default();
    // ReadPack: the ingestion-side ASCII -> 2-bit packing the engines
    // never see (scenario reads arrive packed, so round-trip them the way
    // the CLI packs FASTQ input).
    let ascii: Vec<Vec<u8>> = reads
        .iter()
        .map(|r| r.iter().map(|b| b.to_char() as u8).collect())
        .collect();
    let packed: Vec<PackedSeq> = time_stage(&mut profile, Stage::ReadPack, || {
        ascii
            .iter()
            .map(|a| PackedSeq::from_ascii(a).expect("round-tripped bases are valid"))
            .collect()
    });
    let run = session.seed_reads(&packed);
    profile.merge(&run.stats.profile);
    // Emit: seed/SAM record rendering through the buffered formatter.
    let mut sink = Vec::new();
    time_stage(&mut profile, Stage::Emit, || {
        let records = sam_records(&packed, &run.smems);
        formatter
            .write_all(&mut sink, &records)
            .expect("Vec sink cannot fail");
    });
    profile
}

/// Runs the profile at `scale`, asserting SMEM, stats, and SAM-byte
/// equality between the profiled and unprofiled runs and across all three
/// backends before any measurement.
///
/// # Panics
///
/// Panics if the profiled run diverges from the unprofiled one in any
/// SMEM, modeled statistic, or rendered SAM byte, or if any backend
/// disagrees with the CAM reference — the bit-identity contract profiling
/// and the backends must preserve.
pub fn run(scale: Scale) -> StageProfileReport {
    run_with(scale, false)
}

/// [`run`] with an optional quick mode (fewer samples/passes) for CI
/// smoke runs; equality gates are identical in both modes.
pub fn run_with(scale: Scale, quick: bool) -> StageProfileReport {
    let samples = if quick { 3 } else { SAMPLES };
    let passes = if quick { 2 } else { PROFILE_PASSES };
    let scenario = Scenario::build(Genome::HumanLike, scale);
    let reads = &scenario.reads[..scenario.reads.len().min(SESSION_READS)];

    let session = SeedingSession::new(&scenario.reference, scenario.casa_config(), 1)
        .expect("scenario config is valid");

    // Equality gates, all before any timing. Reference: the default
    // session, profiling off.
    let reference = session.seed_reads(reads);
    let mut formatter = SamFormatter::new();
    let mut sam = |smems: &[Vec<Smem>]| {
        let mut body = Vec::new();
        formatter
            .write_all(&mut body, &sam_records(reads, smems))
            .expect("Vec sink cannot fail");
        body
    };
    let sam_reference = sam(&reference.smems);
    session.set_profiling(true);
    let run_prof = session.seed_reads(reads);
    assert_eq!(
        run_prof.smems, reference.smems,
        "profiling changed the SMEM output"
    );
    let mut stats_sans_profile = run_prof.stats;
    stats_sans_profile.profile = StageProfile::default();
    assert_eq!(
        stats_sans_profile, reference.stats,
        "profiling changed a modeled statistic"
    );
    assert!(
        !run_prof.stats.profile.is_empty(),
        "profiling was enabled but recorded nothing"
    );
    assert_eq!(
        sam(&run_prof.smems),
        sam_reference,
        "profiling changed the rendered SAM bytes"
    );
    for backend in [BackendKind::Fm, BackendKind::Ert] {
        let other = SeedingSession::with_backend(
            &scenario.reference,
            scenario.casa_config(),
            1,
            FaultPlan::default(),
            backend,
        )
        .expect("scenario config is valid");
        assert_eq!(
            other.seed_reads(reads).smems,
            reference.smems,
            "{backend} SMEMs diverged from the CAM reference"
        );
    }

    // Profiled breakdown (shares), then unprofiled timing (headline).
    let mut profile = StageProfile::default();
    for _ in 0..passes {
        profile.merge(&profiled_pass(&session, reads, &mut formatter));
    }
    session.set_profiling(false);

    // Best-of: external load on a shared core only ever *adds* time, so
    // the minimum is the noise-robust estimator of the path's true cost.
    let mut pass = || {
        session.seed_reads(reads);
    };
    pass();
    let best_ns = (0..samples)
        .map(|_| time_ns(&mut pass))
        .min()
        .expect("at least one sample");

    StageProfileReport {
        reads: reads.len(),
        profile,
        best_ns,
        smems: reference.smems.iter().map(Vec::len).sum(),
        sam_bytes: sam_reference.len(),
    }
}

/// Renders the report (saved as `results/stage_profile.{csv,json}`).
pub fn table(report: &StageProfileReport) -> Table {
    let mut t = Table::new(
        "Pipeline stage profile: per-stage breakdown of the seeding path",
        &["stage", "ns", "calls", "share"],
    );
    for stage in Stage::ALL {
        t.row([
            stage.as_str().to_string(),
            report.profile.nanos(stage).to_string(),
            report.profile.calls(stage).to_string(),
            percent(report.profile.share(stage)),
        ]);
    }
    t.row([
        "total".to_string(),
        report.profile.total_nanos().to_string(),
        String::new(),
        String::new(),
    ]);
    t
}

/// Renders the machine-readable cross-PR perf record written to the
/// repo-root `BENCH_pipeline.json`.
pub fn bench_json(report: &StageProfileReport, scale: Scale) -> String {
    let rows: Vec<serde_json::Value> = Stage::ALL
        .iter()
        .map(|&stage| {
            serde_json::json!({
                "stage": stage.as_str(),
                "ns": report.profile.nanos(stage),
                "calls": report.profile.calls(stage),
                "share": report.profile.share(stage),
            })
        })
        .collect();
    let value = serde_json::json!({
        "experiment": "stage_profile",
        "scale": format!("{scale:?}").to_lowercase(),
        "reads": report.reads,
        "workers": 1u64,
        "smems": report.smems,
        "sam_bytes": report.sam_bytes,
        "headline": { "session_ms": report.session_ms() },
        "stages": rows,
    });
    value.to_string() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_equality_holds_and_profiles_fill() {
        let report = run_with(Scale::Small, true);
        // The equality asserts inside run() are the real payload.
        assert_eq!(report.reads, SESSION_READS);
        assert!(report.smems > 0);
        assert!(report.sam_bytes > 0);
        // The breakdown recorded engine-side and harness-side stages.
        // The engine stages only fire on the CAM backend; under a CI
        // `CASA_BACKEND=fm|ert` pin only the session/harness stages do.
        let cam = matches!(
            BackendKind::from_env(),
            Ok(None) | Ok(Some(BackendKind::Cam))
        );
        let mut expected = vec![Stage::ReadPack, Stage::TranslateMerge, Stage::Emit];
        if cam {
            expected.extend([Stage::KmerCodes, Stage::FilterLookup, Stage::CamSearch]);
        }
        assert!(!report.profile.is_empty());
        for &stage in &expected {
            assert!(
                report.profile.calls(stage) > 0,
                "no spans recorded for {stage} stage"
            );
        }
        assert!(report.session_ms() > 0.0);
        let t = table(&report);
        assert_eq!(t.rows.len(), Stage::ALL.len() + 1);
        let json: serde_json::Value =
            serde_json::from_str(&bench_json(&report, Scale::Small)).expect("bench json parses");
        assert_eq!(json["stages"].as_array().unwrap().len(), Stage::ALL.len());
        assert!(json["headline"]["session_ms"].as_f64().unwrap() > 0.0);
    }
}
