//! Pluggable seeding backends behind one object-safe trait.
//!
//! The repo carries three complete seeding substrates — the bit-parallel
//! CAM simulator ([`PartitionEngine`]), the FM-index golden model
//! ([`casa_index::bifm`]), and the enumerated radix trees of
//! [`casa_index::ert`] (the index the ASIC-ERT baseline of
//! `casa-baselines::ert_model` costs out). [`SeedingBackend`] makes "which
//! seeder" a runtime choice instead of a fork of the call graph: a
//! [`SeedingSession`](crate::SeedingSession) drives one boxed backend per
//! reference partition and everything above it (scheduling, fault
//! recovery, merging, the CLI, the streaming runtime) is backend-agnostic.
//!
//! The dispatch shape follows the `casa_cam::kernel` fn-table design:
//! backends are named by a small enum ([`BackendKind`]), selected per
//! process via the [`CASA_BACKEND`](BACKEND_ENV) environment variable or
//! per session via an explicit constructor, and unknown names surface as a
//! typed error ([`UnknownBackendError`] →
//! [`ConfigError::UnknownSeedingBackend`](crate::ConfigError)) rather than
//! a panic.
//!
//! # Equivalence contract
//!
//! Every backend must produce the **identical SMEM set** for any
//! (partition, read) pair — bit-identical `read_start`/`read_end`/`hits`,
//! in the same order — because the session's golden cross-check, the
//! quarantine fallback, and the cross-partition merge all assume it. The
//! CAM path is proven equal to the golden unidirectional algorithm by the
//! `casa_equals_golden_*` tests; [`FmBackend`] runs the bidirectional
//! BWA-MEM2 algorithm (cross-checked equal in `casa-index`); and
//! [`ErtBackend`]'s per-pivot tree walk reproduces the suffix-array
//! longest match exactly (see the containment argument on
//! [`ErtBackend::seed_read_into`]). Only the *activity statistics* differ:
//! non-CAM backends have no filter banks or CAM arrays, so those counters
//! stay zero and CASA's cycle model does not apply to them.

use casa_filter::PartSurvivors;
use casa_genome::PackedSeq;
use casa_index::smem::smems_bidirectional;
use casa_index::{BiFmIndex, ErtIndex, Smem};

use crate::engine::PartitionEngine;
use crate::error::ConfigError;
use crate::stats::SeedingStats;
use crate::CasaConfig;

/// Environment variable that selects the seeding backend
/// (`cam` | `fm` | `ert`) for sessions that are not given one explicitly.
pub const BACKEND_ENV: &str = "CASA_BACKEND";

/// A selectable seeding substrate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The CASA accelerator model itself: pre-seeding filter + computing
    /// CAMs (the default, and the only backend with a hardware cost
    /// model).
    Cam,
    /// The FM-index golden model: BWA-MEM2's bidirectional SMEM algorithm
    /// on a [`BiFmIndex`] per partition.
    Fm,
    /// The enumerated-radix-tree model: per-pivot [`ErtIndex`] walks, the
    /// software twin of the ASIC-ERT baseline in `casa-baselines`.
    Ert,
}

/// Error returned when a seeding backend name cannot be honoured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownBackendError {
    /// The offending backend name as given.
    pub value: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl std::fmt::Display for UnknownBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown seeding backend {:?}: {} (expected one of: cam, fm, ert)",
            self.value, self.reason
        )
    }
}

impl std::error::Error for UnknownBackendError {}

impl BackendKind {
    /// Every backend, in presentation order (`cam` first: the accelerator
    /// the repo is about).
    pub const ALL: [BackendKind; 3] = [BackendKind::Cam, BackendKind::Fm, BackendKind::Ert];

    /// The backend's canonical lowercase name (what
    /// [`CASA_BACKEND`](BACKEND_ENV) and `--backend` accept).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Cam => "cam",
            BackendKind::Fm => "fm",
            BackendKind::Ert => "ert",
        }
    }

    /// Parses a backend name.
    ///
    /// # Errors
    ///
    /// Returns a typed [`UnknownBackendError`] for anything other than
    /// `cam`, `fm`, or `ert`.
    pub fn parse(s: &str) -> Result<BackendKind, UnknownBackendError> {
        match s {
            "cam" => Ok(BackendKind::Cam),
            "fm" => Ok(BackendKind::Fm),
            "ert" => Ok(BackendKind::Ert),
            _ => Err(UnknownBackendError {
                value: s.to_owned(),
                reason: "no such backend",
            }),
        }
    }

    /// The backend requested by the [`CASA_BACKEND`](BACKEND_ENV)
    /// environment variable, `None` when unset.
    ///
    /// # Errors
    ///
    /// Returns a typed [`UnknownBackendError`] when the variable is set to
    /// an unknown name or to a non-UTF-8 value — callers surface it as a
    /// [`ConfigError`], never a panic.
    pub fn from_env() -> Result<Option<BackendKind>, UnknownBackendError> {
        match std::env::var_os(BACKEND_ENV) {
            None => Ok(None),
            Some(value) => match value.to_str() {
                Some(s) => BackendKind::parse(s).map(Some),
                None => Err(UnknownBackendError {
                    value: value.to_string_lossy().into_owned(),
                    reason: "value is not valid UTF-8",
                }),
            },
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One seeding substrate bound to one reference partition.
///
/// Object-safe and `Send + Sync` so a session can hold
/// `Arc<Vec<Mutex<Box<dyn SeedingBackend>>>>` and drive it from scoped
/// worker threads. Implementations report partition-**local** hit
/// coordinates; the session translates and merges.
///
/// The CAM-specific hook (`inject_cam_faults`) defaults to a no-op so
/// software backends do not have to know about CAM fault models.
pub trait SeedingBackend: Send + Sync {
    /// Which substrate this is.
    fn kind(&self) -> BackendKind;

    /// Seeds one read against this backend's partition, writing the SMEMs
    /// into the caller's scratch vector (cleared first). Hits are
    /// partition-local. Statistics are reported as per-read deltas onto
    /// `stats`, exactly like [`PartitionEngine::seed_read`].
    fn seed_read_into(&mut self, read: &PackedSeq, stats: &mut SeedingStats, out: &mut Vec<Smem>);

    /// Seeds a tile of reads, one output vector per read (the batched
    /// entry point the session's tile scheduler uses). The default
    /// implementation loops [`seed_read_into`](Self::seed_read_into);
    /// backends with a cheaper batched path may override it, but the
    /// output must stay bit-identical to the per-read loop.
    fn seed_tile_into(
        &mut self,
        reads: &[PackedSeq],
        stats: &mut SeedingStats,
        out: &mut Vec<Vec<Smem>>,
    ) {
        out.clear();
        for read in reads {
            let mut smems = Vec::new();
            self.seed_read_into(read, stats, &mut smems);
            out.push(smems);
        }
    }

    /// Tile variant fed by the session's pre-seeding stage: `pre` holds
    /// this partition's surviving pivots and filter statistics for every
    /// read of the tile (see
    /// [`FusedFilter::probe_tile`](casa_filter::FusedFilter::probe_tile)).
    /// Output and stats must stay bit-identical to
    /// [`seed_tile_into`](Self::seed_tile_into) — the stage is a shared
    /// precomputation, never a semantic input. Backends without a filter
    /// ignore it.
    fn seed_tile_preseeded_into(
        &mut self,
        reads: &[PackedSeq],
        pre: &PartSurvivors,
        stats: &mut SeedingStats,
        out: &mut Vec<Vec<Smem>>,
    ) {
        let _ = pre;
        self.seed_tile_into(reads, stats, out);
    }

    /// Injects seeded computing-CAM faults, returning the chosen sites.
    /// Only meaningful for the CAM backend; the default reports no sites
    /// (the software models have no CAM lines to corrupt — scheduler
    /// faults like tile panics and stalls still apply, as they fire above
    /// the backend). Filter faults go into the session's shared
    /// pre-seeding table, not through the backend.
    fn inject_cam_faults(&mut self, _cam: &casa_cam::CamFaultModel) -> casa_cam::CamFaultReport {
        casa_cam::CamFaultReport::default()
    }

    /// Enables per-stage wall-clock profiling (see
    /// [`crate::profile`]). Software backends are not instrumented and
    /// default to a no-op: their stage spans simply stay zero, which the
    /// profile layer treats as "not measured", not as "free".
    fn set_profiling(&mut self, _enabled: bool) {}

    /// Whether this backend's reference-side arrays are borrowed from a
    /// mapped index image (see [`crate::image`]) rather than owned heap
    /// allocations. Software backends always own their structures.
    fn storage_shared(&self) -> bool {
        false
    }
}

impl SeedingBackend for PartitionEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::Cam
    }

    fn seed_read_into(&mut self, read: &PackedSeq, stats: &mut SeedingStats, out: &mut Vec<Smem>) {
        PartitionEngine::seed_read_into(self, read, stats, out);
    }

    /// Seeds each read from the stage's survivors; a stage that does not
    /// cover the tile (never produced by the session) falls back to the
    /// engine's own lookups.
    fn seed_tile_preseeded_into(
        &mut self,
        reads: &[PackedSeq],
        pre: &PartSurvivors,
        stats: &mut SeedingStats,
        out: &mut Vec<Vec<Smem>>,
    ) {
        if pre.reads() != reads.len() {
            self.seed_tile_into(reads, stats, out);
            return;
        }
        out.clear();
        for (i, read) in reads.iter().enumerate() {
            let (survivors, looked_up) = pre.read(i);
            let mut smems = Vec::new();
            self.seed_preseeded_into(read, survivors, looked_up, stats, &mut smems);
            out.push(smems);
        }
    }

    fn set_profiling(&mut self, enabled: bool) {
        PartitionEngine::set_profiling(self, enabled);
    }

    fn inject_cam_faults(&mut self, cam: &casa_cam::CamFaultModel) -> casa_cam::CamFaultReport {
        PartitionEngine::inject_cam_faults(self, cam)
    }

    fn storage_shared(&self) -> bool {
        PartitionEngine::storage_shared(self)
    }
}

/// The FM-index backend: BWA-MEM2's bidirectional SMEM algorithm
/// (Li 2012, Algorithm 2) on a per-partition [`BiFmIndex`].
///
/// Output equals the golden unidirectional algorithm (cross-checked in
/// `casa-index::smem`), hence equals the CAM path. Activity statistics
/// cover read passes, per-pivot search counts, and seed-record DRAM
/// traffic; the CASA filter/CAM counters stay zero.
#[derive(Debug)]
pub struct FmBackend {
    bi: BiFmIndex,
    min_smem_len: usize,
}

impl FmBackend {
    /// Validates `config` and builds the bidirectional FM-index of
    /// `partition`.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration invariant (see
    /// [`CasaConfig::validated`]).
    pub fn new(partition: &PackedSeq, config: CasaConfig) -> Result<FmBackend, ConfigError> {
        let config = config.validated()?;
        Ok(FmBackend {
            bi: BiFmIndex::build(partition),
            min_smem_len: config.min_smem_len,
        })
    }
}

impl SeedingBackend for FmBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Fm
    }

    fn seed_read_into(&mut self, read: &PackedSeq, stats: &mut SeedingStats, out: &mut Vec<Smem>) {
        stats.read_passes += 1;
        stats.pivots_total += read.len() as u64;
        out.clear();
        let mut smems = smems_bidirectional(&self.bi, read, self.min_smem_len);
        // One backward/forward extension pass per emitted candidate pivot:
        // charge a search per SMEM plus one per uncovered pivot round, the
        // closest analogue of the CAM path's RMEM search count.
        stats.rmem_searches += smems.len().max(1) as u64;
        stats.smems_reported += smems.len() as u64;
        stats.dram_bytes += smems
            .iter()
            .map(|s| 8 + 4 * s.hits.len() as u64)
            .sum::<u64>();
        out.append(&mut smems);
    }
}

/// The ERT backend: GenAx-style unidirectional SMEM extraction where every
/// RMEM comes from an enumerated-radix-tree walk ([`ErtIndex::walk`])
/// instead of a CAM search — the software twin of the ASIC-ERT baseline
/// whose cost model lives in `casa-baselines::ert_model`.
#[derive(Clone, Debug)]
pub struct ErtBackend {
    ert: ErtIndex,
    min_smem_len: usize,
}

impl ErtBackend {
    /// Validates `config` and builds the radix trees of `partition` with
    /// the filter k-mer size (`config.filter.k`, 15–19 at paper scale).
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration invariant (see
    /// [`CasaConfig::validated`]). Validation guarantees
    /// `2 <= k <= 32` and `min_smem_len >= k`, the precondition of the
    /// equivalence argument below.
    pub fn new(partition: &PackedSeq, config: CasaConfig) -> Result<ErtBackend, ConfigError> {
        let config = config.validated()?;
        Ok(ErtBackend {
            ert: ErtIndex::build(partition, config.filter.k),
            min_smem_len: config.min_smem_len,
        })
    }
}

impl SeedingBackend for ErtBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Ert
    }

    /// Unidirectional SMEM extraction over ERT walks.
    ///
    /// `walk` returns `None` exactly when the pivot's k-mer is absent,
    /// i.e. the RMEM there is shorter than `k <= min_smem_len`. Skipping
    /// those pivots' `max_end` updates cannot change the output: any RMEM
    /// a sub-`k` RMEM would have contained is strictly shorter than it,
    /// hence also below `min_smem_len`, and is dropped by the length
    /// filter either way. For pivots with a walk, `matched_len` and
    /// `positions` equal the suffix-array longest match (proven in
    /// `casa-index::ert`), so the emitted set is bit-identical to
    /// [`smems_unidirectional`](casa_index::smem::smems_unidirectional).
    fn seed_read_into(&mut self, read: &PackedSeq, stats: &mut SeedingStats, out: &mut Vec<Smem>) {
        stats.read_passes += 1;
        stats.pivots_total += read.len() as u64;
        out.clear();
        let mut max_end = 0usize;
        for pivot in 0..read.len() {
            match self.ert.walk(read, pivot) {
                None => {
                    // Absent k-mer: the RMEM here is < k <= min_smem_len.
                    // Costs one index-table probe, which the walk would
                    // have counted; treat it as a filtered pivot.
                    stats.pivots_filtered_table += 1;
                }
                Some(walk) => {
                    stats.rmem_searches += 1;
                    let end = pivot + walk.matched_len;
                    if end <= max_end {
                        stats.rmems_contained += 1;
                        continue;
                    }
                    max_end = end;
                    if walk.matched_len >= self.min_smem_len {
                        stats.dram_bytes += 8 + 4 * walk.positions.len() as u64;
                        out.push(Smem {
                            read_start: pivot,
                            read_end: end,
                            hits: walk.positions,
                        });
                    }
                }
            }
        }
        stats.smems_reported += out.len() as u64;
    }
}

/// Builds one boxed backend of the given kind for one partition.
///
/// # Errors
///
/// Returns the first violated configuration invariant (see
/// [`CasaConfig::validated`]).
pub fn build_backend(
    kind: BackendKind,
    partition: &PackedSeq,
    config: CasaConfig,
) -> Result<Box<dyn SeedingBackend>, ConfigError> {
    Ok(match kind {
        BackendKind::Cam => Box::new(PartitionEngine::new(partition, config)?),
        BackendKind::Fm => Box::new(FmBackend::new(partition, config)?),
        BackendKind::Ert => Box::new(ErtBackend::new(partition, config)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_genome::synth::{generate_reference, ReferenceProfile};
    use casa_genome::{ReadSimConfig, ReadSimulator};
    use casa_index::smem::smems_unidirectional;
    use casa_index::SuffixArray;

    #[test]
    fn kind_round_trips_and_rejects_unknown() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.as_str()), Ok(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        let err = BackendKind::parse("gpu").unwrap_err();
        assert_eq!(err.value, "gpu");
        assert!(err.to_string().contains("cam, fm, ert"));
    }

    #[test]
    fn every_backend_equals_golden_on_simulated_reads() {
        let part = generate_reference(&ReferenceProfile::human_like(), 4_000, 77);
        let config = CasaConfig::small(part.len());
        let sa = SuffixArray::build(&part);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 48,
                ..ReadSimConfig::default()
            },
            21,
        );
        let reads = sim.simulate(&part, 40);
        for kind in BackendKind::ALL {
            let mut backend = build_backend(kind, &part, config).expect("valid config");
            assert_eq!(backend.kind(), kind);
            let mut stats = SeedingStats::default();
            let mut smems = Vec::new();
            for read in &reads {
                let golden = smems_unidirectional(&sa, &read.seq, config.min_smem_len);
                backend.seed_read_into(&read.seq, &mut stats, &mut smems);
                assert_eq!(smems, golden, "{kind} diverged on read {}", read.name);
            }
            assert_eq!(stats.read_passes, reads.len() as u64);
            assert!(stats.smems_reported > 0, "{kind} reported no SMEMs");
        }
    }

    #[test]
    fn tile_path_matches_per_read_path() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_500, 5);
        let config = CasaConfig::small(part.len());
        let reads: Vec<PackedSeq> = (0..8).map(|i| part.subseq(i * 100, 40)).collect();
        for kind in BackendKind::ALL {
            let mut a = build_backend(kind, &part, config).expect("valid config");
            let mut b = build_backend(kind, &part, config).expect("valid config");
            let mut sa = SeedingStats::default();
            let mut sb = SeedingStats::default();
            let mut tile_out = Vec::new();
            a.seed_tile_into(&reads, &mut sa, &mut tile_out);
            let per_read: Vec<Vec<Smem>> = reads
                .iter()
                .map(|r| {
                    let mut out = Vec::new();
                    b.seed_read_into(r, &mut sb, &mut out);
                    out
                })
                .collect();
            assert_eq!(tile_out, per_read, "{kind} tile path diverged");
            assert_eq!(sa, sb, "{kind} tile stats diverged");
        }
    }

    /// The session's pre-seeded tile path must be bit-identical —
    /// output *and* stats — to the plain tile path on every backend,
    /// including for reads shorter than the filter k-mer (no pivots) at
    /// the end and in the middle of a tile, for tiles shorter than the
    /// probe pipeline, and with the exact-match attempt on and off (the
    /// stage's lookups are charged only when it fails).
    #[test]
    fn preseeded_path_matches_plain_path() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_500, 5);
        let k = CasaConfig::small(part.len()).filter.k;
        let mut reads: Vec<PackedSeq> = (0..8).map(|i| part.subseq(i * 100, 40)).collect();
        reads.insert(4, part.subseq(1_000, k - 1));
        reads.push(part.subseq(0, k - 1));
        let foreign = generate_reference(&ReferenceProfile::human_like(), 400, 6);
        reads.push(foreign.subseq(10, 40));
        let tiles: Vec<Vec<PackedSeq>> = vec![
            reads,
            vec![part.subseq(700, 40)],
            vec![
                part.subseq(300, k + 1),
                part.subseq(1_200, k - 2),
                part.subseq(1_800, k),
                part.subseq(2_000, k + 2),
            ],
        ];
        for exact in [true, false] {
            let mut config = CasaConfig::small(part.len());
            config.exact_match_preprocessing = exact;
            let fused = casa_filter::FusedFilter::build(&[&part], config.filter).unwrap();
            for tile in &tiles {
                let pre = crate::preseed::probe_reads(&fused, tile, &mut Default::default(), false);
                for kind in BackendKind::ALL {
                    let mut a = build_backend(kind, &part, config).expect("valid config");
                    let mut b = build_backend(kind, &part, config).expect("valid config");
                    let mut sa = SeedingStats::default();
                    let mut sb = SeedingStats::default();
                    let mut staged = Vec::new();
                    let mut plain = Vec::new();
                    a.seed_tile_preseeded_into(tile, &pre[0], &mut sa, &mut staged);
                    b.seed_tile_into(tile, &mut sb, &mut plain);
                    assert_eq!(staged, plain, "{kind} pre-seeded path diverged");
                    assert_eq!(sa, sb, "{kind} pre-seeded stats diverged");
                }
            }
        }
    }

    #[test]
    fn software_backends_ignore_cam_hooks() {
        let part = generate_reference(&ReferenceProfile::uniform(), 800, 2);
        let config = CasaConfig::small(part.len());
        for kind in [BackendKind::Fm, BackendKind::Ert] {
            let mut backend = build_backend(kind, &part, config).expect("valid config");
            let plan = crate::FaultPlan {
                seed: 9,
                cam_stuck_rate: 0.5,
                cam_flip_rate: 0.1,
                filter_flip_rate: 0.1,
                ..crate::FaultPlan::default()
            };
            let cam = backend.inject_cam_faults(&plan.cam_faults_for(0));
            assert_eq!(cam, casa_cam::CamFaultReport::default());
        }
    }

    #[test]
    fn invalid_config_is_rejected_by_every_backend() {
        let part = generate_reference(&ReferenceProfile::uniform(), 500, 1);
        let mut bad = CasaConfig::small(part.len());
        bad.lanes = 0;
        for kind in BackendKind::ALL {
            assert_eq!(
                build_backend(kind, &part, bad).map(|_| ()),
                Err(ConfigError::ZeroLanes),
                "{kind}"
            );
        }
    }
}
