//! Reusable parallel seeding sessions with fault-tolerant scheduling.
//!
//! [`SeedingSession`] is the batch-seeding runtime behind `casa::Seeder`,
//! the CLI and the server: it builds one boxed
//! [`SeedingBackend`] per partition **once** at construction (the filter
//! tables, CAM loads, or index builds dominate small-batch runs) and then
//! schedules partition × tile jobs across a worker pool for each incoming
//! read batch. The backend — the CASA CAM model, the FM-index golden
//! model, or the ERT model — is a runtime choice
//! ([`BackendKind`](crate::BackendKind), selected per process via
//! [`CASA_BACKEND`](crate::BACKEND_ENV) or per session via
//! [`with_backend`](SeedingSession::with_backend)); every layer above the
//! trait is backend-agnostic, and every backend emits the identical SMEM
//! stream (see [`crate::backend`]).
//!
//! # Determinism
//!
//! Results are bit-identical to the serial reference path
//! ([`seed_reads_serial`](crate::seed_reads_serial)) at any worker count:
//!
//! * each (partition, tile) job writes its SMEMs into a dedicated slot, and
//!   the final per-read lists are assembled in partition-index order before
//!   the usual cross-partition merge — so the SMEM stream never depends on
//!   scheduling;
//! * [`SeedingStats`] is a bag of `u64` counters whose merge is plain
//!   addition, which is commutative and associative, so worker-local stats
//!   can be folded in any completion order;
//! * `PartitionEngine::seed_read` reports per-read counter *deltas* and its
//!   output is a pure function of (partition, read), so engines can be
//!   reused across tiles, batches, and strands without drift.
//!
//! # Fault tolerance
//!
//! Every job runs inside `catch_unwind` and is retried with capped backoff
//! up to [`FaultPlan::max_retries`] times; when a tile's attempts are
//! exhausted its partition is **quarantined** and every read of every tile
//! of that partition is re-seeded through the FM-index golden model
//! ([`casa_index::smem::smems_unidirectional`]), whose per-partition output
//! the engine is proven bit-identical to by the `casa_equals_golden_*`
//! tests — so recovered batches keep their exact output. A seeded
//! [`FaultPlan`] can inject tile panics/stalls and hardware faults
//! (CAM stuck-at lines, CAM/filter bit flips) to exercise these paths
//! deterministically, plus a sampled golden cross-check that catches
//! *silent* corruption. Lock poisoning (a worker panicking while holding an
//! engine) is recovered by taking the inner value: the engine's only
//! mutable state is cumulative activity counters, and the delta-based
//! accounting above tolerates counters advanced by an abandoned attempt.
//!
//! With silent-corruption faults injected, output is guaranteed
//! bit-identical to the fault-free run only when
//! `cross_check_fraction == 1.0`; at lower fractions detection (and hence
//! which tiles fall back) is best-effort. See `DESIGN.md` §2b.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use casa_cam::Bcam;
use casa_filter::{FusedFilter, PartSurvivors};
use casa_genome::{PackedSeq, Partition};
use casa_index::smem::{merge_flat_smems, merge_partition_smems, smems_unidirectional};
use casa_index::{Smem, SuffixArray};

use crate::accelerator::{CasaRun, StrandedRun};
use crate::backend::{build_backend, BackendKind, SeedingBackend};
use crate::engine::PartitionEngine;
use crate::error::{ConfigError, Error};
use crate::faults::{self, FaultPlan, FaultSites, InjectedFault};
use crate::image::LoadedIndex;
use crate::preseed::TileStage;
use crate::profile::{Stage, StageTimer};
use crate::stats::SeedingStats;
use crate::stream::supervisor::{self, AttemptClock, DeadlineClock, GuardedOutcome};
use crate::stream::CancelToken;
use crate::CasaConfig;

/// Target number of tiles per worker, so the job queue stays long enough
/// to balance uneven per-read work without shrinking tiles into
/// lock-bound confetti.
const TILES_PER_WORKER: usize = 4;

/// Locks a mutex, recovering the inner value if a previous holder
/// panicked. Safe here because every protected structure is either
/// overwritten whole (slots) or merged from counters that tolerate an
/// abandoned attempt (engines, stats) — see the module docs.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Marker for a tile attempt whose output failed the golden cross-check.
struct CrossCheckMismatch;

/// Every way one supervised tile attempt can end.
enum AttemptOutcome {
    /// The attempt succeeded; its output and stats are authoritative.
    Done(Vec<Vec<Smem>>, Box<SeedingStats>),
    /// The sampled golden cross-check caught corrupted output.
    Mismatch,
    /// The attempt panicked (injected or real).
    Panicked,
    /// The watchdog deadline expired and the attempt was abandoned.
    TimedOut,
    /// The session's cancel token fired while the attempt was in flight.
    Cancelled,
}

/// A seeding runtime bound to one reference and configuration.
///
/// Construction is the expensive step (one engine per reference
/// partition); every subsequent [`seed_reads`](SeedingSession::seed_reads)
/// call reuses the engines. Cloning a session is cheap and shares the
/// engines, the golden indexes, and the quarantine state.
///
/// ```
/// use casa_core::{CasaConfig, SeedingSession};
/// use casa_genome::synth::{generate_reference, ReferenceProfile};
///
/// let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 1);
/// let session = SeedingSession::new(&reference, CasaConfig::small(1_000), 2)?;
/// let read = reference.subseq(2_500, 40);
/// let run = session.seed_reads(std::slice::from_ref(&read));
/// assert!(run.smems[0][0].hits.contains(&2_500));
/// # Ok::<(), casa_core::Error>(())
/// ```
#[derive(Clone)]
pub struct SeedingSession {
    config: CasaConfig,
    /// Global start coordinate of each partition, indexed like `engines`.
    part_starts: Arc<Vec<u32>>,
    /// The partitions themselves (for the golden fallback index builds).
    parts: Arc<Vec<Partition>>,
    backend: BackendKind,
    engines: Arc<Vec<Mutex<Box<dyn SeedingBackend>>>>,
    /// The reference-wide pre-seeding table the per-tile stage probes
    /// (see [`crate::preseed`]); `None` when no stage runs (software
    /// backends, or the filter table switched off). The CAM engines hold
    /// the same table for their own per-partition lookups.
    preseed: Option<Arc<FusedFilter>>,
    /// Lazily built golden suffix arrays, one per partition.
    golden: Arc<Vec<OnceLock<SuffixArray>>>,
    /// Partitions routed to the golden model after retry exhaustion.
    quarantined: Arc<Vec<AtomicBool>>,
    plan: FaultPlan,
    fault_sites: Arc<FaultSites>,
    workers: usize,
    /// Watchdog deadline per tile attempt; `None` (the default) runs
    /// attempts unguarded on the worker thread.
    tile_deadline: Option<Duration>,
    /// What the deadline is measured against (wall clock by default).
    deadline_clock: DeadlineClock,
    /// Cooperative cancellation for in-flight batches, checked at tile
    /// boundaries; `None` (the default) never cancels. Clones share the
    /// token, so the watchdog's owned session copy observes it too.
    cancel: Option<CancelToken>,
    /// Whether session-level stages (coordinate translation, assembly,
    /// cross-partition merge) take wall-clock timestamps — shared across
    /// clones so the watchdog's owned session copy profiles too. Engine
    /// stages carry their own flag (see
    /// [`set_profiling`](Self::set_profiling)).
    profiling: Arc<AtomicBool>,
}

impl std::fmt::Debug for SeedingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeedingSession")
            .field("config", &self.config)
            .field("backend", &self.backend)
            .field("partitions", &self.engines.len())
            .field("workers", &self.workers)
            .field("fault_plan", &self.plan)
            .finish()
    }
}

impl SeedingSession {
    /// Validates `config`, splits `reference`, and builds one engine per
    /// partition.
    ///
    /// If the [`CASA_FAULT_SEED`](faults::FAULT_SEED_ENV) environment
    /// variable is set, the CI fault profile
    /// ([`FaultPlan::ci_plan`]) is armed so the recovery paths are
    /// exercised; otherwise the session runs fault-free. If the
    /// [`CASA_BACKEND`](crate::BACKEND_ENV) environment variable is set,
    /// that seeding backend is built instead of the CAM default.
    ///
    /// # Errors
    ///
    /// * [`Error::Config`] if the configuration is inconsistent (including
    ///   a typed
    ///   [`ConfigError::UnknownSeedingBackend`](crate::ConfigError::UnknownSeedingBackend)
    ///   for an unrecognised `CASA_BACKEND` value);
    /// * [`Error::EmptyReference`] if `reference` has no bases;
    /// * [`Error::ZeroWorkers`] if `workers == 0`.
    pub fn new(
        reference: &PackedSeq,
        config: CasaConfig,
        workers: usize,
    ) -> Result<SeedingSession, Error> {
        let plan = FaultPlan::from_env().unwrap_or_default();
        SeedingSession::with_fault_plan(reference, config, workers, plan)
    }

    /// Like [`new`](Self::new) with an explicit fault plan: hardware
    /// faults are injected into the freshly built engines and scheduler
    /// faults armed for every batch.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), plus [`Error::Config`] with
    /// [`ConfigError::BadFaultPlan`](crate::ConfigError::BadFaultPlan) if
    /// a plan rate lies outside `[0, 1]`.
    pub fn with_fault_plan(
        reference: &PackedSeq,
        config: CasaConfig,
        workers: usize,
        plan: FaultPlan,
    ) -> Result<SeedingSession, Error> {
        let backend = BackendKind::from_env()
            .map_err(crate::ConfigError::from)?
            .unwrap_or(BackendKind::Cam);
        SeedingSession::with_backend(reference, config, workers, plan, backend)
    }

    /// Like [`with_fault_plan`](Self::with_fault_plan) with an explicit
    /// seeding backend, ignoring the [`CASA_BACKEND`](crate::BACKEND_ENV)
    /// environment variable. The CAM backend builds one pre-seeding
    /// table for the whole reference; filter faults are injected into it
    /// before it is shared, CAM faults through each backend's
    /// [`inject_cam_faults`](SeedingBackend::inject_cam_faults) hook — a
    /// no-op on the software backends, which have no CAM lines or filter
    /// tables to corrupt (scheduler faults still apply).
    ///
    /// # Errors
    ///
    /// As [`with_fault_plan`](Self::with_fault_plan), plus
    /// [`ConfigError::TooManyPartitions`] when the reference splits into
    /// more partitions than the pre-seeding table's tag word can name.
    pub fn with_backend(
        reference: &PackedSeq,
        config: CasaConfig,
        workers: usize,
        plan: FaultPlan,
        backend: BackendKind,
    ) -> Result<SeedingSession, Error> {
        SeedingSession::assemble(reference, config, workers, plan, backend, None)
    }

    /// Builds a session from a loaded index image instead of from scratch.
    ///
    /// For the CAM backend every reference-side array — CAM entry
    /// bitplanes, the pre-seeding table, golden suffix arrays — is
    /// borrowed straight from the image's read-only mapping: no table is
    /// rebuilt and no per-load copy is made, so construction cost is
    /// partition splitting plus page faults. The FM/ERT software baselines
    /// rebuild their private indexes from the image's reference text; the
    /// golden suffix arrays still come from the mapping. Either way the
    /// session is bit-identical to one built with
    /// [`with_backend`](Self::with_backend) from the same reference and
    /// config.
    ///
    /// Hardware fault injection works unchanged: the shared tables are
    /// copy-on-write, so arming a fault plan detaches the affected arrays
    /// into private heap copies without disturbing the mapping (or other
    /// sessions sharing it).
    ///
    /// # Errors
    ///
    /// As [`with_backend`](Self::with_backend), plus [`Error::Image`] if a
    /// section the CAM backend needs is missing or shaped wrong.
    pub fn from_image(
        index: &LoadedIndex,
        workers: usize,
        plan: FaultPlan,
        backend: BackendKind,
    ) -> Result<SeedingSession, Error> {
        SeedingSession::assemble(
            index.reference(),
            *index.config(),
            workers,
            plan,
            backend,
            Some(index),
        )
    }

    /// The one assembly path behind [`with_backend`](Self::with_backend)
    /// and [`from_image`](Self::from_image), which differ only in whether
    /// the CAM backend's tables are built or borrowed from `index`.
    /// Validates the knobs, splits `reference`, builds (or maps) one
    /// pre-seeding table for the whole reference, injects the plan's
    /// filter faults into it before it is shared and its CAM faults into
    /// the engines, and arms the quarantine state.
    fn assemble(
        reference: &PackedSeq,
        config: CasaConfig,
        workers: usize,
        plan: FaultPlan,
        backend: BackendKind,
        index: Option<&LoadedIndex>,
    ) -> Result<SeedingSession, Error> {
        if workers == 0 {
            return Err(Error::ZeroWorkers);
        }
        let plan = plan.validated()?;
        let config = config.validated()?;
        let partitions: Vec<Partition> = config.partitioning.split(reference);
        if partitions.is_empty() {
            return Err(Error::EmptyReference);
        }
        let part_starts = partitions.iter().map(|p| p.start as u32).collect();
        let (mut fused, cams) = match (backend, index) {
            (BackendKind::Cam, Some(index)) => {
                let cams = partitions
                    .iter()
                    .map(|p| index.cam_for_partition(p))
                    .collect::<Result<Vec<_>, _>>()?;
                (Some(index.fused_filter(&partitions)?), cams)
            }
            (BackendKind::Cam, None) => {
                let (filter, cams) = build_cam_tables(&partitions, config, workers);
                (Some(filter.map_err(ConfigError::from)?), cams)
            }
            _ => (None, Vec::new()),
        };
        let mut fault_sites = FaultSites::default();
        for pi in 0..partitions.len() {
            fault_sites.filter.push(match fused.as_mut() {
                Some(filter) => filter.inject_faults(pi, &plan.filter_faults_for(pi)),
                None => Default::default(),
            });
        }
        let fused = fused.map(Arc::new);
        let mut cams = cams.into_iter();
        let mut engines = partitions
            .iter()
            .map(|p| -> Result<Box<dyn SeedingBackend>, Error> {
                match (&fused, cams.next()) {
                    (Some(filter), Some(cam)) => Ok(Box::new(PartitionEngine::with_fused(
                        Arc::clone(filter),
                        p.index,
                        cam,
                        config,
                    )?)),
                    _ => Ok(build_backend(backend, &p.seq, config)?),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (pi, engine) in engines.iter_mut().enumerate() {
            fault_sites
                .cam
                .push(engine.inject_cam_faults(&plan.cam_faults_for(pi)));
        }
        if plan.tile_panic_rate > 0.0 {
            faults::silence_injected_panics();
        }
        let golden = partitions
            .iter()
            .map(|p| {
                index
                    .and_then(|index| index.suffix_array_for_partition(p))
                    .map_or_else(OnceLock::new, OnceLock::from)
            })
            .collect();
        let nparts = partitions.len();
        Ok(SeedingSession {
            config,
            part_starts: Arc::new(part_starts),
            parts: Arc::new(partitions),
            backend,
            engines: Arc::new(engines.into_iter().map(Mutex::new).collect()),
            preseed: fused.filter(|_| config.use_filter_table),
            golden: Arc::new(golden),
            quarantined: Arc::new((0..nparts).map(|_| AtomicBool::new(false)).collect()),
            plan,
            fault_sites: Arc::new(fault_sites),
            workers,
            tile_deadline: None,
            deadline_clock: DeadlineClock::Wall,
            cancel: None,
            profiling: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Enables per-stage wall-clock profiling (see [`crate::profile`]) on
    /// this session and every partition backend; spans accumulate into
    /// [`SeedingStats::profile`]. Off by default — timings are
    /// nondeterministic and excluded from the bit-identity contract, so
    /// runs compared for equality keep this off.
    pub fn set_profiling(&self, enabled: bool) {
        self.profiling.store(enabled, Ordering::Relaxed);
        for engine in self.engines.iter() {
            lock_recover(engine).set_profiling(enabled);
        }
    }

    /// Whether per-stage profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling.load(Ordering::Relaxed)
    }

    /// Sets (or clears) the watchdog deadline for tile attempts.
    ///
    /// With a deadline, every attempt runs on a supervised thread and is
    /// abandoned when the deadline expires; the abandoned attempt is
    /// counted in [`SeedingStats::deadline_stalls`] and the tile is
    /// retried — then quarantined to the golden model — exactly like a
    /// panicking attempt, so output stays bit-identical. The deadline
    /// never changes results, only how stalls are detected, which is why
    /// the streaming checkpoint fingerprint excludes it.
    pub fn with_tile_deadline(mut self, deadline: Option<Duration>) -> SeedingSession {
        self.tile_deadline = deadline;
        self
    }

    /// The active watchdog deadline, if any.
    pub fn tile_deadline(&self) -> Option<Duration> {
        self.tile_deadline
    }

    /// Measures the watchdog deadline on injected stall time only (see
    /// [`DeadlineClock::Injected`]), so tests can assert exactly which
    /// attempts time out.
    #[cfg(test)]
    fn with_injected_deadline_clock(mut self) -> SeedingSession {
        self.deadline_clock = DeadlineClock::Injected;
        self
    }

    /// Sets (or clears) a cooperative cancellation token for this
    /// session's batches. Workers check the token at tile boundaries —
    /// and the watchdog checks it every millisecond while a guarded
    /// attempt is in flight — so a cancelled batch stops within roughly
    /// one tile's work. A cancelled
    /// [`try_seed_reads`](Self::try_seed_reads) returns
    /// [`Error::Cancelled`]; the partial work is discarded, never routed
    /// through the golden fallback. Like the tile deadline, the token
    /// never changes what a completed batch computes.
    pub fn with_cancel_token(mut self, token: Option<CancelToken>) -> SeedingSession {
        self.cancel = token;
        self
    }

    /// A clone of the session's cancel token, if one is set.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.cancel.clone()
    }

    /// Whether the session's cancel token (if any) has fired.
    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The session configuration.
    pub fn config(&self) -> &CasaConfig {
        &self.config
    }

    /// The seeding backend every partition is driven through. Like the
    /// tile deadline, the backend never changes results — all backends
    /// emit the identical SMEM stream — so the streaming checkpoint
    /// fingerprint excludes it.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The active fault plan (all-zero rates when fault-free).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The hardware fault sites injected at construction, per partition.
    pub fn fault_sites(&self) -> &FaultSites {
        &self.fault_sites
    }

    /// Number of reference partitions (passes per read batch).
    pub fn partition_count(&self) -> usize {
        self.engines.len()
    }

    /// Checks that a read of `len` bases named `read` can be seeded
    /// exactly. Partition `i` covers `[i·len, (i + 1)·len + overlap)`, so
    /// any window of at most `overlap + 1` bases lies whole inside some
    /// partition; a longer read can straddle a cut and would come back as
    /// split SMEMs. A single-partition session takes any length. Callers
    /// that accept reads from outside (the CLI, `casa-serve`) call this
    /// for every read before seeding it.
    ///
    /// # Errors
    ///
    /// [`Error::ReadTooLong`] naming `read`, its length and the maximum
    /// (`overlap + 1`).
    pub fn check_read_len(&self, read: &str, len: usize) -> Result<(), Error> {
        let max = self.config.partitioning.overlap + 1;
        if self.engines.len() > 1 && len > max {
            return Err(Error::ReadTooLong {
                read: read.to_string(),
                len,
                max,
            });
        }
        Ok(())
    }

    /// Whether every partition's reference-side arrays are borrowed from
    /// a mapped index image (see
    /// [`SeedingBackend::storage_shared`]); `false` for the software
    /// backends and after fault injection detached a table.
    pub fn storage_shared(&self) -> bool {
        self.engines
            .iter()
            .all(|engine| lock_recover(engine).storage_shared())
    }

    /// Number of partitions currently quarantined to the golden model.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined
            .iter()
            .filter(|q| q.load(Ordering::Relaxed))
            .count()
    }

    /// Worker threads used per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Read count per tile for a batch of `n` reads: enough tiles to keep
    /// every worker busy, never less than one read.
    fn tile_len(&self, n: usize) -> usize {
        n.div_ceil(self.workers * TILES_PER_WORKER).max(1)
    }

    /// Seeds one read through the golden FM-index model of partition `pi`,
    /// hits translated to global coordinates — the quarantine fallback and
    /// the cross-check reference. Builds the partition's suffix array on
    /// first use.
    fn golden_read(&self, pi: usize, read: &PackedSeq) -> Vec<Smem> {
        let sa = self.golden[pi].get_or_init(|| SuffixArray::build(&self.parts[pi].seq));
        let mut smems = smems_unidirectional(sa, read, self.config.min_smem_len);
        let start = self.part_starts[pi];
        for smem in &mut smems {
            for hit in &mut smem.hits {
                *hit += start;
            }
        }
        smems
    }

    /// One attempt at a (partition, tile) job: inject any scheduled
    /// stall/panic, seed the tile through the partition engine (from the
    /// pre-seeding stage's survivors when `pre` carries them), then
    /// cross-check the sampled reads against the golden model.
    #[allow(clippy::too_many_arguments)]
    fn attempt_tile(
        &self,
        pi: usize,
        ti: usize,
        attempt: usize,
        tile: &[PackedSeq],
        pre: Option<&PartSurvivors>,
        read_offset: usize,
        clock: &AttemptClock,
    ) -> Result<(Vec<Vec<Smem>>, SeedingStats), CrossCheckMismatch> {
        if !self.plan.is_noop() {
            if self.plan.should_stall(pi, ti, attempt) {
                clock.stall(self.plan.stall_duration());
            }
            if self.plan.should_panic(pi, ti, attempt) {
                // Fires before the engine lock is taken, so injected
                // panics never poison an engine mid-read.
                std::panic::panic_any(InjectedFault {
                    partition: pi,
                    tile: ti,
                    attempt,
                });
            }
        }
        let mut stats = SeedingStats::default();
        let start = self.part_starts[pi];
        let mut out: Vec<Vec<Smem>> = Vec::with_capacity(tile.len());
        {
            let mut engine = lock_recover(&self.engines[pi]);
            match pre {
                Some(pre) => engine.seed_tile_preseeded_into(tile, pre, &mut stats, &mut out),
                None => engine.seed_tile_into(tile, &mut stats, &mut out),
            }
        }
        let t = StageTimer::start(self.profiling());
        for smems in &mut out {
            for smem in smems {
                for hit in &mut smem.hits {
                    *hit += start;
                }
            }
        }
        t.stop(&mut stats.profile, Stage::TranslateMerge);
        if self.plan.cross_check_fraction > 0.0 {
            for (k, read) in tile.iter().enumerate() {
                if self.plan.should_check(pi, read_offset + k) {
                    stats.crosscheck_reads += 1;
                    if out[k] != self.golden_read(pi, read) {
                        return Err(CrossCheckMismatch);
                    }
                }
            }
        }
        Ok((out, stats))
    }

    /// One tile attempt behind whatever supervision is configured: a bare
    /// `catch_unwind` without a deadline, the watchdog thread with one.
    /// Both paths report panics identically; only the watchdog can
    /// additionally report a timeout.
    fn guarded_attempt(
        &self,
        pi: usize,
        ti: usize,
        attempt: usize,
        tile: &[PackedSeq],
        pre: Option<&PartSurvivors>,
        read_offset: usize,
    ) -> AttemptOutcome {
        let clock = AttemptClock::start(self.deadline_clock);
        match self.tile_deadline {
            None => match catch_unwind(AssertUnwindSafe(|| {
                self.attempt_tile(pi, ti, attempt, tile, pre, read_offset, &clock)
            })) {
                Ok(Ok((out, stats))) => AttemptOutcome::Done(out, Box::new(stats)),
                Ok(Err(CrossCheckMismatch)) => AttemptOutcome::Mismatch,
                Err(_panic) => AttemptOutcome::Panicked,
            },
            Some(deadline) => {
                // The guarded job runs on its own thread and may outlive
                // the deadline, so it gets owned copies: a cheap session
                // clone (shared `Arc`s) and the tile's reads. An abandoned
                // attempt may still advance an engine's cumulative
                // counters, which the delta-based accounting tolerates
                // (see the module docs). A session with a deadline runs
                // no pre-seeding stage: the engine looks the pivots up in
                // its own partition, with bit-identical output and stats.
                let session = self.clone();
                let tile = tile.to_vec();
                let job_clock = clock.clone();
                match supervisor::run_with_deadline(
                    deadline,
                    self.cancel.as_ref(),
                    &clock,
                    move || {
                        session.attempt_tile(pi, ti, attempt, &tile, None, read_offset, &job_clock)
                    },
                ) {
                    GuardedOutcome::Completed(Ok((out, stats))) => {
                        AttemptOutcome::Done(out, Box::new(stats))
                    }
                    GuardedOutcome::Completed(Err(CrossCheckMismatch)) => AttemptOutcome::Mismatch,
                    GuardedOutcome::Panicked => AttemptOutcome::Panicked,
                    GuardedOutcome::TimedOut => AttemptOutcome::TimedOut,
                    GuardedOutcome::Cancelled => AttemptOutcome::Cancelled,
                }
            }
        }
    }

    /// Runs a (partition, tile) job to a definitive result: retry failed
    /// attempts with capped backoff, then quarantine the partition and
    /// fall back to the golden model. Only the successful attempt's engine
    /// stats are merged, so failed attempts never skew the activity
    /// counters.
    fn run_tile(
        &self,
        pi: usize,
        ti: usize,
        tile: &[PackedSeq],
        pre: Option<&PartSurvivors>,
        read_offset: usize,
        stats: &mut SeedingStats,
    ) -> Vec<Vec<Smem>> {
        let attempts = self.plan.max_retries.saturating_add(1);
        for attempt in 0..attempts {
            if self.is_cancelled() {
                // The batch is being abandoned: hand back a placeholder
                // (the caller discards every slot on cancellation) and
                // never route a cancelled tile into the golden fallback.
                return vec![Vec::new(); tile.len()];
            }
            if self.quarantined[pi].load(Ordering::Relaxed) {
                // The partition already failed elsewhere; skip the doomed
                // attempts and go straight to the fallback.
                break;
            }
            match self.guarded_attempt(pi, ti, attempt, tile, pre, read_offset) {
                AttemptOutcome::Done(out, attempt_stats) => {
                    stats.merge(&attempt_stats);
                    return out;
                }
                AttemptOutcome::Mismatch => {
                    stats.tile_retries += 1;
                    stats.crosscheck_mismatches += 1;
                }
                AttemptOutcome::Panicked => {
                    stats.tile_retries += 1;
                }
                AttemptOutcome::TimedOut => {
                    // A stall caught by the watchdog, not a crash: counted
                    // apart from panic retries so operators can tell
                    // hangs from faults.
                    stats.deadline_stalls += 1;
                    crate::log_warn!(
                        "tile ({pi}, {ti}) attempt {attempt} exceeded the watchdog deadline"
                    );
                }
                AttemptOutcome::Cancelled => {
                    return vec![Vec::new(); tile.len()];
                }
            }
            if attempt + 1 < attempts && !self.is_cancelled() {
                // Capped exponential with deterministic per-site jitter:
                // simultaneous retries across partitions desynchronize
                // instead of hammering the scheduler in lockstep (see
                // `FaultPlan::retry_backoff`).
                std::thread::sleep(self.plan.retry_backoff(pi, ti, attempt));
            }
        }
        if !self.quarantined[pi].swap(true, Ordering::Relaxed) {
            stats.partitions_quarantined += 1;
        }
        stats.fallback_reads += tile.len() as u64;
        tile.iter().map(|read| self.golden_read(pi, read)).collect()
    }

    /// Tile `ti`'s pre-seeding stage, run by whichever worker gets here
    /// first (the others wait for it); `None` when the session runs no
    /// stage or the stage panicked, in which case the engines look the
    /// pivots up themselves. The stage's spans are booked into `stats`.
    fn tile_stage<'a>(
        &self,
        stages: &'a [OnceLock<TileStage>],
        ti: usize,
        tile: &[PackedSeq],
        stats: &mut SeedingStats,
    ) -> Option<&'a TileStage> {
        let (cell, filter) = (stages.get(ti)?, self.preseed.as_deref()?);
        catch_unwind(AssertUnwindSafe(|| {
            cell.get_or_init(|| TileStage::run(filter, tile, &mut stats.profile, self.profiling()))
        }))
        .ok()
    }

    /// Seeds a read batch against every partition and merges the results.
    ///
    /// Output is bit-identical to the serial reference path regardless of
    /// `workers` (see the module docs); under an active fault plan the
    /// recovery machinery preserves that equality (exactly, for crash
    /// faults; given `cross_check_fraction == 1.0`, for silent faults).
    /// Never panics: if the scheduler itself ends in an unrecoverable
    /// state, the whole batch is re-seeded through the golden model. A
    /// cancelled batch (see [`with_cancel_token`](Self::with_cancel_token))
    /// is the one exception: it returns an empty result per read — the
    /// caller asked for the work to stop, so the expensive golden path
    /// must not run either.
    pub fn seed_reads(&self, reads: &[PackedSeq]) -> CasaRun {
        match self.try_seed_reads(reads) {
            Ok(run) => run,
            Err(Error::Cancelled) => CasaRun {
                smems: vec![Vec::new(); reads.len()],
                stats: SeedingStats::default(),
                config: self.config,
            },
            Err(_) => self.golden_batch(reads),
        }
    }

    /// Like [`seed_reads`](Self::seed_reads), reporting unrecoverable
    /// scheduler states instead of falling back.
    ///
    /// # Errors
    ///
    /// * [`Error::Runtime`] if a job slot is empty after the batch — a
    ///   scheduler invariant violation, not an injected fault (those are
    ///   recovered internally);
    /// * [`Error::Cancelled`] if the session's cancel token fired before
    ///   the batch finished (the partial work is discarded).
    pub fn try_seed_reads(&self, reads: &[PackedSeq]) -> Result<CasaRun, Error> {
        if self.is_cancelled() {
            return Err(Error::Cancelled);
        }
        let nparts = self.engines.len();
        let tile_len = self.tile_len(reads.len());
        let ntiles = reads.len().div_ceil(tile_len);

        let tile_of = |ti: usize| &reads[ti * tile_len..((ti + 1) * tile_len).min(reads.len())];

        // One pre-seeding stage per tile (see `crate::preseed`), when the
        // session runs one. Watchdog-supervised attempts drop the stage's
        // output, so a session with a tile deadline runs none.
        let stages: Vec<OnceLock<TileStage>> = match (&self.preseed, self.tile_deadline) {
            (Some(_), None) => (0..ntiles).map(|_| OnceLock::new()).collect(),
            _ => Vec::new(),
        };

        // One slot per (partition, tile) job; workers claim job ids off a
        // shared counter. Ids run in blocks of `nparts + 1`: block `b`
        // opens with tile `b`'s stage and goes on with tile `b - 1`'s
        // partition jobs, so each stage runs while the previous tile is
        // seeded and is usually ready before its own partition jobs are
        // claimed. Inside a block, consecutive claims hit different
        // partition engines and rarely contend on the same lock.
        let slots: Vec<Mutex<Option<Vec<Vec<Smem>>>>> =
            (0..ntiles * nparts).map(|_| Mutex::new(None)).collect();
        let block = nparts + 1;
        let njobs = (ntiles + 1) * block;
        let next_job = AtomicUsize::new(0);
        let merged_stats = Mutex::new(SeedingStats::default());

        let run_jobs = |local_stats: &mut SeedingStats| loop {
            if self.is_cancelled() {
                break;
            }
            let job = next_job.fetch_add(1, Ordering::Relaxed);
            if job >= njobs {
                break;
            }
            let (b, r) = (job / block, job % block);
            if r == 0 {
                if b < ntiles {
                    self.tile_stage(&stages, b, tile_of(b), local_stats);
                }
                continue;
            }
            if b == 0 {
                continue;
            }
            let (ti, pi) = (b - 1, r - 1);
            let tile = tile_of(ti);
            // The partition's share leaves the stage with this job, so a
            // finished tile's survivors are freed.
            let pre = self
                .tile_stage(&stages, ti, tile, local_stats)
                .and_then(|stage| stage.take(pi));
            let out = self.run_tile(pi, ti, tile, pre.as_ref(), ti * tile_len, local_stats);
            *lock_recover(&slots[ti * nparts + pi]) = Some(out);
        };

        let mut stats = if self.workers == 1 {
            // Single worker: run the job loop inline. Same job order and
            // identical output/stats as the spawned path (slots make order
            // irrelevant anyway); skipping the per-batch thread
            // spawn/join keeps small batches out of the scheduler.
            let mut local_stats = SeedingStats::default();
            run_jobs(&mut local_stats);
            local_stats
        } else {
            std::thread::scope(|scope| {
                for _ in 0..self.workers.min((ntiles * nparts).max(1)) {
                    scope.spawn(|| {
                        let mut local_stats = SeedingStats::default();
                        run_jobs(&mut local_stats);
                        lock_recover(&merged_stats).merge(&local_stats);
                    });
                }
            });
            merged_stats
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        };
        // A cancelled batch stops here: slots may be partially filled (or
        // hold placeholder output from cancelled tiles), so assembling
        // them would produce wrong results. Discard everything instead.
        if self.is_cancelled() {
            return Err(Error::Cancelled);
        }
        // Read batch streams in once (2-bit packed + header), exactly as in
        // the serial path.
        for read in reads {
            stats.dram_bytes += read.len().div_ceil(4) as u64 + 8;
        }

        // Assemble each read's per-partition results in partition order
        // and merge across partitions, exactly like the serial path — but
        // zero-copy: every tile's slot vectors are drained straight into
        // one reused flat scratch per read instead of a per-read
        // `Vec<Vec<Smem>>` of clones.
        let t = StageTimer::start(self.profiling());
        let mut smems: Vec<Vec<Smem>> = Vec::with_capacity(reads.len());
        let mut flat: Vec<Smem> = Vec::new();
        let mut tile_outs: Vec<Vec<Vec<Smem>>> = Vec::with_capacity(nparts);
        for ti in 0..ntiles {
            tile_outs.clear();
            for pi in 0..nparts {
                let out = lock_recover(&slots[ti * nparts + pi])
                    .take()
                    .ok_or(Error::Runtime {
                        what: "job slot empty after batch",
                    })?;
                tile_outs.push(out);
            }
            let tile_reads = ((ti + 1) * tile_len).min(reads.len()) - ti * tile_len;
            for k in 0..tile_reads {
                flat.clear();
                for part_out in &mut tile_outs {
                    flat.append(&mut part_out[k]);
                }
                smems.push(merge_flat_smems(&mut flat));
            }
        }
        t.stop(&mut stats.profile, Stage::TranslateMerge);
        Ok(CasaRun {
            smems,
            stats,
            config: self.config,
        })
    }

    /// Seeds the whole batch through the golden model — the last-resort
    /// path of [`seed_reads`](Self::seed_reads).
    fn golden_batch(&self, reads: &[PackedSeq]) -> CasaRun {
        let nparts = self.engines.len();
        let mut stats = SeedingStats::default();
        let mut per_read_parts: Vec<Vec<Vec<Smem>>> = vec![Vec::new(); reads.len()];
        for pi in 0..nparts {
            for (ri, read) in reads.iter().enumerate() {
                per_read_parts[ri].push(self.golden_read(pi, read));
            }
            stats.fallback_reads += reads.len() as u64;
        }
        for read in reads {
            stats.dram_bytes += read.len().div_ceil(4) as u64 + 8;
        }
        let smems = per_read_parts
            .into_iter()
            .map(merge_partition_smems)
            .collect();
        CasaRun {
            smems,
            stats,
            config: self.config,
        }
    }

    /// Seeds the batch in both orientations (each read and its reverse
    /// complement), as the hardware does.
    pub fn seed_reads_both_strands(&self, reads: &[PackedSeq]) -> StrandedRun {
        let rc: Vec<PackedSeq> = reads.iter().map(PackedSeq::reverse_complement).collect();
        StrandedRun {
            forward: self.seed_reads(reads),
            reverse: self.seed_reads(&rc),
        }
    }
}

/// The CAM backend's tables for a fresh session: the reference-wide
/// pre-seeding table and each partition's CAM. The two are independent,
/// so with a second worker the CAMs are built alongside the table.
fn build_cam_tables(
    partitions: &[Partition],
    config: CasaConfig,
    workers: usize,
) -> (
    Result<FusedFilter, casa_filter::TooManyPartitions>,
    Vec<Bcam>,
) {
    let seqs: Vec<&PackedSeq> = partitions.iter().map(|p| &p.seq).collect();
    let cams = || {
        partitions
            .iter()
            .map(|p| Bcam::new(&p.seq, config.filter.stride))
            .collect::<Vec<_>>()
    };
    if workers < 2 {
        return (FusedFilter::build(&seqs, config.filter), cams());
    }
    std::thread::scope(|scope| {
        let cams = scope.spawn(cams);
        let filter = FusedFilter::build(&seqs, config.filter);
        let cams = cams
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (filter, cams)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_genome::synth::{generate_reference, ReferenceProfile};
    use casa_genome::{ReadSimConfig, ReadSimulator};

    fn reads_for(reference: &PackedSeq, n: usize, read_len: usize, seed: u64) -> Vec<PackedSeq> {
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len,
                ..ReadSimConfig::default()
            },
            seed,
        );
        sim.simulate(reference, n)
            .into_iter()
            .map(|r| r.seq)
            .collect()
    }

    fn env_faults_off() -> bool {
        std::env::var_os(faults::FAULT_SEED_ENV).is_none()
    }

    /// True unless CI pinned `CASA_BACKEND` to a software backend: tests
    /// that assert CAM activity stats or injected CAM/filter fault sites
    /// only hold on the CAM backend.
    fn env_backend_is_cam() -> bool {
        matches!(
            BackendKind::from_env(),
            Ok(None) | Ok(Some(BackendKind::Cam))
        )
    }

    /// The overlap bounds the reads a multi-partition session can seed
    /// exactly. A 101 bp read across the cut of a session sized for 30 bp
    /// reads really does come back split, which is why callers must check.
    #[test]
    fn reads_longer_than_the_overlap_are_flagged() {
        let reference = generate_reference(&ReferenceProfile::uniform(), 30_000, 7);
        let session = SeedingSession::new(&reference, CasaConfig::paper(10_000, 30), 1).unwrap();
        assert_eq!(session.check_read_len("r1", 30), Ok(()));
        assert_eq!(
            session.check_read_len("r2", 101),
            Err(Error::ReadTooLong {
                read: "r2".to_string(),
                len: 101,
                max: 30,
            })
        );
        let straddler = reference.subseq(9_950, 101);
        let run = session.seed_reads(std::slice::from_ref(&straddler));
        assert!(
            run.smems[0].iter().all(|s| s.len() < 101),
            "expected the straddling read to come back split"
        );

        let whole = SeedingSession::new(&reference, CasaConfig::paper(30_000, 30), 1).unwrap();
        assert_eq!(whole.partition_count(), 1);
        assert_eq!(whole.check_read_len("r2", 101), Ok(()));
    }

    #[test]
    fn constructor_reports_typed_errors() {
        let reference = generate_reference(&ReferenceProfile::uniform(), 1_000, 3);
        let config = CasaConfig::small(500);
        assert_eq!(
            SeedingSession::new(&reference, config, 0).unwrap_err(),
            Error::ZeroWorkers
        );
        let empty = PackedSeq::from_ascii(b"").unwrap();
        assert_eq!(
            SeedingSession::new(&empty, config, 1).unwrap_err(),
            Error::EmptyReference
        );
        let mut bad = config;
        bad.lanes = 0;
        assert_eq!(
            SeedingSession::new(&reference, bad, 1).unwrap_err(),
            Error::Config(ConfigError::ZeroLanes)
        );
        let bad_plan = FaultPlan {
            tile_panic_rate: 7.0,
            ..FaultPlan::default()
        };
        assert_eq!(
            SeedingSession::with_fault_plan(&reference, config, 1, bad_plan).unwrap_err(),
            Error::Config(ConfigError::BadFaultPlan {
                reason: "tile_panic_rate"
            })
        );
    }

    #[test]
    fn matches_serial_path_at_various_worker_counts() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 17);
        let mut config = CasaConfig::small(700);
        config.partitioning = casa_genome::PartitionScheme::new(700, 60);
        let reads = reads_for(&reference, 30, 44, 5);
        let serial = crate::seed_reads_serial(&reference, config, &reads).expect("valid config");
        for workers in [1, 2, 8] {
            let session = SeedingSession::new(&reference, config, workers).expect("valid config");
            let run = session.seed_reads(&reads);
            assert_eq!(run.smems, serial.smems, "{workers} workers");
            if !env_backend_is_cam() {
                // The serial path is CAM-concrete: a pinned software
                // backend matches its SMEMs (asserted above) but not its
                // CAM activity counters.
            } else if env_faults_off() {
                assert_eq!(run.stats, serial.stats, "{workers} workers");
            } else {
                // The CI fault plan adds recovery bookkeeping but never
                // perturbs the engine-activity stats (its only fault
                // classes are recovered panics and stalls).
                assert_eq!(
                    run.stats.without_recovery(),
                    serial.stats,
                    "{workers} workers"
                );
            }
        }
    }

    #[test]
    fn engines_are_reused_across_batches() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 9);
        let config = CasaConfig::small(1_000);
        let session = SeedingSession::new(&reference, config, 2).expect("valid config");
        let reads = reads_for(&reference, 12, 40, 2);
        let first = session.seed_reads(&reads);
        let second = session.seed_reads(&reads);
        // Same batch, same engines: identical output and identical stat
        // deltas (no drift from reuse). Holds under the CI fault plan too:
        // fault decisions hash (partition, tile, attempt), not batch
        // history, so both batches retry identically.
        assert_eq!(first.smems, second.smems);
        assert_eq!(first.stats, second.stats);
    }

    #[test]
    fn empty_batch_yields_empty_run() {
        let reference = generate_reference(&ReferenceProfile::uniform(), 1_200, 4);
        let session =
            SeedingSession::new(&reference, CasaConfig::small(600), 3).expect("valid config");
        let run = session.seed_reads(&[]);
        assert!(run.smems.is_empty());
        assert_eq!(run.stats, SeedingStats::default());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let reference = generate_reference(&ReferenceProfile::uniform(), 900, 8);
        let session =
            SeedingSession::new(&reference, CasaConfig::small(900), 16).expect("valid config");
        let read = reference.subseq(100, 40);
        let run = session.seed_reads(std::slice::from_ref(&read));
        assert_eq!(run.smems.len(), 1);
        assert!(run.smems[0][0].hits.contains(&100));
    }

    #[test]
    fn cancel_token_stops_batches_without_golden_fallback() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 9);
        let config = CasaConfig::small(1_000);
        let reads = reads_for(&reference, 12, 40, 2);
        let baseline = SeedingSession::new(&reference, config, 2)
            .expect("valid config")
            .seed_reads(&reads);
        let token = CancelToken::new();
        let session = SeedingSession::new(&reference, config, 2)
            .expect("valid config")
            .with_cancel_token(Some(token.clone()));
        assert!(session.cancel_token().is_some());
        // An un-fired token changes nothing.
        assert_eq!(session.seed_reads(&reads).smems, baseline.smems);
        token.cancel();
        assert_eq!(
            session.try_seed_reads(&reads).unwrap_err(),
            Error::Cancelled
        );
        // The infallible wrapper returns empty results — crucially *not*
        // the golden fallback, whose per-partition index builds would
        // defeat the point of cancelling.
        let cancelled = session.seed_reads(&reads);
        assert_eq!(cancelled.smems.len(), reads.len());
        assert!(cancelled.smems.iter().all(Vec::is_empty));
        assert_eq!(cancelled.stats.fallback_reads, 0);
    }

    #[test]
    fn cancel_token_aborts_watchdogged_sessions() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 9);
        let config = CasaConfig::small(1_000);
        let reads = reads_for(&reference, 12, 40, 2);
        let token = CancelToken::new();
        token.cancel();
        let session = SeedingSession::new(&reference, config, 2)
            .expect("valid config")
            .with_tile_deadline(Some(Duration::from_secs(30)))
            .with_cancel_token(Some(token));
        // A pre-cancelled session must return promptly (never waiting out
        // the 30 s deadline) and leave no quarantine side effects.
        assert_eq!(
            session.try_seed_reads(&reads).unwrap_err(),
            Error::Cancelled
        );
        assert_eq!(session.quarantined_count(), 0);
    }

    #[test]
    fn injected_panics_recover_bit_identically() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 23);
        let mut config = CasaConfig::small(700);
        config.partitioning = casa_genome::PartitionScheme::new(700, 60);
        let reads = reads_for(&reference, 40, 44, 8);
        let clean = SeedingSession::with_fault_plan(&reference, config, 4, FaultPlan::default())
            .expect("valid config")
            .seed_reads(&reads);
        let plan = FaultPlan {
            seed: 42,
            tile_panic_rate: 0.3,
            tile_stall_rate: 0.1,
            max_retries: 8,
            ..FaultPlan::default()
        };
        let session =
            SeedingSession::with_fault_plan(&reference, config, 4, plan).expect("valid plan");
        let run = session.seed_reads(&reads);
        assert_eq!(run.smems, clean.smems);
        assert!(run.stats.tile_retries > 0, "panics should have fired");
        // Crash faults never perturb the engine-activity stats.
        assert_eq!(run.stats.without_recovery(), clean.stats);
    }

    #[test]
    fn deadline_stalls_recover_bit_identically_and_count_apart() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 23);
        let mut config = CasaConfig::small(700);
        config.partitioning = casa_genome::PartitionScheme::new(700, 60);
        let reads = reads_for(&reference, 40, 44, 8);
        let clean = SeedingSession::with_fault_plan(&reference, config, 4, FaultPlan::default())
            .expect("valid config")
            .seed_reads(&reads);
        // Stalls of 40 ms against a 4 ms watchdog deadline: every injected
        // stall must be caught by the deadline, not by chance. The
        // deadline runs on injected stall time only, so an unstalled
        // attempt on a loaded machine can never time out.
        let plan = FaultPlan {
            seed: 42,
            tile_stall_rate: 0.3,
            tile_stall_ms: 40.0,
            max_retries: 6,
            ..FaultPlan::default()
        };
        let session = SeedingSession::with_fault_plan(&reference, config, 4, plan)
            .expect("valid plan")
            .with_tile_deadline(Some(Duration::from_millis(4)))
            .with_injected_deadline_clock();
        assert_eq!(session.tile_deadline(), Some(Duration::from_millis(4)));
        let run = session.seed_reads(&reads);
        assert_eq!(run.smems, clean.smems, "recovery must be bit-identical");
        assert!(run.stats.deadline_stalls > 0, "stalls should have fired");
        assert_eq!(
            run.stats.tile_retries, 0,
            "pure stalls are not panic retries"
        );
        assert_eq!(run.stats.without_recovery(), clean.stats);
    }

    #[test]
    fn silent_faults_with_full_cross_check_recover_bit_identically() {
        if !env_backend_is_cam() {
            // Hardware fault injection targets CAM lines and filter
            // tables; the software backends have neither.
            return;
        }
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 31);
        let mut config = CasaConfig::small(600);
        config.partitioning = casa_genome::PartitionScheme::new(600, 60);
        let reads = reads_for(&reference, 25, 44, 11);
        let clean = SeedingSession::with_fault_plan(&reference, config, 3, FaultPlan::default())
            .expect("valid config")
            .seed_reads(&reads);
        let plan = FaultPlan {
            seed: 7,
            cam_stuck_rate: 0.3,
            cam_flip_rate: 2e-3,
            filter_flip_rate: 1e-3,
            cross_check_fraction: 1.0,
            max_retries: 1,
            only_partition: Some(0),
            ..FaultPlan::default()
        };
        let session =
            SeedingSession::with_fault_plan(&reference, config, 3, plan).expect("valid plan");
        assert!(
            session.fault_sites().total() > 0,
            "expected injected hardware fault sites"
        );
        let run = session.seed_reads(&reads);
        assert_eq!(
            run.smems, clean.smems,
            "golden fallback must restore output"
        );
        assert!(run.stats.crosscheck_reads > 0);
        assert!(
            run.stats.crosscheck_mismatches > 0,
            "a 30% stuck-line rate must corrupt something"
        );
        assert_eq!(run.stats.partitions_quarantined, 1);
        assert!(run.stats.fallback_reads > 0);
        assert_eq!(session.quarantined_count(), 1);
    }

    #[test]
    fn fault_sites_are_reproducible_across_sessions() {
        if !env_backend_is_cam() {
            return;
        }
        let reference = generate_reference(&ReferenceProfile::human_like(), 2_000, 13);
        let config = CasaConfig::small(500);
        let plan = FaultPlan {
            seed: 99,
            cam_stuck_rate: 0.02,
            cam_flip_rate: 1e-3,
            filter_flip_rate: 1e-3,
            ..FaultPlan::default()
        };
        let a = SeedingSession::with_fault_plan(&reference, config, 1, plan).expect("valid");
        let b = SeedingSession::with_fault_plan(&reference, config, 4, plan).expect("valid");
        assert_eq!(a.fault_sites(), b.fault_sites());
        assert!(a.fault_sites().total() > 0);
        assert_eq!(a.fault_sites().cam.len(), a.partition_count());
    }

    #[test]
    fn every_backend_session_emits_identical_smems() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 41);
        let mut config = CasaConfig::small(700);
        config.partitioning = casa_genome::PartitionScheme::new(700, 60);
        let reads = reads_for(&reference, 24, 44, 19);
        let cam = SeedingSession::with_backend(
            &reference,
            config,
            2,
            FaultPlan::default(),
            BackendKind::Cam,
        )
        .expect("valid config")
        .seed_reads(&reads);
        for kind in [BackendKind::Fm, BackendKind::Ert] {
            let session =
                SeedingSession::with_backend(&reference, config, 2, FaultPlan::default(), kind)
                    .expect("valid config");
            assert_eq!(session.backend(), kind);
            let run = session.seed_reads(&reads);
            assert_eq!(run.smems, cam.smems, "{kind} diverged from cam");
            assert_eq!(run.stats.read_passes, cam.stats.read_passes, "{kind}");
            assert_eq!(run.stats.smems_reported, cam.stats.smems_reported, "{kind}");
        }
    }

    #[test]
    fn software_backends_record_empty_fault_sites_per_partition() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 2_000, 13);
        let config = CasaConfig::small(500);
        let plan = FaultPlan {
            seed: 99,
            cam_stuck_rate: 0.02,
            cam_flip_rate: 1e-3,
            filter_flip_rate: 1e-3,
            ..FaultPlan::default()
        };
        let session = SeedingSession::with_backend(&reference, config, 2, plan, BackendKind::Fm)
            .expect("valid config");
        // Sites stay indexed per partition so diagnostics line up, but a
        // software backend has nothing to corrupt.
        assert_eq!(session.fault_sites().cam.len(), session.partition_count());
        assert_eq!(session.fault_sites().total(), 0);
    }

    #[test]
    fn scheduler_faults_recover_on_every_backend() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 29);
        let mut config = CasaConfig::small(600);
        config.partitioning = casa_genome::PartitionScheme::new(600, 60);
        let reads = reads_for(&reference, 20, 44, 3);
        let plan = FaultPlan {
            seed: 23,
            tile_panic_rate: 0.3,
            max_retries: 8,
            ..FaultPlan::default()
        };
        for kind in BackendKind::ALL {
            let clean =
                SeedingSession::with_backend(&reference, config, 3, FaultPlan::default(), kind)
                    .expect("valid config")
                    .seed_reads(&reads);
            let run = SeedingSession::with_backend(&reference, config, 3, plan, kind)
                .expect("valid plan")
                .seed_reads(&reads);
            assert_eq!(run.smems, clean.smems, "{kind} recovery diverged");
            assert!(run.stats.tile_retries > 0, "{kind}: panics should fire");
        }
    }
}
