//! Per-partition seeding engine: Algorithm 1 (the filter-enabled SMEM
//! computing algorithm) plus the exact-match pre-processing of §4.3.

use std::sync::Arc;

use casa_filter::{FilterStats, FusedFilter, PreSeedingFilter, SearchIndicator, Survivor};
use casa_genome::PackedSeq;
use casa_index::Smem;

use crate::error::ConfigError;
use crate::profile::{Stage, StageTimer};
use crate::rmem::{CamSearcher, RmemResult};
use crate::stats::SeedingStats;
use crate::CasaConfig;

/// Controller cycles to evaluate one pivot's checks in the computing
/// stage.
const PIVOT_CHECK_CYCLES: u64 = 1;

/// Pivots collected per RMEM batch when Algorithm 1 pivot gating is off.
///
/// With gating **on** the block size is pinned to 1: whether a pivot
/// searches at all depends on the previous pivots' RMEM results (`last`),
/// so issuing speculative searches ahead of that decision would change the
/// search multiset — and with it the published activity figures. With
/// gating off every surviving pivot searches unconditionally (containment
/// only affects recording), so pivots batch freely.
const PIVOT_BLOCK: usize = casa_cam::MAX_BATCH;

/// One CASA lane bound to one reference partition.
///
/// ```
/// use casa_core::{CasaConfig, PartitionEngine};
/// use casa_core::stats::SeedingStats;
/// use casa_genome::PackedSeq;
///
/// let part = PackedSeq::from_ascii(&b"GATTACA".repeat(12))?;
/// let mut engine = PartitionEngine::new(&part, CasaConfig::small(64))?;
/// let mut stats = SeedingStats::default();
/// let read = part.subseq(5, 30);
/// let smems = engine.seed_read(&read, &mut stats);
/// assert_eq!(smems.len(), 1);
/// assert_eq!(smems[0].len(), 30);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct PartitionEngine {
    config: CasaConfig,
    /// The pre-seeding table this engine's partition lives in — shared
    /// by every engine of a session, private to a standalone engine.
    filter: Arc<FusedFilter>,
    /// This engine's partition in `filter`.
    part: usize,
    searcher: CamSearcher,
    /// Rolling k-mer codes of the read being seeded when no pre-seeding
    /// stage ran for it (hot-path scratch, filled once per read).
    kmer_codes: Vec<u64>,
    /// Surviving pivots of the read being seeded when no pre-seeding
    /// stage ran for it (or every pivot, without the filter table).
    survivors: Vec<Survivor>,
    /// Reusable RMEM result buffer.
    rmem_scratch: RmemResult,
    /// Filter-surviving pivots awaiting a batched RMEM (see
    /// [`PIVOT_BLOCK`]).
    pivot_block: Vec<(usize, SearchIndicator)>,
    /// Reusable per-pivot RMEM results of the current block.
    block_results: Vec<RmemResult>,
    /// Whether stage spans take wall-clock timestamps (see
    /// [`crate::profile`]). Off by default: timings are nondeterministic
    /// and excluded from the bit-identity contract.
    profiling: bool,
}

impl PartitionEngine {
    /// Builds the filter tables and loads the partition into the computing
    /// CAM.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration invariant (see
    /// [`CasaConfig::validated`]).
    pub fn new(partition: &PackedSeq, config: CasaConfig) -> Result<PartitionEngine, ConfigError> {
        let config = config.validated()?;
        let filter = FusedFilter::build(&[partition], config.filter)?;
        let cam = casa_cam::Bcam::new(partition, config.filter.stride);
        PartitionEngine::with_fused(Arc::new(filter), 0, cam, config)
    }

    /// Assembles an engine from a prebuilt filter and CAM. Behaves exactly
    /// like [`PartitionEngine::new`] on the same partition and config,
    /// except that no tables are rebuilt (the filter's tables move into
    /// the engine).
    pub fn from_parts(
        filter: PreSeedingFilter,
        cam: casa_cam::Bcam,
        config: CasaConfig,
    ) -> Result<PartitionEngine, ConfigError> {
        let config = config.validated()?;
        PartitionEngine::with_fused(Arc::new(FusedFilter::from_filter(filter)), 0, cam, config)
    }

    /// An engine for partition `part` of a session's shared fused table —
    /// the session's construction path, fresh or from a mapped image.
    pub(crate) fn with_fused(
        filter: Arc<FusedFilter>,
        part: usize,
        cam: casa_cam::Bcam,
        config: CasaConfig,
    ) -> Result<PartitionEngine, ConfigError> {
        let config = config.validated()?;
        assert!(
            part < filter.partitions(),
            "partition {part} is not in the table"
        );
        Ok(PartitionEngine {
            config,
            filter,
            part,
            searcher: CamSearcher::from_cam(cam, config.filter.groups),
            kmer_codes: Vec::new(),
            survivors: Vec::new(),
            rmem_scratch: RmemResult::default(),
            pivot_block: Vec::new(),
            block_results: Vec::new(),
            profiling: false,
        })
    }

    /// Enables wall-clock per-stage profiling (see [`crate::profile`]).
    /// Spans accumulate into the caller's
    /// [`SeedingStats::profile`](crate::SeedingStats). Default off; when
    /// off, no timestamps are taken at all.
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profiling = enabled;
    }

    /// Whether per-stage profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CasaConfig {
        &self.config
    }

    /// Whether this engine's reference-side arrays (filter tables and CAM
    /// entry bitplanes) are all borrowed from a mapped index image rather
    /// than owned heap allocations. Fault injection detaches the affected
    /// arrays copy-on-write, after which this reports `false`.
    pub fn storage_shared(&self) -> bool {
        self.filter.tables_shared() && self.searcher.cam().planes_shared()
    }

    /// Injects seeded faults into this engine's computing CAM, returning
    /// the chosen sites. Filter faults go into the pre-seeding table
    /// before it is shared (see `FusedFilter::inject_faults`).
    pub fn inject_cam_faults(&mut self, cam: &casa_cam::CamFaultModel) -> casa_cam::CamFaultReport {
        self.searcher.inject_faults(cam)
    }

    /// Seeds one read against this partition. Returned SMEM hits are
    /// **partition-local**; the caller translates them to global
    /// coordinates and merges across partitions.
    ///
    /// Implements the paper's Algorithm 1 with all ablation switches, plus
    /// the §4.3 exact-match pre-processing.
    pub fn seed_read(&mut self, read: &PackedSeq, stats: &mut SeedingStats) -> Vec<Smem> {
        let mut out = Vec::new();
        self.seed_read_into(read, stats, &mut out);
        out
    }

    /// [`seed_read`](Self::seed_read) into a caller-owned buffer, cleared
    /// first. The read's pivots are looked up in this engine's partition
    /// alone; output and stats are identical to a session's tile path,
    /// which probes the whole reference once per pivot instead.
    pub fn seed_read_into(
        &mut self,
        read: &PackedSeq,
        stats: &mut SeedingStats,
        out: &mut Vec<Smem>,
    ) {
        self.seed_pass(read, None, stats, out);
    }

    /// Seeds one read whose pivots the session's pre-seeding stage
    /// already probed: `survivors` are this partition's surviving pivots
    /// and `looked_up` the filter statistics of looking every pivot up
    /// (see [`FusedFilter::probe_tile`]). Output and stats are identical
    /// to [`seed_read_into`](Self::seed_read_into); the looked-up stats
    /// are charged only when the read needs its pivots, i.e. when the
    /// §4.3 exact-match attempt fails.
    pub(crate) fn seed_preseeded_into(
        &mut self,
        read: &PackedSeq,
        survivors: &[Survivor],
        looked_up: &FilterStats,
        stats: &mut SeedingStats,
        out: &mut Vec<Smem>,
    ) {
        self.seed_pass(read, Some((survivors, looked_up)), stats, out);
    }

    /// One read pass: Algorithm 1 plus the per-read activity accounting.
    fn seed_pass(
        &mut self,
        read: &PackedSeq,
        preseeded: Option<(&[Survivor], &FilterStats)>,
        stats: &mut SeedingStats,
        out: &mut Vec<Smem>,
    ) {
        out.clear();
        stats.read_passes += 1;
        let cam_before = self.searcher.cam().stats();
        let mut filter = FilterStats::default();
        let mut computing_cycles = 0u64;

        if read.len() >= self.config.filter.k {
            self.seed_read_body(
                read,
                preseeded,
                &mut filter,
                stats,
                &mut computing_cycles,
                out,
            );
        }

        stats.smems_reported += out.len() as u64;

        // Activity deltas -> pipeline cycle model.
        stats.filter_ops += filter.lookups + filter.data_reads;
        stats.computing_cycles += computing_cycles + 2;
        stats.filter.merge(&filter);
        let cam_after = self.searcher.cam().stats();
        stats.cam.merge(&casa_cam::CamStats {
            searches: cam_after.searches - cam_before.searches,
            rows_enabled: cam_after.rows_enabled - cam_before.rows_enabled,
            arrays_activated: cam_after.arrays_activated - cam_before.arrays_activated,
            matches: cam_after.matches - cam_before.matches,
        });
        // DRAM: seed records out. Read streaming is charged once per
        // batch by the accelerator (reads sit in the on-chip buffer while
        // partitions rotate); partition loads amortize over the
        // production-scale read volume and are excluded (DESIGN.md §3).
        stats.dram_bytes += out.iter().map(|s| 8 + 4 * s.hits.len() as u64).sum::<u64>();
    }

    /// This pass's surviving pivots, without a pre-seeding stage: every
    /// pivot's k-mer looked up once in this partition, as the paper's
    /// pre-seeding stage does before the computing stage sees it.
    fn own_survivors(
        &mut self,
        read: &PackedSeq,
        out: &mut Vec<Survivor>,
        filter: &mut FilterStats,
        stats: &mut SeedingStats,
    ) {
        let k = self.config.filter.k;
        let t = StageTimer::start(self.profiling);
        self.kmer_codes.clear();
        self.kmer_codes.extend(read.kmers(k).map(|(_, code)| code));
        t.stop(&mut stats.profile, Stage::KmerCodes);
        let t = StageTimer::start(self.profiling);
        self.filter
            .survivors_into(self.part, &self.kmer_codes, out, filter);
        t.stop(&mut stats.profile, Stage::FilterLookup);
    }

    /// Algorithm 1 proper: the §4.3 exact-match attempt, then the pivot
    /// loop over the filter's survivors with all ablation switches.
    fn seed_read_body(
        &mut self,
        read: &PackedSeq,
        preseeded: Option<(&[Survivor], &FilterStats)>,
        filter: &mut FilterStats,
        stats: &mut SeedingStats,
        computing_cycles: &mut u64,
        out: &mut Vec<Smem>,
    ) {
        let k = self.config.filter.k;

        if self.config.exact_match_preprocessing
            && self.try_exact_match_into(read, filter, stats, computing_cycles, out)
        {
            stats.exact_match_reads += 1;
            return;
        }

        let pivot_count = read.len() - k + 1;
        // The scratch is taken out of `self` so the survivors can be
        // borrowed alongside the engine, then put back to keep the
        // allocation pooled.
        let mut own = std::mem::take(&mut self.survivors);
        let live: &[Survivor] = match preseeded {
            Some((survivors, looked_up)) if self.config.use_filter_table => {
                filter.merge(looked_up);
                survivors
            }
            _ => {
                if self.config.use_filter_table {
                    self.own_survivors(read, &mut own, filter, stats);
                } else {
                    let full = self.searcher.full_indicator();
                    own.clear();
                    own.extend((0..pivot_count).map(|p| Survivor::new(p, full)));
                }
                &own
            }
        };
        // Pivots that are not survivors died in the pre-seeding stage; the
        // computing controller never sees them.
        stats.pivots_total += pivot_count as u64;
        stats.pivots_filtered_table += (pivot_count - live.len()) as u64;

        // (start, end) of the last non-contained RMEM.
        let mut last: Option<(usize, usize)> = None;
        // Cached CRkM indicator for the current `last` value.
        let mut crkm: Option<(usize, SearchIndicator)> = None;

        // Pivot gating reads `last`, which a batched pivot's RMEM may
        // still change — so batching across pivots is only legal when
        // gating is off (see PIVOT_BLOCK).
        let block_cap = if self.config.use_pivot_analysis {
            1
        } else {
            PIVOT_BLOCK
        };
        self.pivot_block.clear();

        // Loop bookkeeping that is not a filter lookup, CAM search, or
        // containment record is the pivot-analysis stage; it is derived by
        // subtracting the inner spans from the loop wall so the stage
        // spans stay disjoint (sum of stages ≤ wall, never double
        // counted).
        let inner_before = stats.profile.total_nanos();
        let loop_timer = StageTimer::start(self.profiling);

        for survivor in live {
            let (pivot, si) = (survivor.pivot(), survivor.indicator());
            *computing_cycles += PIVOT_CHECK_CYCLES;

            if let Some((_start, end)) = last {
                // Pivots whose RMEM could only be contained in `last`
                // unless it crosses the closest right k-mer. In naive
                // mode `last` may be shorter than k; the analyses then
                // have no CRkM to reason about.
                let crkm_start = (end + 1).saturating_sub(k); // covers read[end]
                if self.config.use_pivot_analysis && end + 1 >= k && pivot <= crkm_start {
                    if end >= read.len() {
                        // `last` reaches the read end: nothing to the
                        // right can escape containment.
                        stats.pivots_filtered_crkm += 1;
                        continue;
                    }
                    let crkm_si = match crkm {
                        Some((s, si)) if s == crkm_start => si,
                        _ => {
                            // Deliberately a fresh lookup, not a reuse of
                            // the pivot's survivor: the CRkM check is its
                            // own filter access in the published counts.
                            let t = StageTimer::start(self.profiling);
                            let code = read
                                .kmer_code(crkm_start, k)
                                .expect("the CRkM starts at a pivot");
                            let si = self.filter.lookup_code(self.part, code, filter);
                            t.stop(&mut stats.profile, Stage::FilterLookup);
                            crkm = Some((crkm_start, si));
                            si
                        }
                    };
                    if crkm_si.is_empty() {
                        // Analysis 1: `last` is non-extendable.
                        stats.pivots_filtered_crkm += 1;
                        continue;
                    }
                    // Analysis 2: shifted-AND alignment estimate.
                    if !si.may_align_with(crkm_si, crkm_start - pivot, self.config.filter.stride) {
                        stats.pivots_filtered_align += 1;
                        continue;
                    }
                }
            }

            stats.rmem_searches += 1;
            self.pivot_block.push((pivot, si));
            if self.pivot_block.len() == block_cap {
                self.flush_pivot_block(read, out, &mut last, stats, computing_cycles);
            }
        }
        self.flush_pivot_block(read, out, &mut last, stats, computing_cycles);
        self.survivors = own;

        if loop_timer.enabled() {
            let inner = stats.profile.total_nanos() - inner_before;
            let wall = loop_timer.elapsed_nanos();
            stats
                .profile
                .add(Stage::PivotAnalysis, wall.saturating_sub(inner));
        }
    }

    /// Runs the collected pivots' RMEMs as one CAM batch, then records the
    /// results in pivot order: containment against `last`, `last` updates,
    /// and SMEM emission happen here exactly as the per-pivot code did.
    fn flush_pivot_block(
        &mut self,
        read: &PackedSeq,
        smems: &mut Vec<Smem>,
        last: &mut Option<(usize, usize)>,
        stats: &mut SeedingStats,
        computing_cycles: &mut u64,
    ) {
        let n = self.pivot_block.len();
        if n == 0 {
            return;
        }
        if self.block_results.len() < n {
            self.block_results.resize_with(n, RmemResult::default);
        }
        let t = StageTimer::start(self.profiling);
        self.searcher
            .rmem_batch_into(read, &self.pivot_block, &mut self.block_results[..n]);
        t.stop(&mut stats.profile, Stage::CamSearch);
        let t = StageTimer::start(self.profiling);
        for i in 0..n {
            let (pivot, _) = self.pivot_block[i];
            let rmem = &mut self.block_results[i];
            *computing_cycles += rmem.searches;
            if rmem.len == 0 {
                continue;
            }
            let end = pivot + rmem.len;
            if let Some((start, last_end)) = *last {
                debug_assert!(pivot > start);
                if end <= last_end {
                    stats.rmems_contained += 1;
                    continue;
                }
            }
            *last = Some((pivot, end));
            if rmem.len >= self.config.min_smem_len {
                smems.push(Smem {
                    read_start: pivot,
                    read_end: end,
                    hits: std::mem::take(&mut rmem.positions),
                });
            }
        }
        t.stop(&mut stats.profile, Stage::ContainMerge);
        self.pivot_block.clear();
    }

    /// §4.3: detect a read that matches the partition exactly. Aligns
    /// several non-overlapping m-mers via their indicators, and only if
    /// they are mutually consistent attempts the whole-read CAM match.
    /// Returns `true` (with the single whole-read SMEM pushed into `out`)
    /// when the read is settled here.
    fn try_exact_match_into(
        &mut self,
        read: &PackedSeq,
        filter: &mut FilterStats,
        stats: &mut SeedingStats,
        cycles: &mut u64,
        out: &mut Vec<Smem>,
    ) -> bool {
        let m = self.config.filter.m;
        if read.len() < self.config.min_smem_len {
            return false;
        }
        // Sample up to four spread, non-overlapping m-mers.
        let last = read.len() - m;
        let offsets = [0usize, last / 3, 2 * last / 3, last];
        let mut first: Option<SearchIndicator> = None;
        let mut prev = usize::MAX;
        let mut consistent = true;
        let t = StageTimer::start(self.profiling);
        for &off in &offsets {
            if off == prev {
                continue; // offsets are non-decreasing; skip duplicates
            }
            prev = off;
            *cycles += 1;
            let code = read
                .kmer_code(off, m)
                .expect("the m-mer lies inside the read");
            let si = self.filter.lookup_mmer_code(self.part, code, filter);
            if si.is_empty() {
                consistent = false; // read cannot match this partition exactly
                break;
            }
            match first {
                None => first = Some(si),
                Some(f) => {
                    if !f.may_align_with(si, off, self.config.filter.stride) {
                        consistent = false; // m-mers misaligned: abort
                        break;
                    }
                }
            }
        }
        t.stop(&mut stats.profile, Stage::FilterLookup);
        if !consistent {
            return false;
        }
        // Whole-read match attempt from pivot 0 with the first m-mer's
        // indicator (superset of the true occurrence offsets).
        let si = first.expect("offsets is non-empty");
        let t = StageTimer::start(self.profiling);
        self.searcher
            .rmem_into(read, 0, &si, &mut self.rmem_scratch);
        t.stop(&mut stats.profile, Stage::CamSearch);
        *cycles += self.rmem_scratch.searches;
        if self.rmem_scratch.len == read.len() {
            out.push(Smem {
                read_start: 0,
                read_end: read.len(),
                hits: std::mem::take(&mut self.rmem_scratch.positions),
            });
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_genome::synth::{generate_reference, ReferenceProfile};
    use casa_genome::{ReadSimConfig, ReadSimulator};
    use casa_index::smem::smems_unidirectional;
    use casa_index::SuffixArray;

    fn engine_for(part: &PackedSeq) -> PartitionEngine {
        PartitionEngine::new(part, CasaConfig::small(part.len())).expect("valid config")
    }

    /// The headline correctness property: CASA's output equals the golden
    /// uni-directional SMEM set (paper: "CASA produces identical SMEMs to
    /// GenAx").
    #[test]
    fn casa_equals_golden_on_simulated_reads() {
        let part = generate_reference(&ReferenceProfile::human_like(), 6_000, 99);
        let sa = SuffixArray::build(&part);
        let mut engine = engine_for(&part);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 48,
                ..ReadSimConfig::default()
            },
            5,
        );
        let mut stats = SeedingStats::default();
        for read in sim.simulate(&part, 60) {
            let golden = smems_unidirectional(&sa, &read.seq, engine.config().min_smem_len);
            let casa = engine.seed_read(&read.seq, &mut stats);
            assert_eq!(casa, golden, "read {}", read.name);
        }
        assert!(stats.smems_reported > 0);
    }

    #[test]
    fn ablations_do_not_change_results() {
        let part = generate_reference(&ReferenceProfile::human_like(), 3_000, 7);
        let sa = SuffixArray::build(&part);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 40,
                ..ReadSimConfig::default()
            },
            6,
        );
        let reads = sim.simulate(&part, 25);
        let variants = [
            (true, true, true),
            (false, true, true),
            (true, false, true),
            (true, true, false),
            (false, false, false),
        ];
        let mut outputs: Vec<Vec<Vec<Smem>>> = Vec::new();
        for (exact, table, analysis) in variants {
            let mut cfg = CasaConfig::small(part.len());
            cfg.exact_match_preprocessing = exact;
            cfg.use_filter_table = table;
            cfg.use_pivot_analysis = analysis;
            let mut engine = PartitionEngine::new(&part, cfg).expect("valid config");
            let mut stats = SeedingStats::default();
            let out: Vec<Vec<Smem>> = reads
                .iter()
                .map(|r| engine.seed_read(&r.seq, &mut stats))
                .collect();
            outputs.push(out);
        }
        for (i, out) in outputs.iter().enumerate().skip(1) {
            assert_eq!(out, &outputs[0], "variant {i} diverged");
        }
        // And all equal golden.
        for (r, read) in reads.iter().enumerate() {
            let golden = smems_unidirectional(&sa, &read.seq, 6);
            assert_eq!(outputs[0][r], golden, "read {r}");
        }
    }

    #[test]
    fn filtering_reduces_rmem_searches() {
        let part = generate_reference(&ReferenceProfile::human_like(), 4_000, 11);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 48,
                ..ReadSimConfig::default()
            },
            9,
        );
        let reads = sim.simulate(&part, 30);
        let run = |table: bool, analysis: bool| {
            let mut cfg = CasaConfig::small(part.len());
            cfg.use_filter_table = table;
            cfg.use_pivot_analysis = analysis;
            cfg.exact_match_preprocessing = false;
            let mut engine = PartitionEngine::new(&part, cfg).expect("valid config");
            let mut stats = SeedingStats::default();
            for r in &reads {
                engine.seed_read(&r.seq, &mut stats);
            }
            stats.rmem_searches
        };
        let naive = run(false, false);
        let table = run(true, false);
        let both = run(true, true);
        assert!(table < naive, "table {table} !< naive {naive}");
        assert!(both <= table, "analysis {both} !<= table {table}");
    }

    #[test]
    fn exact_read_takes_fast_path() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_000, 3);
        let mut engine = engine_for(&part);
        let read = part.subseq(100, 60);
        let mut stats = SeedingStats::default();
        let smems = engine.seed_read(&read, &mut stats);
        assert_eq!(stats.exact_match_reads, 1);
        assert_eq!(smems.len(), 1);
        assert_eq!(smems[0].len(), 60);
        assert!(smems[0].hits.contains(&100));
    }

    #[test]
    fn short_read_yields_nothing() {
        let part = generate_reference(&ReferenceProfile::uniform(), 500, 1);
        let mut engine = engine_for(&part);
        let mut stats = SeedingStats::default();
        let read = part.subseq(0, 4); // shorter than k = 6
        assert!(engine.seed_read(&read, &mut stats).is_empty());
    }

    #[test]
    fn stats_accumulate_per_read() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_000, 13);
        let mut engine = engine_for(&part);
        let mut stats = SeedingStats::default();
        let read = part.subseq(50, 40);
        engine.seed_read(&read, &mut stats);
        assert_eq!(stats.read_passes, 1);
        assert!(stats.dram_bytes > 0);
        assert!(stats.filter_ops > 0);
        assert!(stats.computing_cycles > 0);
    }
}
