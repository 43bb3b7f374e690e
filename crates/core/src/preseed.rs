//! The per-tile pre-seeding stage.
//!
//! A session probes each tile's pivots **once** in the reference-wide
//! [`FusedFilter`] — one row → bucket → data chain per pivot instead of
//! one per partition — and hands every (partition, tile) job only that
//! partition's surviving pivots and per-read filter statistics (see
//! [`FusedFilter::probe_tile`]). The stage runs on the session's workers
//! as its own job, ahead of the tile's partition jobs, and each partition
//! job takes its share out so the stage's memory is released as the tile
//! completes.

use std::sync::{Mutex, PoisonError};

use casa_filter::{FusedFilter, PartSurvivors};
use casa_genome::PackedSeq;

use crate::profile::{Stage, StageProfile, StageTimer};

/// Probes every pivot of `reads` once, returning each partition's share.
/// Code extraction is booked under [`Stage::KmerCodes`] and the probe
/// under [`Stage::FilterLookup`].
pub(crate) fn probe_reads(
    filter: &FusedFilter,
    reads: &[PackedSeq],
    profile: &mut StageProfile,
    profiling: bool,
) -> Vec<PartSurvivors> {
    let k = filter.config().k;
    let t = StageTimer::start(profiling);
    let mut codes = Vec::new();
    let mut ends = Vec::with_capacity(reads.len());
    for read in reads {
        codes.extend(read.kmers(k).map(|(_, code)| code));
        ends.push(codes.len());
    }
    t.stop(profile, Stage::KmerCodes);
    let t = StageTimer::start(profiling);
    let mut parts = vec![PartSurvivors::default(); filter.partitions()];
    filter.probe_tile(&codes, &ends, &mut parts);
    t.stop(profile, Stage::FilterLookup);
    parts
}

/// One tile's stage output, one slot per partition.
pub(crate) struct TileStage {
    parts: Vec<Mutex<Option<PartSurvivors>>>,
}

impl TileStage {
    /// Runs the stage on `reads` (see [`probe_reads`]).
    pub(crate) fn run(
        filter: &FusedFilter,
        reads: &[PackedSeq],
        profile: &mut StageProfile,
        profiling: bool,
    ) -> TileStage {
        TileStage {
            parts: probe_reads(filter, reads, profile, profiling)
                .into_iter()
                .map(|p| Mutex::new(Some(p)))
                .collect(),
        }
    }

    /// Takes partition `pi`'s share out; `None` once taken.
    pub(crate) fn take(&self, pi: usize) -> Option<PartSurvivors> {
        self.parts
            .get(pi)?
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}
