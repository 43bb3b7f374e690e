//! What one pass of the accelerator produces — per-read SMEMs merged
//! across partitions plus activity counters — the serial partition-streaming
//! oracle that defines it, and the timing model that turns activity counts
//! into seconds. The production runtime is
//! [`SeedingSession`](crate::SeedingSession).

use casa_energy::circuits::CLOCK_HZ;
use casa_energy::DramSystem;
use casa_genome::PackedSeq;
use casa_index::smem::merge_partition_smems;
use casa_index::Smem;

use crate::engine::PartitionEngine;
use crate::error::Error;
use crate::stats::SeedingStats;
use crate::CasaConfig;

/// Result of seeding a read batch.
#[derive(Clone, Debug)]
pub struct CasaRun {
    /// Per-read SMEMs in global reference coordinates, merged across
    /// partitions.
    pub smems: Vec<Vec<Smem>>,
    /// Accumulated activity.
    pub stats: SeedingStats,
    /// The configuration the run used.
    pub config: CasaConfig,
}

/// Seeds `reads` the original single-threaded way: split `reference`,
/// then for each partition build a fresh [`PartitionEngine`] and stream
/// the whole batch through it, exactly like the hardware replays read
/// batches against the 768 parts of GRCh38.
///
/// This is the executable specification of
/// [`SeedingSession::seed_reads`](crate::SeedingSession::seed_reads) —
/// the oracle its determinism tests compare against and the
/// rebuild-per-batch baseline its benches measure.
///
/// # Errors
///
/// [`Error::Config`] for an inconsistent configuration,
/// [`Error::EmptyReference`] for an empty reference.
pub fn seed_reads_serial(
    reference: &PackedSeq,
    config: CasaConfig,
    reads: &[PackedSeq],
) -> Result<CasaRun, Error> {
    let config = config.validated()?;
    let partitions = config.partitioning.split(reference);
    if partitions.is_empty() {
        return Err(Error::EmptyReference);
    }
    let mut stats = SeedingStats::default();
    let mut per_read_parts: Vec<Vec<Vec<Smem>>> = vec![Vec::new(); reads.len()];
    for part in &partitions {
        let mut engine = PartitionEngine::new(&part.seq, config)?;
        for (ri, read) in reads.iter().enumerate() {
            let mut smems = engine.seed_read(read, &mut stats);
            for smem in &mut smems {
                for hit in &mut smem.hits {
                    *hit += part.start as u32;
                }
            }
            per_read_parts[ri].push(smems);
        }
    }
    // Read batch streams in once (2-bit packed + header).
    for read in reads {
        stats.dram_bytes += read.len().div_ceil(4) as u64 + 8;
    }
    let smems = per_read_parts
        .into_iter()
        .map(merge_partition_smems)
        .collect();
    Ok(CasaRun {
        smems,
        stats,
        config,
    })
}

/// Both-orientation seeding results (paper §4.1: reads are sent to the
/// pre-seeding filter "together with the reverse strands").
#[derive(Clone, Debug)]
pub struct StrandedRun {
    /// Results of seeding the reads as given.
    pub forward: CasaRun,
    /// Results of seeding the reverse complements.
    pub reverse: CasaRun,
}

impl StrandedRun {
    /// For each read, the orientation with the longest SMEM:
    /// `(reverse?, smems)` — the natural input to per-strand alignment.
    pub fn best_per_read(&self) -> Vec<(bool, &[Smem])> {
        self.forward
            .smems
            .iter()
            .zip(&self.reverse.smems)
            .map(|(f, r)| {
                let fl = f.iter().map(Smem::len).max().unwrap_or(0);
                let rl = r.iter().map(Smem::len).max().unwrap_or(0);
                if rl > fl {
                    (true, r.as_slice())
                } else {
                    (false, f.as_slice())
                }
            })
            .collect()
    }

    /// Combined stats over both orientations.
    pub fn stats(&self) -> SeedingStats {
        let mut s = self.forward.stats;
        s.merge(&self.reverse.stats);
        s
    }
}

impl CasaRun {
    /// Total reads represented by the run (read passes divided by
    /// partition passes).
    pub fn reads(&self, partition_count: usize) -> u64 {
        if partition_count == 0 {
            0
        } else {
            self.stats.read_passes / partition_count as u64
        }
    }

    /// Modelled wall-clock seconds of the run.
    ///
    /// The pipeline overlaps read fetch, pre-seeding and SMEM computing
    /// (paper Fig. 9); throughput is set by the slowest stage:
    ///
    /// * pre-seeding: multi-banked filter lookups;
    /// * computing: CAM searches + pivot checks, spread over
    ///   `config.lanes` computing CAMs;
    /// * DRAM: streaming the read batch once per partition at the usable
    ///   bandwidth.
    pub fn seconds(&self, dram: &DramSystem) -> f64 {
        let pre = self.stats.filter_ops as f64 / self.config.filter_banks as f64 / CLOCK_HZ;
        let compute = self.stats.computing_cycles as f64 / self.config.lanes as f64 / CLOCK_HZ;
        let dram_s = dram.transfer_seconds(self.stats.dram_bytes);
        pre.max(compute).max(dram_s)
    }

    /// Seeding throughput in reads per second.
    pub fn throughput_reads_per_s(&self, partition_count: usize, dram: &DramSystem) -> f64 {
        let secs = self.seconds(dram);
        if secs == 0.0 {
            return 0.0;
        }
        self.reads(partition_count) as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedingSession;
    use casa_genome::synth::{generate_reference, ReferenceProfile};
    use casa_genome::{ReadSimConfig, ReadSimulator};
    use casa_index::smem::smems_unidirectional;
    use casa_index::SuffixArray;

    /// Cross-partition merging must reproduce the whole-genome golden SMEM
    /// set, including matches straddling partition cuts.
    #[test]
    fn multi_partition_equals_whole_genome_golden() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 5_000, 42);
        let mut config = CasaConfig::small(800);
        config.partitioning = casa_genome::PartitionScheme::new(800, 60);
        let casa = SeedingSession::new(&reference, config, 2).expect("valid config");
        assert!(casa.partition_count() > 4);
        let sa = SuffixArray::build(&reference);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 44,
                ..ReadSimConfig::default()
            },
            12,
        );
        let reads: Vec<PackedSeq> = sim
            .simulate(&reference, 40)
            .into_iter()
            .map(|r| r.seq)
            .collect();
        let run = casa.seed_reads(&reads);
        for (i, read) in reads.iter().enumerate() {
            let golden = smems_unidirectional(&sa, read, config.min_smem_len);
            assert_eq!(run.smems[i], golden, "read {i}");
        }
    }

    #[test]
    fn read_straddling_partition_boundary_is_found() {
        let reference = generate_reference(&ReferenceProfile::uniform(), 2_000, 9);
        let mut config = CasaConfig::small(500);
        config.partitioning = casa_genome::PartitionScheme::new(500, 60);
        let casa = SeedingSession::new(&reference, config, 2).expect("valid config");
        // read centered on the cut at 500
        let read = reference.subseq(480, 40);
        let run = casa.seed_reads(std::slice::from_ref(&read));
        assert_eq!(run.smems[0].len(), 1);
        assert_eq!(run.smems[0][0].len(), 40);
        assert!(run.smems[0][0].hits.contains(&480));
    }

    #[test]
    fn both_strands_finds_reverse_reads() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 21);
        let casa =
            SeedingSession::new(&reference, CasaConfig::small(1_500), 2).expect("valid config");
        let fwd_read = reference.subseq(200, 40);
        let rev_read = reference.subseq(900, 40).reverse_complement();
        let run = casa.seed_reads_both_strands(&[fwd_read, rev_read]);
        let best = run.best_per_read();
        assert!(!best[0].0, "forward read classified forward");
        assert!(best[1].0, "reverse read classified reverse");
        assert!(best[1].1[0].hits.contains(&900));
        assert_eq!(run.stats().read_passes, run.forward.stats.read_passes * 2);
    }

    #[test]
    fn timing_model_is_positive_and_monotone() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 4);
        let config = CasaConfig::small(1_000);
        let casa = SeedingSession::new(&reference, config, 2).expect("valid config");
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 40,
                ..ReadSimConfig::default()
            },
            3,
        );
        let reads: Vec<PackedSeq> = sim
            .simulate(&reference, 20)
            .into_iter()
            .map(|r| r.seq)
            .collect();
        let small = casa.seed_reads(&reads[..5]);
        let big = casa.seed_reads(&reads);
        let dram = DramSystem::casa();
        assert!(small.seconds(&dram) > 0.0);
        assert!(big.seconds(&dram) > small.seconds(&dram));
        assert_eq!(big.reads(casa.partition_count()), 20);
        assert!(big.throughput_reads_per_s(casa.partition_count(), &dram) > 0.0);
    }
}
