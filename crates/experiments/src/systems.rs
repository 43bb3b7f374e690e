//! Runs every modelled system once over a scenario and bundles the
//! results for the figure runners (Figs. 12, 13, 14, 16 and the summary
//! all reuse these runs).

use casa_baselines::{
    BwaMem2Model, BwaRun, ErtAccelerator, ErtConfig, ErtRun, GenaxAccelerator, GenaxConfig,
    GenaxRun, I7_6800K, XEON_E5_2699,
};
use casa_core::{CasaRun, SeedingSession};
use casa_energy::DramSystem;
use casa_index::Smem;

use crate::scenario::{session_workers, Scale, Scenario, READ_LEN};

/// Partition passes CASA makes over GRCh38 (paper §4.1: 768 parts).
pub const CASA_FULL_GENOME_PASSES: f64 = 768.0;
/// Partition passes GenAx makes over GRCh38 (paper §2.2: 512 times).
pub const GENAX_FULL_GENOME_PASSES: f64 = 512.0;
/// ASIC-ERT's DRAM fetches per read on the full GRCh38 index, derived
/// from the paper's 68 GB/s average bandwidth at ~2.9 Mreads/s seeding
/// (÷ 64 B per fetch ≈ 366).
pub const ERT_FULL_GENOME_FETCHES_PER_READ: f64 = 366.0;

/// One system's throughput sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Throughput {
    /// System label as used in Fig. 12.
    pub system: &'static str,
    /// Seeding throughput, reads per second.
    pub reads_per_s: f64,
}

/// All five systems' results over one scenario.
#[derive(Debug)]
pub struct SystemsRun {
    /// CASA's run (stats + SMEMs).
    pub casa: CasaRun,
    /// CASA partition count (passes per batch).
    pub casa_partitions: usize,
    /// ASIC-ERT cost run.
    pub ert: ErtRun,
    /// ERT configuration used.
    pub ert_config: ErtConfig,
    /// GenAx SMEMs (asserted equal to golden in tests).
    pub genax_smems: Vec<Vec<Smem>>,
    /// GenAx cost run.
    pub genax: GenaxRun,
    /// GenAx configuration used.
    pub genax_config: GenaxConfig,
    /// GenAx partition count.
    pub genax_partitions: usize,
    /// BWA-MEM2 software run (SMEMs are the golden reference).
    pub bwa: BwaRun,
    /// Number of reads in the batch.
    pub reads: u64,
}

/// GenAx seed-table k for a scale (12 as published; 10 at bench scale to
/// keep the 4^k table build out of the inner loop).
pub fn genax_k(scale: Scale) -> usize {
    match scale {
        Scale::Small => 10,
        _ => 12,
    }
}

impl SystemsRun {
    /// Executes CASA, ERT, GenAx and BWA-MEM2 over the scenario.
    ///
    /// # Panics
    ///
    /// Panics if CASA's or GenAx's SMEM sets disagree with BWA-MEM2's —
    /// the paper's central equivalence claim, enforced on every run.
    pub fn execute(scenario: &Scenario) -> SystemsRun {
        let reference = &scenario.reference;
        let reads = &scenario.reads;

        let ert_config = ErtConfig::default();
        let genax_config = GenaxConfig {
            k: genax_k(scenario.scale),
            ..GenaxConfig::paper(scenario.scale.partition_len(), READ_LEN)
        };

        // The four system simulations are independent; run them on
        // separate threads (they dominate experiment wall-clock time).
        // Scoped join handles carry each system's result out directly.
        let (casa_out, ert, genax_out, bwa) = std::thread::scope(|scope| {
            let casa = scope.spawn(|| {
                let session =
                    SeedingSession::new(reference, scenario.casa_config(), session_workers())
                        .expect("scenario config is valid");
                let run = session.seed_reads(reads);
                (run, session.partition_count())
            });
            let ert = scope.spawn(|| {
                let ert_acc = ErtAccelerator::new(reference, ert_config);
                ert_acc.process_reads(reads)
            });
            let genax = scope.spawn(|| {
                let genax_acc = GenaxAccelerator::new(reference, genax_config);
                let out = genax_acc.seed_reads(reads);
                (out, genax_acc.partition_count())
            });
            let bwa = scope.spawn(|| {
                let bwa_model = BwaMem2Model::new(reference, 19);
                bwa_model.seed_reads(reads)
            });
            (
                casa.join().expect("casa simulation thread panicked"),
                ert.join().expect("ert simulation thread panicked"),
                genax.join().expect("genax simulation thread panicked"),
                bwa.join().expect("bwa simulation thread panicked"),
            )
        });
        let (casa, casa_partitions) = casa_out;
        let ((genax_smems, genax), genax_partitions) = genax_out;

        // The paper's equivalence claim, enforced at run time: identical
        // SMEMs across CASA, GenAx, and BWA-MEM2.
        assert_eq!(casa.smems, bwa.smems, "CASA diverged from BWA-MEM2");
        assert_eq!(genax_smems, bwa.smems, "GenAx diverged from BWA-MEM2");

        SystemsRun {
            casa,
            casa_partitions,
            ert,
            ert_config,
            genax_smems,
            genax,
            genax_config,
            genax_partitions,
            bwa,
            reads: reads.len() as u64,
        }
    }

    /// CASA seeding seconds.
    pub fn casa_seconds(&self) -> f64 {
        self.casa.seconds(&DramSystem::casa())
    }

    /// ERT seeding seconds.
    pub fn ert_seconds(&self) -> f64 {
        self.ert.seconds(&self.ert_config, &DramSystem::ert())
    }

    /// GenAx seeding seconds.
    pub fn genax_seconds(&self) -> f64 {
        self.genax.seconds(&self.genax_config)
    }

    /// CASA seeding seconds projected to the full GRCh38 pass count
    /// (768 partitions; see `summary` for the rationale).
    pub fn casa_seconds_projected(&self) -> f64 {
        self.casa_seconds() * (CASA_FULL_GENOME_PASSES / self.casa_partitions as f64)
    }

    /// GenAx seeding seconds projected to its 512 full-genome passes.
    pub fn genax_seconds_projected(&self) -> f64 {
        self.genax_seconds() * (GENAX_FULL_GENOME_PASSES / self.genax_partitions as f64)
    }

    /// ERT seeding seconds projected to its full-genome fetch depth
    /// (366 fetches/read on the 64 GB index; the 4 MB reuse cache then
    /// covers a vanishing k-mer fraction, halving the walks' effective
    /// memory-level parallelism).
    pub fn ert_seconds_projected(&self) -> f64 {
        let dram = DramSystem::ert();
        let per_read = (ERT_FULL_GENOME_FETCHES_PER_READ * 64.0 / dram.usable_bandwidth()).max(
            ERT_FULL_GENOME_FETCHES_PER_READ * self.ert_config.dram_latency_s
                / (self.ert_config.overlap_factor / 2.0)
                / f64::from(self.ert_config.machines),
        );
        per_read * self.reads as f64
    }

    /// The five Fig. 12 bars.
    pub fn throughputs(&self) -> Vec<Throughput> {
        vec![
            Throughput {
                system: "B-12T",
                reads_per_s: self.bwa.throughput(&I7_6800K, 12),
            },
            Throughput {
                system: "B-32T",
                reads_per_s: self.bwa.throughput(&XEON_E5_2699, 32),
            },
            Throughput {
                system: "CASA",
                reads_per_s: self
                    .casa
                    .throughput_reads_per_s(self.casa_partitions, &DramSystem::casa()),
            },
            Throughput {
                system: "ERT",
                reads_per_s: self.ert.throughput(&self.ert_config, &DramSystem::ert()),
            },
            Throughput {
                system: "GenAx",
                reads_per_s: self
                    .genax
                    .throughput(&self.genax_config, self.genax_partitions),
            },
        ]
    }

    /// Throughput of `system` (must be one of the Fig. 12 labels).
    ///
    /// # Panics
    ///
    /// Panics on an unknown label.
    pub fn throughput_of(&self, system: &str) -> f64 {
        self.throughputs()
            .into_iter()
            .find(|t| t.system == system)
            .unwrap_or_else(|| panic!("unknown system {system}"))
            .reads_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Genome;

    #[test]
    fn systems_run_small_scale() {
        let scenario = Scenario::build(Genome::HumanLike, Scale::Small);
        let run = SystemsRun::execute(&scenario);
        assert_eq!(run.reads, Scale::Small.read_count() as u64);
        let tputs = run.throughputs();
        assert_eq!(tputs.len(), 5);
        for t in &tputs {
            assert!(
                t.reads_per_s > 0.0,
                "{} throughput must be positive",
                t.system
            );
        }
        // Shape: CASA beats GenAx and both CPU baselines.
        assert!(run.throughput_of("CASA") > run.throughput_of("GenAx"));
        assert!(run.throughput_of("CASA") > run.throughput_of("B-12T"));
        assert!(run.throughput_of("B-32T") > run.throughput_of("B-12T"));
    }
}
