//! Shared experiment scenarios: synthetic genomes + read batches standing
//! in for the paper's GRCh38 / ERR194147 and GRCm39 / DWGSIM workloads
//! (see DESIGN.md §1 for the substitution rationale).

use casa_core::CasaConfig;
use casa_genome::synth::{generate_reference, ReferenceProfile};
use casa_genome::{PackedSeq, ReadSimConfig, ReadSimulator};
use serde::{Deserialize, Serialize};

/// Workload scale, trading fidelity for runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Criterion-bench scale: seconds per experiment.
    Small,
    /// Default binary scale: tens of seconds per experiment.
    Medium,
    /// Overnight scale.
    Large,
}

impl Scale {
    /// Parses `small` / `medium` / `large` (used by the experiment
    /// binaries' single CLI argument).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// Reference length in bases.
    pub fn reference_len(&self) -> usize {
        match self {
            Scale::Small => 200_000,
            Scale::Medium => 1_500_000,
            Scale::Large => 8_000_000,
        }
    }

    /// Reads per batch.
    pub fn read_count(&self) -> usize {
        match self {
            Scale::Small => 150,
            Scale::Medium => 1_200,
            Scale::Large => 8_000,
        }
    }

    /// Reference partition length for the accelerators (a quarter of the
    /// reference, so every accelerator pays realistic multi-pass costs).
    pub fn partition_len(&self) -> usize {
        self.reference_len() / 4
    }
}

/// Which genome profile a scenario models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Genome {
    /// GRCh38 stand-in.
    HumanLike,
    /// GRCm39 stand-in.
    MouseLike,
}

impl Genome {
    /// Display name used in figure output.
    pub fn name(&self) -> &'static str {
        match self {
            Genome::HumanLike => "GRCh38-like (synthetic)",
            Genome::MouseLike => "GRCm39-like (synthetic)",
        }
    }

    /// The generator profile.
    pub fn profile(&self) -> ReferenceProfile {
        match self {
            Genome::HumanLike => ReferenceProfile::human_like(),
            Genome::MouseLike => ReferenceProfile::mouse_like(),
        }
    }
}

/// A ready-to-run workload: reference + simulated 101 bp reads.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Which genome it models.
    pub genome: Genome,
    /// The scale it was built at.
    pub scale: Scale,
    /// The synthetic reference.
    pub reference: PackedSeq,
    /// The read batch (forward orientation as the sequencer emits them).
    pub reads: Vec<PackedSeq>,
}

/// The paper's read length.
pub const READ_LEN: usize = 101;

/// Seeding-session workers for experiments and benches: one per available
/// CPU. Worker count never changes output, only wall-clock time.
pub fn session_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Scenario {
    /// Builds the standard workload for `genome` at `scale`
    /// (deterministic).
    pub fn build(genome: Genome, scale: Scale) -> Scenario {
        let reference =
            generate_reference(&genome.profile(), scale.reference_len(), seed_of(genome));
        let sim = ReadSimulator::new(ReadSimConfig::default(), seed_of(genome) ^ 0xBEEF);
        let reads = sim
            .simulate(&reference, scale.read_count())
            .into_iter()
            .map(|r| r.seq)
            .collect();
        Scenario {
            genome,
            scale,
            reference,
            reads,
        }
    }

    /// Builds an inexact-only workload (every read carries ≥ 1 edit),
    /// for the Fig. 16 comparison.
    pub fn build_inexact(genome: Genome, scale: Scale) -> Scenario {
        let reference =
            generate_reference(&genome.profile(), scale.reference_len(), seed_of(genome));
        let sim = ReadSimulator::new(ReadSimConfig::inexact_only(), seed_of(genome) ^ 0xFEED);
        let reads = sim
            .simulate_inexact(&reference, scale.read_count())
            .into_iter()
            .map(|r| r.seq)
            .collect();
        Scenario {
            genome,
            scale,
            reference,
            reads,
        }
    }

    /// The CASA configuration used for this scenario (paper geometry,
    /// partitions sized by the scale).
    pub fn casa_config(&self) -> CasaConfig {
        CasaConfig::paper(self.scale.partition_len(), READ_LEN)
    }
}

fn seed_of(genome: Genome) -> u64 {
    match genome {
        Genome::HumanLike => 0x6061,
        Genome::MouseLike => 0x4D4D,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_deterministic() {
        let a = Scenario::build(Genome::HumanLike, Scale::Small);
        let b = Scenario::build(Genome::HumanLike, Scale::Small);
        assert_eq!(a.reference, b.reference);
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.reads.len(), Scale::Small.read_count());
        assert!(a.reads.iter().all(|r| r.len() == READ_LEN));
    }

    #[test]
    fn genomes_differ() {
        let h = Scenario::build(Genome::HumanLike, Scale::Small);
        let m = Scenario::build(Genome::MouseLike, Scale::Small);
        assert_ne!(h.reference, m.reference);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("huge"), None);
    }
}
