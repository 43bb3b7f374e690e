//! Seeded input generation. Every input a run uses is derived from the
//! workload seed; the programs under test only ever see the files (FASTA,
//! FASTQ, index image) and request bodies written here.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use casa::genome::fasta::{write_fasta, FastaRecord};
use casa::genome::fastq::{write_fastq, FastqRecord};
use casa::genome::synth::{generate_reference, ReferenceProfile};
use casa::genome::{PackedSeq, ReadSimConfig, ReadSimulator};

use serde_json::{json, Value};

use crate::util::{digest, file_digest, mix};

/// The three workloads (names are cited by later changes; keep them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Resequencing: on-target reads, whole-file `casa-seed`.
    Reseq,
    /// Contamination screen: ~90 % foreign reads, streaming `casa-seed`.
    Screen,
    /// `casa-serve` under open-loop load from a mapped index image.
    Serve,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "reseq" => Some(Workload::Reseq),
            "screen" => Some(Workload::Screen),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reseq => "reseq",
            Workload::Screen => "screen",
            Workload::Serve => "serve",
        }
    }
}

/// Input sizes. `full` is the benchmark proper; `smoke` runs every
/// workload end to end, gate included, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Scale name, recorded in provenance.
    pub name: &'static str,
    /// Reference length in bases.
    pub ref_len: usize,
    /// Partition length (`casa-seed --partition`, image `--partition`).
    pub partition: usize,
    /// FASTQ reads for `reseq` and `screen`.
    pub reads: usize,
    /// Distinct request bodies in the `serve` pool.
    pub request_pool: usize,
    /// In-process index builds per `setup_s` (`reseq`, `screen`).
    pub setup_reps: usize,
    /// Server cold starts per `setup_s` (`serve`).
    pub cold_starts: usize,
    /// Reads whose SMEMs are checked against the FM-index golden model.
    pub golden_sample: usize,
    /// Fewest requests in each fixed-rate serve phase.
    pub min_phase_requests: usize,
    /// Reads replayed through the filter and engine layers (traced run).
    pub replay_reads: usize,
    /// Of those, reads whose filter-passing pivots replay through the CAM.
    pub cam_replay_reads: usize,
    /// Reads for the session-scaling and streaming layers (traced run).
    pub subset_reads: usize,
    /// Distinct request bodies timed in process and sent by the probe.
    pub probe_pool: usize,
    /// Requests the traced run's server probe sends at the `lo` rate.
    pub probe_requests: usize,
}

impl Scale {
    /// The benchmark scale: an ~8 Mbp reference (8 partitions, an index
    /// several times the size of a 32 MiB L3) and 100k reads.
    pub const FULL: Scale = Scale {
        name: "full",
        ref_len: 8_000_000,
        partition: 1_000_000,
        reads: 100_000,
        request_pool: 256,
        setup_reps: 5,
        cold_starts: 7,
        golden_sample: 200,
        min_phase_requests: 1000,
        replay_reads: 20_000,
        cam_replay_reads: 2_000,
        subset_reads: 25_000,
        probe_pool: 64,
        probe_requests: 300,
    };

    /// The smoke scale used by the benchmark's own test.
    pub const SMOKE: Scale = Scale {
        name: "smoke",
        ref_len: 200_000,
        partition: 50_000,
        reads: 2_000,
        request_pool: 24,
        setup_reps: 2,
        cold_starts: 2,
        golden_sample: 50,
        min_phase_requests: 40,
        replay_reads: 1_000,
        cam_replay_reads: 300,
        subset_reads: 1_000,
        probe_pool: 12,
        probe_requests: 30,
    };

    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::FULL),
            "smoke" => Some(Scale::SMOKE),
            _ => None,
        }
    }
}

/// Read length of every simulated read.
pub const READ_LEN: usize = 101;
/// Fraction of `screen` reads drawn from the reference (the rest come
/// from a foreign genome with the same profile).
pub const SCREEN_ON_TARGET: f64 = 0.10;
/// Request body sizes (reads per `POST /seed`).
pub const REQUEST_READS: (usize, usize) = (16, 128);
/// Tenants and their traffic weights (percent).
pub const TENANTS: [(&str, u64); 3] = [("t60", 60), ("t30", 30), ("t10", 10)];

/// One simulated read and where it came from.
#[derive(Clone, Debug)]
pub struct Read {
    /// The read as sequenced.
    pub seq: PackedSeq,
    /// Reference position it was drawn from (`None` for foreign reads).
    pub origin: Option<usize>,
    /// Whether it was sequenced from the reverse strand.
    pub reverse: bool,
}

impl Read {
    /// The read in its origin's orientation (reverse-strand reads are
    /// reverse-complemented back), so replays that seed one strand see
    /// on-target reads match their origin partition.
    pub fn oriented(&self) -> PackedSeq {
        if self.reverse {
            self.seq.reverse_complement()
        } else {
            self.seq.clone()
        }
    }
}

/// One `POST /seed` body of the serve pool.
#[derive(Clone, Debug)]
pub struct Request {
    /// Indices into [`Inputs::reads`].
    pub reads: std::ops::Range<usize>,
    /// The body bytes: one ACGT read per line.
    pub body: Vec<u8>,
}

/// Everything one run needs, generated from the seed.
pub struct Inputs {
    /// The workload these inputs are for.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The sizes.
    pub scale: Scale,
    /// The reference.
    pub reference: PackedSeq,
    /// The reads (`reseq`/`screen`: the FASTQ; `serve`: the request pool).
    pub reads: Vec<Read>,
    /// The serve request pool (empty for the CLI workloads).
    pub requests: Vec<Request>,
    /// Where the files live.
    pub dir: PathBuf,
    /// FASTA reference path.
    pub fasta: PathBuf,
    /// FASTQ reads path (for `serve`, the pool's reads, used by the
    /// traced run).
    pub fastq: PathBuf,
}

/// A uniformly random draw in `[0, 1)` from a SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        casa::genome::mix::splitmix64(self.0)
    }

    /// Next draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Next draw in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// `n` seeded request sizes in [`REQUEST_READS`].
pub fn request_sizes(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| rng.range(REQUEST_READS.0, REQUEST_READS.1))
        .collect()
}

/// Request bodies over consecutive runs of `reads` (wrapping around), one
/// per entry of `sizes`.
pub fn request_pool(reads: &[Read], sizes: &[usize]) -> Vec<Request> {
    let mut start = 0;
    sizes
        .iter()
        .map(|&n| {
            let n = n.min(reads.len());
            if start + n > reads.len() {
                start = 0;
            }
            let mut body = Vec::with_capacity(n * (READ_LEN + 1));
            for r in &reads[start..start + n] {
                body.extend_from_slice(r.seq.to_string().as_bytes());
                body.push(b'\n');
            }
            let req = Request {
                reads: start..start + n,
                body,
            };
            start += n;
            req
        })
        .collect()
}

impl Inputs {
    /// The serve request pool, or for the CLI workloads a pool of the
    /// same shape cut from their own reads (used by the traced run).
    pub fn pool(&self) -> Vec<Request> {
        if self.requests.is_empty() {
            request_pool(
                &self.reads,
                &request_sizes(mix(self.seed, 7), self.scale.request_pool),
            )
        } else {
            self.requests.clone()
        }
    }

    /// Generates the workload's inputs under `dir` (created if missing).
    pub fn generate(
        workload: Workload,
        seed: u64,
        scale: Scale,
        dir: &Path,
    ) -> std::io::Result<Inputs> {
        std::fs::create_dir_all(dir)?;
        let profile = ReferenceProfile::human_like();
        let reference = generate_reference(&profile, scale.ref_len, mix(seed, 1));
        let sim = |s: u64| ReadSimulator::new(ReadSimConfig::default(), s);
        let on_target = |reads: Vec<casa::genome::ShortRead>| {
            reads
                .into_iter()
                .map(|r| Read {
                    origin: Some(r.origin),
                    reverse: r.reverse,
                    seq: r.seq,
                })
                .collect::<Vec<_>>()
        };
        let mut requests = Vec::new();
        let reads = match workload {
            Workload::Reseq => on_target(sim(mix(seed, 2)).simulate(&reference, scale.reads)),
            Workload::Screen => {
                let n_on = (scale.reads as f64 * SCREEN_ON_TARGET).round() as usize;
                let foreign = generate_reference(&profile, scale.ref_len, mix(seed, 3));
                let mut reads = on_target(sim(mix(seed, 4)).simulate(&reference, n_on));
                reads.extend(
                    sim(mix(seed, 5))
                        .simulate(&foreign, scale.reads - n_on)
                        .into_iter()
                        .map(|r| Read {
                            seq: r.seq,
                            origin: None,
                            reverse: r.reverse,
                        }),
                );
                // Fisher-Yates: on-target reads land anywhere in the file.
                let mut rng = Rng::new(mix(seed, 6));
                for i in (1..reads.len()).rev() {
                    let j = rng.range(0, i);
                    reads.swap(i, j);
                }
                reads
            }
            Workload::Serve => {
                let sizes = request_sizes(mix(seed, 7), scale.request_pool);
                let reads =
                    on_target(sim(mix(seed, 8)).simulate(&reference, sizes.iter().sum::<usize>()));
                requests = request_pool(&reads, &sizes);
                reads
            }
        };

        let fasta = dir.join("ref.fa");
        let fastq = dir.join("reads.fq");
        let mut w = BufWriter::new(File::create(&fasta)?);
        write_fasta(
            &mut w,
            &[FastaRecord {
                name: "chr1 synthetic human-like".into(),
                seq: reference.clone(),
            }],
        )?;
        w.flush()?;
        let mut w = BufWriter::new(File::create(&fastq)?);
        let records: Vec<FastqRecord> = reads
            .iter()
            .enumerate()
            .map(|(i, r)| FastqRecord {
                name: format!("r{i}"),
                qual: vec![b'I'; r.seq.len()],
                seq: r.seq.clone(),
            })
            .collect();
        write_fastq(&mut w, &records)?;
        w.flush()?;
        Ok(Inputs {
            workload,
            seed,
            scale,
            reference,
            reads,
            requests,
            dir: dir.to_path_buf(),
            fasta,
            fastq,
        })
    }

    /// Input digests for provenance: a number measured on other inputs
    /// must never be mistaken for a code change.
    pub fn digests(&self) -> std::io::Result<Value> {
        let mut all = Vec::new();
        for r in &self.requests {
            all.extend_from_slice(&r.body);
            all.push(0);
        }
        Ok(json!({
            "fasta": format!("{:016x}", file_digest(&self.fasta)?),
            "fastq": format!("{:016x}", file_digest(&self.fastq)?),
            "requests": format!("{:016x}", digest(&all))
        }))
    }
}
