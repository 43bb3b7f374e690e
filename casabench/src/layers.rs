//! The traced run (`--trace 1`): per-layer numbers from calls into each
//! layer's public functions, made from the benchmark's own code on the
//! workload's inputs. Nothing inside the program is instrumented; spans
//! wrap the calls, stay in memory, and are written as a Chrome trace at
//! the end.
//!
//! Every workload runs the same ladder on its own inputs, so the same
//! per-layer metric can be compared across input mixes (on `screen` most
//! pivots die in the filter; on `reseq` half the time is CAM search).

use std::fs::File;
use std::io::{BufWriter, Seek, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use casa::align::{align_read, AlignConfig};
use casa::cam::Bcam;
use casa::core::{
    build_index_image, BackendKind, CamSearcher, CasaConfig, CasaRun, FaultPlan, LoadedIndex,
    PartitionEngine, RmemResult, SeedingSession, SeedingStats, StrandedRun, StreamBatch,
    StreamConfig, StreamingSession,
};
use casa::energy::DramSystem;
use casa::filter::{PreSeedingFilter, SearchIndicator};
use casa::genome::fasta::{read_fasta_from_path, NPolicy};
use casa::genome::fastq::{FastqRecord, FastqStream};
use casa::genome::sam::{write_sam_header, SamFormatter, SamRecord, FLAG_REVERSE};
use casa::genome::{Base, PackedSeq};
use casa::index::{Smem, SuffixArray};
use serde_json::{json, Value};

use crate::inputs::{Inputs, Workload, READ_LEN};
use crate::load::{http, open_loop, poisson, prom, render_tsv, server_p50_ms, Phase, Server};
use crate::report::Outcome;
use crate::seedrun::{cli_config, Bins, THREADS};
use crate::trace::{chrome_json, coverage, self_time_by_name, Tracer};
use crate::util::{digest, file_digest, median, mix};

/// Runs `f` in a span when tracing, bare otherwise; `f` gets the span id
/// to parent nested steps.
fn step<R>(
    t: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    match t {
        Some(t) => t.span(name, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// What one in-process pipeline run produced.
struct Pipeline {
    wall_s: f64,
    root: Option<u64>,
    stats: SeedingStats,
    config: CasaConfig,
    reads: usize,
    mapped: usize,
    /// Time spent parsing FASTQ records.
    parse_ns: u64,
    sam_digest: u64,
    sam_bytes: u64,
}

/// One read's best-orientation seeds aligned into a SAM record, exactly
/// as `casa-seed` does it.
fn to_record(
    reference: &PackedSeq,
    rname: &str,
    name: &str,
    seq: &PackedSeq,
    (reverse, smems): (bool, &[Smem]),
    cfg: &AlignConfig,
) -> SamRecord {
    let oriented = if reverse {
        seq.reverse_complement()
    } else {
        seq.clone()
    };
    match align_read(reference, &oriented, smems, cfg) {
        Some(aln) => SamRecord {
            qname: name.to_string(),
            flag: if reverse { FLAG_REVERSE } else { 0 },
            rname: rname.to_string(),
            pos: aln.ref_start as u64 + 1,
            mapq: aln.mapq,
            cigar: aln.cigar,
            seq: oriented,
        },
        None => SamRecord::unmapped(name, seq.clone()),
    }
}

/// A FASTQ source that adds the time spent in each `next` to a counter
/// (the streaming reader parses on its own thread, beside the spans).
struct TimedSource<'a, I> {
    inner: I,
    ns: &'a AtomicU64,
}

impl<I: Iterator> Iterator for TimedSource<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let t0 = Instant::now();
        let item = self.inner.next();
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        item
    }
}

/// `casa-seed` rebuilt from the same public calls, in the workload's own
/// mode, one span per layer under a `pipeline` root: FASTA parse, index
/// build, then either the whole-file path (FASTQ parse, both-strand
/// seeding, alignment, SAM emit) or, for `screen`, the streaming path
/// (`StreamingSession::run` with the CLI's sink: align, SAM append,
/// `sync_data` per batch).
fn pipeline(inputs: &Inputs, t: Option<&Tracer>, sam_path: &Path) -> Result<Pipeline, String> {
    let start = Instant::now();
    let mut root = None;
    let parse_ns = AtomicU64::new(0);
    let r = step(t, "pipeline", None, |rid| -> Result<_, String> {
        root = rid;
        let record = step(t, "fasta.parse", rid, |_| {
            read_fasta_from_path(&inputs.fasta, NPolicy::Replace(Base::A))
        })
        .map_err(|e| e.to_string())?
        .into_iter()
        .next()
        .ok_or("reference FASTA has no records")?;
        let rname = record.name.split_whitespace().next().unwrap_or("ref");
        let reference = &record.seq;
        let config = cli_config(inputs, reference);
        let reads = FastqStream::from_path(&inputs.fastq, NPolicy::Replace(Base::A))
            .map_err(|e| e.to_string())?;
        let cfg = AlignConfig::default();
        let mut mapped = 0;
        if inputs.workload == Workload::Screen {
            let session = step(t, "index.build", rid, |_| {
                SeedingSession::new(reference, config, THREADS)
            })
            .map_err(|e| e.to_string())?;
            let stream = StreamingSession::new(
                session,
                StreamConfig {
                    both_strands: true,
                    ..StreamConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            let mut sam = step(t, "sam.create", rid, |_| -> std::io::Result<File> {
                let mut sam = File::create(sam_path)?;
                write_sam_header(&mut sam, (rname, reference.len()))?;
                Ok(sam)
            })
            .map_err(|e| e.to_string())?;
            let mut formatter = SamFormatter::new();
            let source = TimedSource {
                inner: reads,
                ns: &parse_ns,
            };
            let report = step(t, "stream.run", rid, |sid| {
                stream.run(source, |batch: &StreamBatch<FastqRecord>| {
                    let stranded = StrandedRun {
                        forward: batch.forward.clone(),
                        reverse: batch.reverse.clone().expect("both strands are seeded"),
                    };
                    let records = step(t, "align.reads", sid, |_| {
                        let best = stranded.best_per_read();
                        batch
                            .items
                            .iter()
                            .zip(best)
                            .map(|(r, b)| to_record(reference, rname, &r.name, &r.seq, b, &cfg))
                            .collect::<Vec<_>>()
                    });
                    mapped += records.iter().filter(|r| r.is_mapped()).count();
                    step(t, "sam.write", sid, |_| {
                        formatter.write_all(&mut sam, &records)
                    })?;
                    step(t, "sam.sync", sid, |_| sam.sync_data())?;
                    Ok(vec![sam.stream_position()?])
                })
            })
            .map_err(|e| e.to_string())?;
            step(t, "index.drop", rid, |_| drop(stream));
            return Ok((report.stats, config, report.reads as usize, mapped));
        }
        let (names, seqs) = step(t, "fastq.parse", rid, |_| -> Result<_, String> {
            let t0 = Instant::now();
            let mut names = Vec::new();
            let mut seqs = Vec::new();
            for rec in reads {
                let rec = rec.map_err(|e| e.to_string())?;
                names.push(rec.name);
                seqs.push(rec.seq);
            }
            parse_ns.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            Ok((names, seqs))
        })?;
        let session = step(t, "index.build", rid, |_| {
            SeedingSession::new(reference, config, THREADS)
        })
        .map_err(|e| e.to_string())?;
        let stranded = step(t, "session.seed_both", rid, |_| {
            session.seed_reads_both_strands(&seqs)
        });
        let records = step(t, "align.reads", rid, |_| {
            stranded
                .best_per_read()
                .into_iter()
                .zip(names.iter().zip(&seqs))
                .map(|(b, (name, seq))| to_record(reference, rname, name, seq, b, &cfg))
                .collect::<Vec<_>>()
        });
        mapped = records.iter().filter(|r| r.is_mapped()).count();
        step(t, "sam.write", rid, |_| -> std::io::Result<()> {
            let mut w = BufWriter::new(File::create(sam_path)?);
            write_sam_header(&mut w, (rname, reference.len()))?;
            SamFormatter::new().write_all(&mut w, &records)?;
            w.flush()
        })
        .map_err(|e| e.to_string())?;
        step(t, "index.drop", rid, |_| drop(session));
        Ok((stranded.stats(), config, records.len(), mapped))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (stats, config, reads, mapped) = r?;
    Ok(Pipeline {
        wall_s,
        root,
        stats,
        config,
        reads,
        mapped,
        parse_ns: parse_ns.load(Ordering::Relaxed),
        sam_digest: file_digest(sam_path).map_err(|e| e.to_string())?,
        sam_bytes: std::fs::metadata(sam_path)
            .map_err(|e| e.to_string())?
            .len(),
    })
}

/// Total seconds of every span named `name`.
fn total_s(t: &Tracer, name: &str) -> f64 {
    t.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}

/// The deterministic counts block: activity counters that a
/// performance-only change must leave identical.
fn counts(stats: &SeedingStats, config: CasaConfig, reads: usize) -> Value {
    let run = CasaRun {
        smems: Vec::new(),
        stats: *stats,
        config,
    };
    let model_s = run.seconds(&DramSystem::casa());
    let passes = stats.read_passes.max(1) as f64;
    json!({
        "read_passes": stats.read_passes,
        "pivots_total": stats.pivots_total,
        "pivots_filtered_table": stats.pivots_filtered_table,
        "rmem_searches": stats.rmem_searches,
        "cam.searches": stats.cam.searches,
        "filter.lookups": stats.filter.lookups,
        "smems_reported": stats.smems_reported,
        "computing_cycles": stats.computing_cycles,
        "dram_bytes": stats.dram_bytes,
        "model.reads_per_s": reads as f64 / model_s,
        "cam.searches_per_pass": stats.cam.searches as f64 / passes,
        "filter.lookups_per_pass": stats.filter.lookups as f64 / passes
    })
}

/// Compares the counts block with the one an earlier run of the same
/// workload, scale and seed left in `out_dir` (writing it if absent).
fn counts_repeat(out_dir: &Path, stem: &str, block: &Value) -> Result<bool, String> {
    let path = out_dir.join(format!("{stem}.counts.json"));
    match std::fs::read_to_string(&path) {
        Ok(prev) => Ok(serde_json::from_str(&prev).ok().as_ref() == Some(block)),
        Err(_) => {
            std::fs::write(&path, format!("{block}\n")).map_err(|e| e.to_string())?;
            Ok(true)
        }
    }
}

/// Per-partition replay results, summed over partitions.
#[derive(Default)]
struct Replay {
    sa_s: f64,
    filter_build_s: f64,
    cam_build_s: f64,
    lookups: u64,
    lookup_ns: f64,
    passed: u64,
    searches: u64,
    rows_enabled: u64,
    search_ns: f64,
    on: (f64, u64),
    off: (f64, u64),
    engine: SeedingStats,
}

/// Builds each partition's suffix array, filter and CAM through their
/// public constructors, then replays the workload's reads through each
/// layer on that partition: filter lookups over the reads' k-mer codes,
/// CAM RMEM searches on the filter-passing pivots, and whole engine
/// passes, timed per pass and split by whether the partition holds the
/// read's origin.
fn partition_replay(
    inputs: &Inputs,
    t: &Tracer,
    config: CasaConfig,
    sample: &[(PackedSeq, Option<usize>)],
) -> Result<Replay, String> {
    let k = config.filter.k;
    let codes: Vec<Vec<u64>> = sample
        .iter()
        .map(|(s, _)| s.kmers(k).map(|(_, c)| c).collect())
        .collect();
    let cam_reads = sample.len().min(inputs.scale.cam_replay_reads);
    let mut r = Replay::default();
    for part in config.partitioning.split(&inputs.reference) {
        t.span("index.sa_build", None, |_| {
            std::hint::black_box(SuffixArray::build(&part.seq));
        });
        let mut filter = t.span("filter.build", None, |_| {
            PreSeedingFilter::build(&part.seq, config.filter)
        });
        let cam = t.span("cam.build", None, |_| {
            Bcam::new(&part.seq, config.filter.stride)
        });

        let mut indicators: Vec<SearchIndicator> = Vec::new();
        let before = filter.stats().lookups;
        let start = Instant::now();
        let passed = t.span("filter.replay", None, |_| {
            let mut passed = 0u64;
            for c in &codes {
                filter.lookup_codes_into(c, &mut indicators);
                passed += indicators.iter().filter(|si| !si.is_empty()).count() as u64;
            }
            passed
        });
        r.lookup_ns += start.elapsed().as_nanos() as f64;
        r.lookups += filter.stats().lookups - before;
        r.passed += passed;
        let pivots: Vec<Vec<(usize, SearchIndicator)>> = codes[..cam_reads]
            .iter()
            .map(|c| {
                filter.lookup_codes_into(c, &mut indicators);
                indicators
                    .iter()
                    .enumerate()
                    .filter(|(_, si)| !si.is_empty())
                    .map(|(p, si)| (p, *si))
                    .collect()
            })
            .collect();

        let mut searcher = CamSearcher::from_cam(cam.clone(), config.filter.groups);
        let before = searcher.cam().stats();
        let mut outs: Vec<RmemResult> = Vec::new();
        let start = Instant::now();
        t.span("cam.replay", None, |_| {
            for (i, p) in pivots.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
                outs.resize_with(p.len(), RmemResult::default);
                searcher.rmem_batch_into(&sample[i].0, p, &mut outs[..p.len()]);
            }
        });
        r.search_ns += start.elapsed().as_nanos() as f64;
        let after = searcher.cam().stats();
        r.searches += after.searches - before.searches;
        r.rows_enabled += after.rows_enabled - before.rows_enabled;
        drop(searcher);

        let mut engine =
            PartitionEngine::from_parts(filter, cam, config).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        let end = part.start + part.seq.len();
        t.span("engine.replay", None, |_| {
            for (seq, origin) in sample {
                let on = origin.is_some_and(|o| o >= part.start && o + READ_LEN <= end);
                let t0 = Instant::now();
                engine.seed_read_into(seq, &mut r.engine, &mut out);
                let ns = t0.elapsed().as_nanos() as f64;
                let slot = if on { &mut r.on } else { &mut r.off };
                slot.0 += ns;
                slot.1 += 1;
            }
        });
    }
    r.sa_s = total_s(t, "index.sa_build");
    r.filter_build_s = total_s(t, "filter.build");
    r.cam_build_s = total_s(t, "cam.build");
    Ok(r)
}

/// Runs the traced ladder on `inputs` and reports the per-layer metrics.
pub fn run(
    inputs: &Inputs,
    bins: &Bins,
    args: &crate::Args,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let stem = format!(
        "{}-{}-seed{}",
        inputs.workload.name(),
        inputs.scale.name,
        inputs.seed
    );
    let trace_path = out_dir.join(format!("{stem}.trace.json"));
    let mut out = Outcome::default();
    let t = Tracer::default();
    let scale = inputs.scale;
    let dir = &inputs.dir;

    // The real CLI entry point, in process, in the workload's own mode;
    // it also warms the caches for the pipeline runs below.
    let cli_sam = dir.join("cli.sam");
    let mut argv: Vec<String> = vec![
        "--reference".into(),
        inputs.fasta.display().to_string(),
        "--reads".into(),
        inputs.fastq.display().to_string(),
        "--sam".into(),
        cli_sam.display().to_string(),
        "--partition".into(),
        scale.partition.to_string(),
        "--threads".into(),
        THREADS.to_string(),
    ];
    if inputs.workload == Workload::Screen {
        argv.push("--stream".into());
    }
    let opts = casa::cli::parse_args(argv).map_err(|e| e.to_string())?;
    t.span("cli.run", None, |_| casa::cli::run(&opts))
        .map_err(|e| e.to_string())?;

    // The in-process pipeline, untraced and traced, twice each in
    // alternation (after the CLI run above warmed the page cache and
    // allocator). The faster wall of each kind gives the tracing
    // overhead; the second traced run's spans, kept in `t`, give the
    // layer numbers and coverage.
    let plain = pipeline(inputs, None, &dir.join("plain.sam"))?;
    let first = pipeline(inputs, Some(&Tracer::default()), &dir.join("traced.sam"))?;
    let plain_s = plain
        .wall_s
        .min(pipeline(inputs, None, &dir.join("plain.sam"))?.wall_s);
    let traced = pipeline(inputs, Some(&t), &dir.join("traced.sam"))?;
    let traced_s = first.wall_s.min(traced.wall_s);
    let root = traced.root.expect("traced pipeline has a root span");
    out.check(
        "traced and untraced pipelines: same SAM and counts",
        plain.sam_digest == traced.sam_digest && plain.stats == traced.stats,
    );

    out.check(
        "in-process cli::run SAM equals the pipeline's",
        file_digest(&cli_sam).map_err(|e| e.to_string())? == traced.sam_digest,
    );

    // Index image: build, then fast (header + meta) and full opens.
    let reference = &inputs.reference;
    let config = traced.config;
    let image = dir.join("trace.casaimg");
    let built = t
        .span("image.build", None, |_| {
            build_index_image(reference, config, &image)
        })
        .map_err(|e| e.to_string())?;
    let mut open_fast = Vec::new();
    let mut open_full = Vec::new();
    for _ in 0..3 {
        let s = Instant::now();
        t.span("image.open_fast", None, |_| LoadedIndex::open_fast(&image))
            .map_err(|e| e.to_string())?;
        open_fast.push(s.elapsed().as_secs_f64() * 1e3);
        let s = Instant::now();
        t.span("image.open_full", None, |_| LoadedIndex::open(&image))
            .map_err(|e| e.to_string())?;
        open_full.push(s.elapsed().as_secs_f64() * 1e3);
    }

    // Layer replays, partition by partition, on reads in origin
    // orientation.
    let sample: Vec<(PackedSeq, Option<usize>)> = inputs
        .reads
        .iter()
        .take(scale.replay_reads)
        .map(|r| (r.oriented(), r.origin))
        .collect();
    let rep = partition_replay(inputs, &t, config, &sample)?;

    // Session scaling and the streaming runtime on a read subset.
    let subset: Vec<PackedSeq> = inputs
        .reads
        .iter()
        .take(scale.subset_reads)
        .map(|r| r.seq.clone())
        .collect();
    let w1 = SeedingSession::new(reference, config, 1).map_err(|e| e.to_string())?;
    let w2 = SeedingSession::new(reference, config, 2).map_err(|e| e.to_string())?;
    let s = Instant::now();
    let r1 = t.span("session.seed_both.w1", None, |_| {
        w1.seed_reads_both_strands(&subset)
    });
    let w1_s = s.elapsed().as_secs_f64();
    drop(w1);
    let s = Instant::now();
    let r2 = t.span("session.seed_both.w2", None, |_| {
        w2.seed_reads_both_strands(&subset)
    });
    let w2_s = s.elapsed().as_secs_f64();
    out.check(
        "1- and 2-worker sessions bit-identical",
        r1.forward.smems == r2.forward.smems
            && r1.reverse.smems == r2.reverse.smems
            && r1.stats() == r2.stats(),
    );
    drop((r1, r2));
    let stream = StreamingSession::new(
        w2.clone(),
        StreamConfig {
            both_strands: true,
            ..StreamConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let source = FastqStream::from_path(&inputs.fastq, NPolicy::Replace(Base::A))
        .map_err(|e| e.to_string())?
        .take(scale.subset_reads);
    let s = Instant::now();
    let report = t
        .span("stream.replay", None, |_| {
            stream.run(source, |_: &StreamBatch<FastqRecord>| Ok(Vec::new()))
        })
        .map_err(|e| e.to_string())?;
    let stream_s = s.elapsed().as_secs_f64();
    drop((stream, w2));

    // Requests: the session the server runs (mapped image, one worker per
    // request), then the real server on the same image at the lo rate.
    let pool = inputs.pool();
    let probe_pool = &pool[..pool.len().min(scale.probe_pool)];
    let index = LoadedIndex::open_fast(&image).map_err(|e| e.to_string())?;
    let req_session = SeedingSession::from_image(&index, 1, FaultPlan::default(), BackendKind::Cam)
        .map_err(|e| e.to_string())?;
    let mut request_ms = Vec::new();
    let mut expected = Vec::new();
    for (i, req) in probe_pool.iter().enumerate() {
        let reads: Vec<PackedSeq> = inputs.reads[req.reads.clone()]
            .iter()
            .map(|r| r.seq.clone())
            .collect();
        let s = Instant::now();
        let run = t
            .span_req("session.request", None, Some(i as u64), |_| {
                req_session.try_seed_reads(&reads)
            })
            .map_err(|e| e.to_string())?;
        request_ms.push(s.elapsed().as_secs_f64() * 1e3);
        expected.push(digest(render_tsv(&run.smems).as_bytes()));
    }
    drop((req_session, index));
    let server = t.span("serve.start", None, |_| Server::start(bins, &image))?;
    let schedule = poisson(
        mix(inputs.seed, 20),
        args.lo_rps,
        scale.probe_requests,
        probe_pool.len(),
    );
    let samples = t.span("serve.probe", None, |id| {
        open_loop(
            server.addr,
            probe_pool,
            &expected,
            &schedule,
            Some((&t, id)),
        )
    });
    let metrics = http(server.addr, "GET", "/metrics", None, b"")
        .map(|(_, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let exit = server.stop()?;
    out.check("probed casa-serve drains and exits 0", exit.success());
    let probe = Phase::of(&samples);
    out.check_many("probe responses", probe.n, probe.bad);

    // Spans out, then the metrics.
    let spans = t.spans();
    std::fs::write(&trace_path, chrome_json(&spans)).map_err(|e| e.to_string())?;
    let selfs = self_time_by_name(&spans)
        .into_iter()
        .map(|(name, secs)| (name.to_string(), json!(secs)))
        .collect();
    out.blocks
        .push(("self_time_s".into(), Value::Object(selfs)));
    out.blocks
        .push(("trace_file".into(), json!(trace_path.display().to_string())));

    let block = counts(&traced.stats, config, traced.reads);
    let repeat = counts_repeat(out_dir, &stem, &block)?;
    out.check("counts identical to an earlier run of this seed", repeat);
    println!("counts {block}");
    out.blocks.push(("counts".into(), block));

    let n = traced.reads as f64;
    let sub = subset.len() as f64;
    let m = |out: &mut Outcome, name: &str, v: f64, unit: &str| out.metric(name, v, unit);
    m(&mut out, "fasta.parse_s", total_s(&t, "fasta.parse"), "s");
    m(&mut out, "index.build_s", total_s(&t, "index.build"), "s");
    m(&mut out, "index.sa_s", rep.sa_s, "s");
    m(&mut out, "filter.build_s", rep.filter_build_s, "s");
    m(&mut out, "cam.build_s", rep.cam_build_s, "s");
    m(&mut out, "image.build_s", total_s(&t, "image.build"), "s");
    m(&mut out, "image.open_fast_ms", median(&open_fast), "ms");
    m(&mut out, "image.open_full_ms", median(&open_full), "ms");
    m(&mut out, "image.bytes", built.bytes as f64, "bytes");
    m(
        &mut out,
        "fastq.ns_per_read",
        traced.parse_ns as f64 / n,
        "ns",
    );
    m(
        &mut out,
        "filter.ns_per_lookup",
        rep.lookup_ns / rep.lookups.max(1) as f64,
        "ns",
    );
    m(
        &mut out,
        "filter.pass_frac",
        rep.passed as f64 / rep.lookups.max(1) as f64,
        "ratio",
    );
    m(
        &mut out,
        "cam.ns_per_search",
        rep.search_ns / rep.searches.max(1) as f64,
        "ns",
    );
    m(
        &mut out,
        "cam.rows_per_search",
        rep.rows_enabled as f64 / rep.searches.max(1) as f64,
        "rows",
    );
    m(
        &mut out,
        "engine.ns_per_pass.on",
        rep.on.0 / rep.on.1.max(1) as f64,
        "ns",
    );
    m(
        &mut out,
        "engine.ns_per_pass.off",
        rep.off.0 / rep.off.1.max(1) as f64,
        "ns",
    );
    m(
        &mut out,
        "engine.rmem_per_pivot",
        rep.engine.rmem_searches as f64 / rep.engine.pivots_total.max(1) as f64,
        "ratio",
    );
    m(&mut out, "session.reads_per_s.w1", sub / w1_s, "reads/s");
    m(&mut out, "session.reads_per_s.w2", sub / w2_s, "reads/s");
    m(&mut out, "session.scaling", w1_s / (2.0 * w2_s), "ratio");
    m(&mut out, "session.request_ms", median(&request_ms), "ms");
    m(
        &mut out,
        "stream.reads_per_s",
        report.reads as f64 / stream_s,
        "reads/s",
    );
    m(
        &mut out,
        "stream.peak_inflight_reads",
        report.peak_inflight_reads as f64,
        "reads",
    );
    m(
        &mut out,
        "align.ns_per_read",
        total_s(&t, "align.reads") * 1e9 / n,
        "ns",
    );
    m(
        &mut out,
        "align.mapped_frac",
        traced.mapped as f64 / n,
        "ratio",
    );
    m(
        &mut out,
        "sam.ns_per_record",
        total_s(&t, "sam.write") * 1e9 / n,
        "ns",
    );
    m(&mut out, "sam.bytes", traced.sam_bytes as f64, "bytes");
    m(
        &mut out,
        "serve.overhead_ms",
        probe.p50_ms - median(&request_ms),
        "ms",
    );
    m(
        &mut out,
        "serve.server_p50_ms",
        server_p50_ms(&metrics),
        "ms",
    );
    for reason in [
        "queue_full",
        "inflight_bytes",
        "request_too_large",
        "shutting_down",
    ] {
        let series = format!("casa_requests_rejected_total{{reason=\"{reason}\"}}");
        let name = format!("serve.rejected.{reason}");
        m(
            &mut out,
            &name,
            prom(&metrics, &series).unwrap_or(0.0),
            "count",
        );
    }
    m(&mut out, "gen.lag_p99_ms", probe.lag_p99_ms, "ms");
    m(&mut out, "cli.wall_s", total_s(&t, "cli.run"), "s");
    m(&mut out, "trace.coverage", coverage(&spans, root), "ratio");
    m(
        &mut out,
        "trace.overhead_frac",
        traced_s / plain_s - 1.0,
        "ratio",
    );
    out.note("probe.p50_ms", probe.p50_ms, "ms");
    out.note("pipeline.wall_s", traced.wall_s, "s");
    out.note("stream.reads", report.reads as f64, "reads");
    Ok(out)
}
