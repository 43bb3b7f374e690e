//! The `serve` workload: `casa-serve` on a mapped index image under
//! open-loop load from one generator process (two threads, at most two
//! connections), then a closed-loop saturation phase.
//!
//! Latency is timed from each request's *scheduled* send time, so a stall
//! that delays later sends is charged to them; the generator's own
//! lateness is reported beside it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use casa::genome::PackedSeq;
use casa::index::Smem;
use casa::Seeder;

use crate::inputs::{Inputs, Request, Rng, READ_LEN, TENANTS};
use crate::proc::{reap, signal, Exit, SIGKILL, SIGTERM};
use crate::report::Outcome;
use crate::seedrun::{Bins, THREADS};
use crate::trace::Tracer;
use crate::util::{digest, median, mix, quantile};

/// Connections (and generator threads) driving the server.
pub const CLIENTS: usize = 2;
/// Per-request socket timeout; a request that takes longer fails.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Builds the index image with `casa-seed index build`, as an operator
/// would. Returns the image path and the build's wall seconds.
pub fn build_image(bins: &Bins, inputs: &Inputs) -> Result<(PathBuf, f64), String> {
    let image = inputs.dir.join("ref.casaimg");
    let start = Instant::now();
    let status = Command::new(&bins.seed)
        .args(["index", "build", "--reference"])
        .arg(&inputs.fasta)
        .arg("--out")
        .arg(&image)
        .arg("--partition")
        .arg(inputs.scale.partition.to_string())
        .arg("--read-len")
        .arg(READ_LEN.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("casa-seed index build: {e}"))?;
    if !status.success() {
        return Err(format!("casa-seed index build failed: {status}"));
    }
    Ok((image, start.elapsed().as_secs_f64()))
}

/// A running `casa-serve`; dropping it without [`Server::stop`] (an
/// error path) kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound address.
    pub addr: SocketAddr,
    /// Spawn to first `200` from `GET /health`, in seconds.
    pub ready_s: f64,
}

impl Server {
    /// Spawns `casa-serve` on `image` and waits until `/health` answers.
    pub fn start(bins: &Bins, image: &Path) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new(&bins.serve)
            .arg("--index-image")
            .arg(image)
            .args([
                "--seed-workers",
                "2",
                "--threads",
                "1",
                "--addr",
                "127.0.0.1:0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("casa-serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let Some(addr) = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
        else {
            signal(&child, SIGTERM);
            let _ = reap(child, Duration::from_secs(5));
            return Err(format!("casa-serve did not announce its address: {line:?}"));
        };
        let mut server = Server {
            child: Some(child),
            _stdout: stdout,
            addr,
            ready_s: 0.0,
        };
        loop {
            if let Ok((200, _)) = http(addr, "GET", "/health", None, b"") {
                server.ready_s = start.elapsed().as_secs_f64();
                return Ok(server);
            }
            if start.elapsed() > Duration::from_secs(30) {
                let _ = server.stop();
                return Err("casa-serve never became healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Sends SIGTERM (graceful drain) and reaps the process.
    pub fn stop(mut self) -> Result<Exit, String> {
        let child = self.child.take().expect("a server is stopped once");
        signal(&child, SIGTERM);
        reap(child, Duration::from_secs(30)).map_err(|e| e.to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            signal(&child, SIGKILL);
            let _ = reap(child, Duration::from_secs(5));
        }
    }
}

/// One HTTP/1.1 exchange (the server closes every connection). Returns
/// the status code and body.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: Option<&str>,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    s.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    s.set_nodelay(true)?;
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: casabench\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(t) = tenant {
        req.push_str(&format!("X-Casa-Tenant: {t}\r\n"));
    }
    req.push_str("\r\n");
    let mut msg = req.into_bytes();
    msg.extend_from_slice(body);
    s.write_all(&msg)?;
    let mut resp = Vec::new();
    s.read_to_end(&mut resp)?;
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("no header terminator"))?;
    let status = std::str::from_utf8(&resp[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    Ok((status, resp[split + 4..].to_vec()))
}

/// Renders per-read SMEMs as the server's `POST /seed` TSV.
pub fn render_tsv(smems: &[Vec<Smem>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (ri, read) in smems.iter().enumerate() {
        for s in read {
            let hits: Vec<String> = s.hits.iter().map(|h| h.to_string()).collect();
            let _ = writeln!(
                out,
                "{ri}\t{}\t{}\t{}",
                s.read_start,
                s.read_end,
                hits.join(",")
            );
        }
    }
    out
}

/// Expected response digest per pool request, from an in-process
/// `Seeder::seed_reads` on an index built from the FASTA (independent of
/// the image the server maps).
pub fn expected_digests(inputs: &Inputs, pool: &[Request]) -> Result<Vec<u64>, String> {
    let seeder = Seeder::builder(&inputs.reference)
        .partition_len(inputs.scale.partition)
        .read_len(READ_LEN)
        .workers(THREADS)
        .build()
        .map_err(|e| format!("in-process seeder: {e}"))?;
    Ok(pool
        .iter()
        .map(|r| {
            let reads: Vec<PackedSeq> = inputs.reads[r.reads.clone()]
                .iter()
                .map(|x| x.seq.clone())
                .collect();
            digest(render_tsv(&seeder.seed_reads(&reads).smems).as_bytes())
        })
        .collect())
}

/// One scheduled request: due time (seconds from phase start), pool
/// index, tenant.
#[derive(Clone, Copy, Debug)]
pub struct Due {
    at: f64,
    body: usize,
    tenant: &'static str,
}

/// A seeded Poisson schedule of `n` requests at `rate` per second.
pub fn poisson(seed: u64, rate: f64, n: usize, pool: usize) -> Vec<Due> {
    let mut rng = Rng::new(seed);
    let total: u64 = TENANTS.iter().map(|t| t.1).sum();
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            at += -(1.0 - rng.unit()).ln() / rate;
            let mut pick = rng.next_u64() % total;
            let tenant = TENANTS
                .iter()
                .find(|(_, w)| {
                    let hit = pick < *w;
                    pick = pick.saturating_sub(*w);
                    hit
                })
                .map_or(TENANTS[0].0, |t| t.0);
            Due {
                at,
                body: (rng.next_u64() % pool as u64) as usize,
                tenant,
            }
        })
        .collect()
}

/// What one request did.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Due time to response, ms.
    pub latency_ms: f64,
    /// Send time minus due time, ms (the generator running late).
    pub lag_ms: f64,
    /// Reads in the request.
    pub reads: usize,
    /// Completion time, seconds from the phase start.
    pub done_s: f64,
    /// `200` with the expected body.
    pub ok: bool,
}

fn send(addr: SocketAddr, pool: &[Request], expected: &[u64], due: &Due) -> (bool, usize) {
    let req = &pool[due.body];
    let ok = matches!(
        http(addr, "POST", "/seed", Some(due.tenant), &req.body),
        Ok((200, body)) if digest(&body) == expected[due.body]
    );
    (ok, req.reads.len())
}

/// Plays `schedule` open-loop against `addr` from [`CLIENTS`] threads;
/// with `trace`, records one `serve.request` span per request (tagged
/// with its schedule index) under the given parent span.
pub fn open_loop(
    addr: SocketAddr,
    pool: &[Request],
    expected: &[u64],
    schedule: &[Due],
    trace: Option<(&Tracer, u64)>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(due) = schedule.get(i) else {
                            return mine;
                        };
                        let due_at = start + Duration::from_secs_f64(due.at);
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let (ok, reads) = match trace {
                            Some((t, parent)) => {
                                t.span_req("serve.request", Some(parent), Some(i as u64), |_| {
                                    send(addr, pool, expected, due)
                                })
                            }
                            None => send(addr, pool, expected, due),
                        };
                        let done = Instant::now();
                        mine.push(Sample {
                            latency_ms: (done - due_at).as_secs_f64() * 1e3,
                            lag_ms: sent.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                            reads,
                            done_s: done.saturating_duration_since(start).as_secs_f64(),
                            ok,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread panicked"))
            .collect()
    });
    samples.shrink_to_fit();
    samples
}

/// Closed loop: [`CLIENTS`] connections send back to back for
/// `seconds`. Returns the samples and the phase wall seconds.
///
/// With two connections and two seed workers, any client-side gap idles
/// a worker, so throughput is read per [`SAT_WINDOW_S`] window and the
/// median window reported: a transient stall moves one window, not the
/// result.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &[Request],
    expected: &[u64],
    seed: u64,
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = Rng::new(mix(seed, c as u64));
                    let mut mine = Vec::new();
                    while Instant::now() < stop {
                        let due = Due {
                            at: 0.0,
                            body: (rng.next_u64() % pool.len() as u64) as usize,
                            tenant: TENANTS[c % TENANTS.len()].0,
                        };
                        let sent = Instant::now();
                        let (ok, reads) = send(addr, pool, expected, &due);
                        mine.push(Sample {
                            latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                            lag_ms: 0.0,
                            reads,
                            done_s: start.elapsed().as_secs_f64(),
                            ok,
                        });
                    }
                    mine
                })
            })
            .collect::<Vec<_>>();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread panicked"))
            .collect::<Vec<Sample>>()
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Length of one saturation-throughput window, seconds.
pub const SAT_WINDOW_S: f64 = 0.5;

/// Median over whole [`SAT_WINDOW_S`] windows of `wall_s` of the reads
/// answered correctly per second.
pub fn windowed_reads_per_s(samples: &[Sample], wall_s: f64) -> f64 {
    let windows = ((wall_s / SAT_WINDOW_S) as usize).max(1);
    let mut reads = vec![0usize; windows];
    for s in samples.iter().filter(|s| s.ok) {
        if let Some(w) = reads.get_mut((s.done_s / SAT_WINDOW_S) as usize) {
            *w += s.reads;
        }
    }
    let rates: Vec<f64> = reads.iter().map(|&r| r as f64 / SAT_WINDOW_S).collect();
    median(&rates)
}

/// A value of an unlabelled or labelled Prometheus sample in `text`.
pub fn prom(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.strip_prefix(series)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

/// The median of the server's own request-latency histogram, in ms,
/// interpolated within its bucket.
pub fn server_p50_ms(text: &str) -> f64 {
    let mut prev = (0.0, 0.0);
    let total = prom(text, "casa_request_seconds_count").unwrap_or(0.0);
    for l in text.lines() {
        let Some(rest) = l.strip_prefix("casa_request_seconds_bucket{le=\"") else {
            continue;
        };
        let Some((le, count)) = rest.split_once("\"} ") else {
            continue;
        };
        let (Ok(le), Ok(count)) = (le.parse::<f64>(), count.trim().parse::<f64>()) else {
            continue;
        };
        if count >= total / 2.0 && total > 0.0 {
            let frac = (total / 2.0 - prev.1) / (count - prev.1).max(1.0);
            return (prev.0 + (le - prev.0) * frac) * 1e3;
        }
        prev = (le, count);
    }
    0.0
}

/// Summary of one open-loop phase.
pub struct Phase {
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// 99th-percentile generator lag, ms.
    pub lag_p99_ms: f64,
    /// Requests sent.
    pub n: u64,
    /// Requests that failed (non-200, timeout or wrong body).
    pub bad: u64,
}

impl Phase {
    /// Summarizes `samples`.
    pub fn of(samples: &[Sample]) -> Phase {
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let lag: Vec<f64> = samples.iter().map(|s| s.lag_ms).collect();
        Phase {
            p50_ms: median(&lat),
            p99_ms: quantile(&lat, 0.99),
            lag_p99_ms: quantile(&lag, 0.99),
            n: samples.len() as u64,
            bad: samples.iter().filter(|s| !s.ok).count() as u64,
        }
    }
}

/// Requests in a fixed-rate phase lasting `secs` at `rate`, at least the
/// scale's minimum.
pub fn phase_len(inputs: &Inputs, rate: f64, secs: f64) -> usize {
    ((rate * secs) as usize).max(inputs.scale.min_phase_requests)
}

/// Runs the `serve` workload and reports its end-to-end metrics.
pub fn run(inputs: &Inputs, bins: &Bins, args: &crate::Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (image, build_s) = build_image(bins, inputs)?;
    out.note("image.build_wall_s", build_s, "s");
    let pool = &inputs.requests;
    let expected = expected_digests(inputs, pool)?;

    // Set-up: cold start to the first healthy answer, several times.
    let mut starts = Vec::new();
    for _ in 0..inputs.scale.cold_starts {
        let server = Server::start(bins, &image)?;
        starts.push(server.ready_s);
        let exit = server.stop()?;
        out.check("cold-start casa-serve drains and exits 0", exit.success());
    }

    let server = Server::start(bins, &image)?;
    let secs = args.seconds;
    let lo = open_loop(
        server.addr,
        pool,
        &expected,
        &poisson(
            mix(inputs.seed, 10),
            args.lo_rps,
            phase_len(inputs, args.lo_rps, 0.4 * secs),
            pool.len(),
        ),
        None,
    );
    let hi = open_loop(
        server.addr,
        pool,
        &expected,
        &poisson(
            mix(inputs.seed, 11),
            args.hi_rps,
            phase_len(inputs, args.hi_rps, 0.3 * secs),
            pool.len(),
        ),
        None,
    );
    let (sat, sat_wall) = closed_loop(
        server.addr,
        pool,
        &expected,
        mix(inputs.seed, 12),
        (0.5 * secs).max(1.0),
    );
    let metrics = http(server.addr, "GET", "/metrics", None, b"")
        .map(|(_, b)| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_default();
    let exit = server.stop()?;
    out.check("loaded casa-serve drains and exits 0", exit.success());

    let (lo, hi) = (Phase::of(&lo), Phase::of(&hi));
    let sat_ok: Vec<&Sample> = sat.iter().filter(|s| s.ok).collect();
    out.check_many("lo-rate responses", lo.n, lo.bad);
    out.check_many("hi-rate responses", hi.n, hi.bad);
    out.check_many(
        "saturation responses",
        sat.len() as u64,
        (sat.len() - sat_ok.len()) as u64,
    );

    out.metric("setup_s", median(&starts), "s");
    out.metric(
        "reads_per_s",
        windowed_reads_per_s(&sat, sat_wall),
        "reads/s",
    );
    out.metric("peak_rss_mb", exit.peak_rss_mb, "MB");
    out.note("lo.p50_ms", lo.p50_ms, "ms");
    out.note("lo.p99_ms", lo.p99_ms, "ms");
    out.note("hi.p50_ms", hi.p50_ms, "ms");
    out.note("hi.p99_ms", hi.p99_ms, "ms");
    out.note("sat_rps", sat_ok.len() as f64 / sat_wall, "1/s");
    out.note("gen.lag_p99_ms", lo.lag_p99_ms.max(hi.lag_p99_ms), "ms");
    out.note("lo.requests", lo.n as f64, "count");
    out.note("hi.requests", hi.n as f64, "count");
    out.note("serve.server_p50_ms", server_p50_ms(&metrics), "ms");
    Ok(out)
}
