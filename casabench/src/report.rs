//! What a run reports: named metrics with units, the checks that decide
//! `correct`/`attempted`/`failed`, diagnostic notes, and provenance.

use std::path::Path;

use serde_json::{json, Value};

use crate::util::{digest, Fnv};

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics for the result line: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Diagnostics printed and written to the run record, not gated.
    pub notes: Vec<(String, f64, String)>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed (non-zero exit, wrong output, non-200).
    pub failed: u64,
    /// Descriptions of the failed checks.
    pub failures: Vec<String>,
    /// Extra blocks for the run record (counts, spans summary, ...).
    pub blocks: Vec<(String, Value)>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what.to_string());
            }
        }
    }

    /// Records `n` checked operations of which `bad` failed.
    pub fn check_many(&mut self, what: &str, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.failures.len() < 20 {
            self.failures.push(format!("{what}: {bad} of {n}"));
        }
    }

    /// Adds a result-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Adds a diagnostic note.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push((name.into(), value, unit.into()));
    }

    /// Failed ÷ attempted.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The machine-readable result line (always the last stdout line).
    pub fn result_line(&self) -> String {
        json!({
            "correct": self.failed == 0,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": by_name(&self.metrics)
        })
        .to_string()
    }

    /// Human-readable report lines (printed before the result line).
    pub fn table(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let mut row = |kind: &str, name: &str, value: f64, unit: &str| {
            lines.push(format!("{kind:<6} {name:<34} {value:>16.6} {unit}"));
        };
        for (name, value, unit) in &self.metrics {
            row("metric", name, *value, unit);
        }
        for (name, value, unit) in &self.notes {
            row("note", name, *value, unit);
        }
        row("check", "error_frac", self.error_frac(), "");
        for f in &self.failures {
            lines.push(format!("FAILED {f}"));
        }
        lines
    }

    /// The full run record written under the benchmark's output directory.
    pub fn record(&self, provenance: Value) -> Value {
        let mut o = json!({
            "provenance": provenance,
            "metrics": by_name(&self.metrics),
            "notes": by_name(&self.notes),
            "attempted": self.attempted,
            "failed": self.failed,
            "error_frac": self.error_frac(),
            "failures": self.failures
        });
        if let Value::Object(map) = &mut o {
            for (k, v) in &self.blocks {
                map.insert(k.clone(), v.clone());
            }
        }
        o
    }
}

/// `{name: {"value": v, "unit": u}}` for each triple.
fn by_name(xs: &[(String, f64, String)]) -> Value {
    Value::Object(
        xs.iter()
            .map(|(name, value, unit)| (name.clone(), json!({"value": value, "unit": unit})))
            .collect(),
    )
}

/// Provenance of a result: the code, the machine, the dispatched CAM
/// kernel and the inputs, so a number from another machine, kernel or
/// input set is never mistaken for a code change.
pub fn provenance(root: &Path, inputs_digests: Value, extra: Vec<(&str, Value)>) -> Value {
    let mut o = json!({
        "git_rev": git_rev(root),
        "source_digest": format!("{:016x}", source_digest(root)),
        "cpu_model": cpu_model(),
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "l3": l3_size(),
        "cam_kernel": casa::cam::kernel::default_backend().as_str(),
        "inputs": inputs_digests
    });
    if let Value::Object(map) = &mut o {
        map.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    }
    o
}

fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout; see source_digest)".into())
}

/// Digest of the program's sources (`crates/`, root manifest and lock
/// file): identifies the code even where no git metadata exists.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            h.update(rel.to_string_lossy().as_bytes());
            h.update(&digest(&bytes).to_le_bytes());
        }
    }
    h.finish()
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        if p.is_dir() {
            collect_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn l3_size() -> String {
    (0..8)
        .filter_map(|i| {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = std::fs::read_to_string(format!("{base}/level")).ok()?;
            (level.trim() == "3")
                .then(|| std::fs::read_to_string(format!("{base}/size")).ok())
                .flatten()
        })
        .map(|s| s.trim().to_string())
        .next()
        .unwrap_or_else(|| "unknown".into())
}
