//! Runs every workload end to end at the smoke scale, correctness gate
//! included, in both modes, and checks that each result line carries
//! exactly the metrics `BENCHMARK.json` declares, with their units.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

#[test]
fn smoke_scale_runs_every_workload_in_both_modes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let bench = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = serde_json::from_str(&bench).expect("BENCHMARK.json parses");
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = bench[key].as_array().expect("a metric list");
        for workload in ["reseq", "screen", "serve"] {
            let out = Command::new(env!("CARGO_BIN_EXE_casabench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "smoke"])
                .current_dir(&root)
                .output()
                .expect("run casabench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("the result line parses");
            let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{last}"
            );
            assert_eq!(
                result["correct"], true,
                "{workload} trace {trace}: {stdout}"
            );
            assert_eq!(result["failed"], 0u64, "{last}");
            let metrics = result["metrics"].as_object().expect("metrics object");
            assert_eq!(metrics.len(), declared.len(), "{last}");
            for m in declared {
                let name = m["name"].as_str().expect("a name");
                let got = &metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing: {last}"));
                assert_eq!(got["unit"], m["unit"], "{name}");
                let value = got["value"].as_f64().expect("a number");
                assert!(value.is_finite(), "{name} = {value}");
            }
        }
    }
}
