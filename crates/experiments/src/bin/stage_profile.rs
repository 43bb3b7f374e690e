//! Stage-level pipeline profile: per-stage breakdown and unprofiled wall
//! time of the seeding path. Usage: `stage_profile [small|medium|large]
//! [--test]` (`--test` is the CI smoke mode: fewer samples, identical
//! equality gates, identical artifacts).
use casa_experiments::scenario::Scale;
use casa_experiments::stage_profile;

fn main() {
    let mut scale = Scale::Medium;
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg == "--test" {
            quick = true;
        } else {
            match Scale::parse(&arg) {
                Some(s) => scale = s,
                None => eprintln!("unknown argument {arg:?}; try small|medium|large or --test"),
            }
        }
    }
    let report = stage_profile::run_with(scale, quick);
    let table = stage_profile::table(&report);
    print!("{}", table.render());
    println!(
        "headline: {} reads, one worker, {:.3} ms per batch (best of unprofiled runs)",
        report.reads,
        report.session_ms(),
    );
    if let Ok(path) = table.save_csv("stage_profile") {
        println!("(csv written to {})", path.display());
    }
    let bench_path = "BENCH_pipeline.json";
    match std::fs::write(bench_path, stage_profile::bench_json(&report, scale)) {
        Ok(()) => println!("(bench record written to {bench_path})"),
        Err(e) => eprintln!("stage_profile: could not write {bench_path}: {e}"),
    }
}
