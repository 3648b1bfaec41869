//! `remix-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostic lines starting with `#`, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. Exits
//! nonzero when any output was wrong. `--doctor` corrupts the first reply
//! one client receives, to show that the checks catch it.

use remix_perfbench::serve::CLIENTS;
use remix_perfbench::stats::json_string;
use remix_perfbench::{
    calibration_ms, git_commit, host_jiffies, out_dir, pin_threads, run, Options, Size, Workload,
};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("error: {problem}");
    eprintln!(
        "usage: remix-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--doctor]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    pin_threads();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload").and_then(Workload::parse) else {
        return usage("missing or unknown --workload");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
    else {
        return usage("missing or invalid --seconds");
    };
    let trace = match value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let opts = Options {
        workload,
        seed,
        trace,
        size: Size::benchmark(seconds),
        doctor: args.iter().any(|a| a == "--doctor"),
    };

    let calibration_start = calibration_ms();
    let (steal_start, total_start) = host_jiffies();
    let outcome = run(&opts);
    let (steal_end, total_end) = host_jiffies();
    let calibration_end = calibration_ms();
    let steal_share = (steal_end - steal_start) as f64 / (total_end - total_start).max(1) as f64;

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# meta {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"threads\": {{\"REMIX_THREADS\": 1, \"remix_threads\": 1, \"shards\": 1, \
         \"clients\": {CLIENTS}}}, \"git_commit\": {}, \"calibration_ms_start\": {calibration_start}, \
         \"calibration_ms_end\": {calibration_end}, \"host_steal_share\": {steal_share}}}",
        workload.name(),
        json_string(&git_commit()),
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# problem: {problem}");
    }
    let metrics = if trace {
        println!("# traced end-to-end {}", outcome.end_to_end.to_json());
        if let Some(spans) = &outcome.spans_json {
            let path = out_dir().join(format!("spans-{}-seed{seed}.json", workload.name()));
            let written =
                std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, spans));
            match written {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => println!("# spans not written: {e}"),
            }
        }
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
