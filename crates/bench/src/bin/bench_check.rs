//! CI perf-regression gate: walks the gate table `remix_bench::check::BENCHES`,
//! comparing each fresh bench record (gemm, inference, serve, xai_sched,
//! swap, drift) against its committed baseline, prints one `ok` or `FAIL`
//! line per check, and exits nonzero if any check fails. See
//! `remix_bench::check` for the policy (within-run ratios, so the gate is
//! robust to CI machine speed).
//!
//! ```text
//! bench_check [--baseline-dir DIR] [--fresh-dir DIR] [--self-test]
//! ```
//!
//! `--self-test` reads no fresh record. Each baseline must pass against
//! itself; then, for every gate on every row, a copy doctored at that one
//! value must fail that gate — proving each gate can fail before trusting it
//! to pass.

use remix_bench::check::{check, self_test, BENCHES, TOLERANCE};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Every bench's record from `dir`, in table order; `None` (after printing
/// each error) when any is unreadable.
fn load_all(dir: &Path) -> Option<Vec<Value>> {
    let loaded: Vec<_> = BENCHES.iter().map(|b| load(&dir.join(b.file))).collect();
    for err in loaded.iter().filter_map(|r| r.as_ref().err()) {
        eprintln!("error: {err}");
    }
    loaded.into_iter().collect::<Result<_, _>>().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let dir = |name: &str, default: &str| {
        let position = args.iter().position(|a| a == name);
        PathBuf::from(
            position
                .and_then(|i| args.get(i + 1))
                .map_or(default, String::as_str),
        )
    };
    let Some(baselines) = load_all(&dir("--baseline-dir", "crates/bench/baselines")) else {
        return ExitCode::FAILURE;
    };

    if args.iter().any(|a| a == "--self-test") {
        let mut ok = true;
        for (bench, baseline) in BENCHES.iter().zip(&baselines) {
            match self_test(bench, baseline) {
                Ok(gates) => println!(
                    "self-test ok: {} passes against itself, and each of its {gates} gates \
                     fails on its doctored value",
                    bench.file
                ),
                Err(problems) => {
                    ok = false;
                    for problem in problems {
                        println!("self-test FAIL: {}: {problem}", bench.file);
                    }
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let Some(fresh) = load_all(&dir("--fresh-dir", "results")) else {
        return ExitCode::FAILURE;
    };
    let (mut checks, mut failures) = (0, 0);
    for ((bench, baseline), fresh) in BENCHES.iter().zip(&baselines).zip(&fresh) {
        for outcome in check(bench, baseline, fresh) {
            checks += 1;
            failures += usize::from(outcome.is_err());
            println!("{}", outcome.unwrap_or_else(|line| line));
        }
    }
    if failures == 0 {
        println!(
            "bench_check: {checks} checks passed (tolerance {:.0} %)",
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!("bench_check: {failures} of {checks} checks FAILED");
        ExitCode::FAILURE
    }
}
