//! The benchmark is itself deterministic: two runs of one workload at a
//! tiny size with one seed give identical verdict bytes and identical
//! counts wherever the counts do not depend on thread interleaving; a
//! second seed gives other inputs; a doctored output fails the run; and
//! every run emits exactly the metric names `BENCHMARK.json` declares.

use remix_perfbench::{run, Options, Outcome, Size, Stop, Workload};
use std::sync::Mutex;

/// The runs share process-global state (`remix_trace`, the thread pin),
/// so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, seed: u64, size: Size) -> Outcome {
    run(&Options {
        workload,
        seed,
        trace: true,
        size,
        doctor: false,
    })
}

/// A tiny run is correct except that it has too few latency samples for
/// the tail percentile, which the run must refuse to report.
fn assert_clean(outcome: &Outcome) {
    assert_eq!(outcome.failed, 0, "{:?}", outcome.problems);
    assert!(outcome.attempted > 0);
    assert!(
        outcome
            .problems
            .iter()
            .all(|p| p.starts_with("latency_p95_ms refused")),
        "{:?}",
        outcome.problems
    );
    if outcome.end_to_end.get("latency_p95_ms").is_none() {
        assert!(!outcome.correct(), "a run without its tail is not correct");
    }
}

fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark");
    let value: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let pairs = value.as_object().expect("an object");
    let list = &pairs.iter().find(|(k, _)| k == section).expect(section).1;
    list.as_array()
        .expect("a list")
        .iter()
        .map(|entry| {
            let fields = entry.as_object().expect("an entry object");
            match &fields.iter().find(|(k, _)| k == "name").expect("a name").1 {
                serde::Value::Str(name) => name.clone(),
                other => panic!("name is {other:?}"),
            }
        })
        .collect()
}

fn assert_declared_metrics(outcome: &Outcome) {
    let mut end_to_end: Vec<String> = outcome.end_to_end.iter().map(|m| m.name.clone()).collect();
    if outcome.end_to_end.get("latency_p95_ms").is_none() {
        end_to_end.push("latency_p95_ms".to_string());
    }
    let mut expected = declared("end_to_end");
    expected.sort();
    end_to_end.sort();
    assert_eq!(end_to_end, expected);
    let per_layer: Vec<String> = outcome.per_layer.iter().map(|m| m.name.clone()).collect();
    assert_eq!(per_layer, declared("per_layer"));
    for m in outcome.end_to_end.iter().chain(outcome.per_layer.iter()) {
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        if let Some(ratio) = m.name.strip_suffix(".base") {
            assert!(
                outcome.per_layer.get(ratio).is_some(),
                "{} has no ratio",
                m.name
            );
        }
    }
}

#[test]
fn serve_gtsrb_full_repeats_exactly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = tiny(Workload::ServeGtsrbFull, 7, Size::tiny());
    let b = tiny(Workload::ServeGtsrbFull, 7, Size::tiny());
    assert_clean(&a);
    assert_clean(&b);
    assert_declared_metrics(&a);
    let (fa, fb) = (&a.fingerprint, &b.fingerprint);
    assert!(!fa.verdicts.is_empty());
    assert_eq!(fa.verdicts, fb.verdicts, "verdict bytes");
    assert_eq!(fa.inputs, fb.inputs);
    assert_eq!(fa.requests, fb.requests);
    assert_eq!(fa.batches, fb.batches);
    assert_eq!(fa.rungs, fb.rungs, "rung mix");
    assert_eq!(fa.xai_perturbations, fb.xai_perturbations);
    assert_eq!(fa.gemm_macs_per_op, fb.gemm_macs_per_op);
    // every engine batch is a pair, every verdict runs at the Full rung
    assert_eq!(fa.batches * 2, fa.requests);
    assert_eq!(fa.rungs, [0, 0, 0, fa.requests]);
    assert_eq!(a.per_layer.value("serve.batch_occupancy"), Some(2.0));
    assert_eq!(a.per_layer.value("parallel.pool_jobs"), Some(0.0));
    assert_eq!(a.per_layer.value("tensor.prepack_hit_ratio"), Some(1.0));
    let c = tiny(Workload::ServeGtsrbFull, 8, Size::tiny());
    assert_ne!(
        fa.inputs, c.fingerprint.inputs,
        "a second seed draws other inputs"
    );
}

#[test]
fn serve_tabular_zipf_repeats_within_tolerance() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let size = || Size {
        stop: Stop::Count(600),
        ..Size::tiny()
    };
    let a = tiny(Workload::ServeTabularZipf, 7, size());
    let b = tiny(Workload::ServeTabularZipf, 7, size());
    assert_eq!(a.failed, 0, "{:?}", a.problems);
    assert!(a.correct(), "{:?}", a.problems);
    assert_declared_metrics(&a);
    let (fa, fb) = (&a.fingerprint, &b.fingerprint);
    assert_eq!(fa.verdicts, fb.verdicts, "verdict bytes");
    assert_eq!(fa.inputs, fb.inputs);
    assert_eq!(fa.requests, fb.requests);
    // Two clients interleave their LRU inserts and batch-window arrivals,
    // so which repeat finds its verdict still cached may differ between
    // runs: hits agree within 5 % of the requests.
    let tolerance = fa.requests / 20;
    assert!(
        fa.cache_hits.abs_diff(fb.cache_hits) <= tolerance,
        "hits {} vs {} (tolerance {tolerance})",
        fa.cache_hits,
        fb.cache_hits
    );
    assert!(fa.cache_hits > 0);
    let c = tiny(Workload::ServeTabularZipf, 8, size());
    assert_ne!(
        fa.inputs, c.fingerprint.inputs,
        "a second seed draws other inputs"
    );
}

#[test]
fn doctored_outputs_fail_the_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (workload, stop) in [
        (Workload::ServeGtsrbFull, Stop::Count(2)),
        (Workload::ServeTabularZipf, Stop::Count(50)),
    ] {
        let outcome = run(&Options {
            workload,
            seed: 3,
            trace: false,
            size: Size {
                stop,
                ..Size::tiny()
            },
            doctor: true,
        });
        assert!(outcome.failed > 0, "{workload:?}: {:?}", outcome.problems);
        assert!(!outcome.correct());
    }
}
