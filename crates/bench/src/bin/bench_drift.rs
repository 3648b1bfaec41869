//! `bench_drift`: drift-detection soak for the serving loop's closed-loop
//! adaptation path.
//!
//! The scenario DESIGN.md §6k exists for: a server runs v1 of an ensemble
//! (trained on 30 % mislabelled data) with the streaming drift detector on
//! and `--drift-action swap` pointed at v2 (the re-cleaned retrain). The
//! bench streams clean traffic first, then injects the paper's fault shape
//! mid-stream — inputs blended across the most-confusable class pair of the
//! extracted [`remix_faults::ConfusionPattern`], i.e. the inputs a
//! label-flip-shaped distribution shift is made of — and measures:
//!
//! * **false positives** — zero alerts over the entire clean prefix
//!   (`clean_false_trips == 0`), and zero new alerts on clean traffic after
//!   recovery (`post_swap_false_trips == 0`);
//! * **detection latency** — `detection_verdicts`, verdicts folded between
//!   the injection point and the trip, which must stay within the absolute
//!   budget [`remix_bench::check::DRIFT_MAX_DETECTION_VERDICTS`]
//!   (`detection_headroom` = budget / latency is the gated ratio);
//! * **bit identity** — the same clean stream served with the detector on
//!   and off must produce byte-identical verdicts
//!   (`detector_verdicts_identical`: the detector is strictly passive);
//! * **closed-loop recovery** — the trip must promote v2 through the hot-swap
//!   coordinator with zero dropped requests (`swap_promoted`,
//!   `swap_status == 200`), reset the detector (`detector_reset_after_swap`),
//!   and post-swap verdicts must match a local
//!   [`Remix::predict`](remix_core::Remix::predict) over v2
//!   (`post_swap_identical`).
//!
//! Writes `results/bench_drift.json`; `bench_check` gates every flag, the
//! zero-counters, and the detection budget against the committed baseline.

use remix_bench::soak::{self, MODEL};
use remix_bench::{round, write_record, Scale};
use remix_ensemble::TrainedEnsemble;
use remix_faults::pattern;
use remix_serve::{verdict_fragment, Client, DriftAction, DriftConfig, ServeConfig};
use remix_tensor::Tensor;
use serde::{Serialize, Value};
use std::time::{Duration, Instant};

/// Verdict budget the detector must trip within after injection; mirrored by
/// the `drift/detection_latency` gate.
const DETECTION_BUDGET: u64 = remix_bench::check::DRIFT_MAX_DETECTION_VERDICTS as u64;

#[derive(Serialize)]
struct Record {
    benchmark: &'static str,
    scale: &'static str,
    model: &'static str,
    host_cores: usize,
    clean_requests: usize,
    clean_false_trips: u64,
    detector_verdicts_identical: bool,
    shift_pool: usize,
    injected_at: u64,
    tripped_feature: String,
    detection_verdicts: u64,
    detection_budget: u64,
    detected_within_budget: bool,
    detection_headroom: f64,
    swap_promoted: bool,
    swap_status: u64,
    post_swap_version: String,
    detector_reset_after_swap: bool,
    recovery_requests: usize,
    post_swap_false_trips: u64,
    post_swap_identical: bool,
    dropped_requests: u64,
    errored_requests: u64,
}

/// Builds the shifted stream: inputs blended 50/50 across the most-confusable
/// class pair of the extracted confusion pattern — the input-space shape of a
/// label-flip fault — screened down to blends v1's constituents disagree on.
fn shifted_pool(
    train: &remix_data::Dataset,
    test: &remix_data::Dataset,
    local_v1: &mut TrainedEnsemble,
) -> (Vec<Vec<f32>>, usize, usize) {
    let confusion = pattern::extract(train, 3, 5);
    let (mut class_a, mut class_b, mut mass) = (0, 1, -1.0f32);
    for a in 0..confusion.num_classes() {
        for (b, &p) in confusion.row(a).iter().enumerate() {
            if b != a && p > mass {
                (class_a, class_b, mass) = (a, b, p);
            }
        }
    }
    let of_class = |class: usize| -> Vec<&Tensor> {
        test.images
            .iter()
            .zip(&test.labels)
            .filter(|(_, &label)| label == class)
            .map(|(image, _)| image)
            .collect()
    };
    let (from_a, from_b) = (of_class(class_a), of_class(class_b));
    let mut pool = Vec::new();
    for (i, a) in from_a.iter().enumerate() {
        for (j, b) in from_b.iter().enumerate() {
            let blended: Vec<f32> = a
                .data()
                .iter()
                .zip(b.data())
                .map(|(&x, &y)| 0.5 * x + 0.5 * y)
                .collect();
            let tensor = Tensor::from_vec(blended.clone(), a.shape()).expect("same shape");
            let outs = local_v1.outputs(&tensor);
            let first = outs[0].pred;
            if outs.iter().any(|o| o.pred != first) {
                pool.push(blended);
            }
            if pool.len() >= 64 || j > 16 {
                break;
            }
        }
        if pool.len() >= 64 || i > 16 {
            break;
        }
    }
    (pool, class_a, class_b)
}

/// The single drift-enabled group from a parsed `GET /drift` body.
fn drift_group(drift: &Value) -> Value {
    drift
        .get("models")
        .and_then(Value::as_array)
        .and_then(|models| models.first())
        .cloned()
        .unwrap_or_else(|| panic!("GET /drift has no models entry: {drift:?}"))
}

fn main() {
    let scale = Scale::from_env().name;
    // Clean verdicts before injection (reference window + armed prefix), and
    // clean verdicts streamed after the swap completes.
    let (clean_requests, recovery_requests) = if scale == "paper" {
        (512, 512)
    } else {
        (384, 320)
    };
    println!(
        "bench_drift [{scale}]: {clean_requests} clean + <= {DETECTION_BUDGET} shifted + \
         {recovery_requests} recovery verdicts"
    );

    let versions = soak::Versions::publish("drift");
    let [mut local_v1, mut local_v2] = versions.local.clone();
    let (train, test) = (&versions.v1.train, &versions.v1.test);
    let reference = soak::remix();

    // The clean stream cycles the natural test set: mostly unanimous with a
    // stationary disagreement rate — exactly what the reference window should
    // learn. The shifted stream is the label-flip-shaped blend.
    let clean_pool: Vec<Vec<f32>> = test.images.iter().map(|t| t.data().to_vec()).collect();
    let (shift_pool, class_a, class_b) = shifted_pool(train, test, &mut local_v1);
    assert!(
        shift_pool.len() >= 8,
        "only {} shifted disagreement blends — retune the ensemble",
        shift_pool.len()
    );
    println!(
        "shift pool: {} blends of confusable classes {class_a}<->{class_b}",
        shift_pool.len()
    );

    // Local v2 references for the recovery pool (post-swap byte identity).
    let recovery_pool: Vec<Vec<f32>> = clean_pool.iter().take(32).cloned().collect();
    let ref_v2: Vec<String> = recovery_pool
        .iter()
        .map(|image| {
            let tensor = Tensor::from_vec(image.clone(), &[1, 4, 4]).expect("image shape");
            verdict_fragment(&reference.predict(&mut local_v2, &tensor))
        })
        .collect();

    // Server A: detector on, closed loop armed at v2. Server B: detector
    // off, otherwise identical — the bit-identity control.
    let start_server = |drift: Option<DriftConfig>, drift_action: DriftAction| {
        versions.serve_v1(ServeConfig {
            max_batch: 16,
            batch_window: Duration::from_micros(200),
            queue_capacity: 4096,
            shards: 1,
            drift,
            drift_action,
            ..ServeConfig::default()
        })
    };
    let server_on = start_server(
        Some(DriftConfig::default()),
        DriftAction::Swap {
            target: format!("{MODEL}@2.0.0"),
        },
    );
    let server_off = start_server(None, DriftAction::Observe);
    let mut client_on = Client::connect(server_on.addr()).expect("connect detector-on");
    let mut client_off = Client::connect(server_off.addr()).expect("connect detector-off");
    let mut control = Client::connect(server_on.addr()).expect("connect control");

    let mut dropped_requests = 0u64;
    let mut errored_requests = 0u64;

    // Clean phase: the same stream to both servers, bytes compared per reply.
    let clean_started = Instant::now();
    let mut detector_verdicts_identical = true;
    for r in 0..clean_requests {
        let image = &clean_pool[(r * 7) % clean_pool.len()];
        let on = client_on.predict(image, Some(60_000), true);
        let off = client_off.predict(image, Some(60_000), true);
        match (on, off) {
            (Ok(on), Ok(off)) if on.status == 200 && off.status == 200 => {
                detector_verdicts_identical &= on.verdict_json == off.verdict_json;
            }
            (Ok(_), Ok(_)) => dropped_requests += 1,
            _ => errored_requests += 1,
        }
    }
    let clean_drift = control.drift().expect("GET /drift");
    let clean_group = drift_group(&clean_drift);
    let clean_false_trips = clean_group
        .get("alerts")
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX);
    let clean_verdicts = clean_group
        .get("verdicts")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    println!(
        "clean: {} verdicts in {:?}, false trips {clean_false_trips}, \
         detector-on == detector-off: {detector_verdicts_identical}",
        clean_verdicts,
        clean_started.elapsed()
    );

    // Injection: switch the stream to the blended inputs and count verdicts
    // until the detector latches. `verdicts_at_trip` is the detector's own
    // count, so the latency measure is exact regardless of polling cadence.
    let injected_at = clean_verdicts;
    let mut tripped = false;
    let mut shifted_sent = 0u64;
    while shifted_sent < DETECTION_BUDGET {
        let image = &shift_pool[(shifted_sent as usize * 7) % shift_pool.len()];
        match client_on.predict(image, Some(60_000), true) {
            Ok(reply) if reply.status == 200 => {}
            Ok(_) => dropped_requests += 1,
            Err(_) => errored_requests += 1,
        }
        shifted_sent += 1;
        if shifted_sent.is_multiple_of(4) {
            // Poll the cumulative `alerts` counter, not the `tripped` latch:
            // with `--drift-action swap` the coordinator can complete the
            // swap and reset the detector (clearing the latch) faster than
            // the polling cadence, and streaming shifted inputs past that
            // reset would teach the fresh detector the shifted distribution
            // as its reference.
            let drift = control.drift().expect("GET /drift");
            if drift_group(&drift)
                .get("alerts")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                >= 1
            {
                tripped = true;
                break;
            }
        }
    }
    // The trip may land between polls (or be cleared by the swap reset
    // before the next poll); the retained last-trip metadata is the record.
    let shifted_drift = control.drift().expect("GET /drift");
    let shifted_group = drift_group(&shifted_drift);
    let last_trip = shifted_group
        .get("last_trip")
        .cloned()
        .unwrap_or(Value::Null);
    tripped |= !matches!(last_trip, Value::Null);
    let verdicts_at_trip = last_trip
        .get("verdicts_at_trip")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let detection_verdicts = if tripped {
        verdicts_at_trip.saturating_sub(injected_at).max(1)
    } else {
        shifted_sent
    };
    let detected_within_budget = tripped && detection_verdicts <= DETECTION_BUDGET;
    let detection_headroom = DETECTION_BUDGET as f64 / detection_verdicts as f64;
    let tripped_feature = last_trip
        .get("feature")
        .and_then(Value::as_str)
        .unwrap_or("none")
        .to_string();
    println!(
        "shift: tripped {tripped} on `{tripped_feature}` after {detection_verdicts} verdicts \
         (budget {DETECTION_BUDGET}, headroom {detection_headroom:.1}x)"
    );

    // The trip nudges the swap coordinator off-path; wait for the outcome.
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut swap_promoted, mut swap_status) = (false, 0u64);
    while Instant::now() < deadline {
        let drift = control.drift().expect("GET /drift");
        let group = drift_group(&drift);
        if group.get("drift_swaps").and_then(Value::as_u64) == Some(1) {
            swap_status = group
                .get("swap_status")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            swap_promoted = swap_status == 200;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let models = control.models().expect("GET /models");
    let post_swap_version = models
        .get("models")
        .and_then(Value::as_array)
        .and_then(|models| models.first())
        .and_then(|m| m.get("version").and_then(Value::as_str))
        .unwrap_or_default()
        .to_string();
    println!(
        "swap: promoted {swap_promoted} (status {swap_status}), serving {MODEL}@{post_swap_version}"
    );

    // Recovery: clean traffic against the promoted v2 — byte-identical to
    // the local reference, and the re-learned detector must stay quiet.
    let recovery = soak::load(
        server_on.addr(),
        &recovery_pool,
        1,
        recovery_requests,
        Some(60_000),
        true,
    );
    let post_swap_identical = soak::served_references(&recovery.replies, &ref_v2);
    dropped_requests += recovery.dropped;
    errored_requests += recovery.errored;
    let recovery_drift = control.drift().expect("GET /drift");
    if std::env::var("REMIX_DRIFT_DEBUG").is_ok() {
        println!("debug shifted /drift: {shifted_drift:?}");
        println!("debug recovery /drift: {recovery_drift:?}");
    }
    let recovery_group = drift_group(&recovery_drift);
    let total_alerts = recovery_group
        .get("alerts")
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX);
    let post_swap_false_trips = total_alerts.saturating_sub(1);
    // The engine adopts the pending swap (and resets its detector) between
    // batches, which needs traffic — so the reset is observable only after
    // the recovery stream has flowed, not at swap-completion time.
    let detector_reset_after_swap = recovery_group
        .get("resets")
        .and_then(Value::as_u64)
        .unwrap_or(0)
        >= 1
        && recovery_group.get("tripped").and_then(Value::as_bool) == Some(false);
    println!(
        "recovery: {} verdicts, post-swap identical: {post_swap_identical}, \
         new alerts: {post_swap_false_trips}, detector reset: {detector_reset_after_swap}",
        recovery_requests
    );
    println!("dropped: {dropped_requests}, errored: {errored_requests}");

    write_record(
        "bench_drift.json",
        &Record {
            benchmark: "bench_drift",
            scale,
            model: MODEL,
            host_cores: remix_parallel::num_threads(),
            clean_requests,
            clean_false_trips,
            detector_verdicts_identical,
            shift_pool: shift_pool.len(),
            injected_at,
            tripped_feature,
            detection_verdicts,
            detection_budget: DETECTION_BUDGET,
            detected_within_budget,
            detection_headroom: round(detection_headroom, 3),
            swap_promoted,
            swap_status,
            post_swap_version: post_swap_version.clone(),
            detector_reset_after_swap,
            recovery_requests,
            post_swap_false_trips,
            post_swap_identical,
            dropped_requests,
            errored_requests,
        },
    );

    drop(server_on);
    drop(server_off);

    assert_eq!(clean_false_trips, 0, "detector tripped on the clean prefix");
    assert!(
        detector_verdicts_identical,
        "detector-on verdicts diverged from detector-off"
    );
    assert!(
        detected_within_budget,
        "shift not detected within {DETECTION_BUDGET} verdicts"
    );
    assert!(swap_promoted, "drift trip did not promote the swap target");
    assert_eq!(
        post_swap_version, "2.0.0",
        "server not serving v2 after trip"
    );
    assert!(
        detector_reset_after_swap,
        "detector did not reset on adoption"
    );
    assert!(
        post_swap_identical,
        "post-swap verdicts diverged from Remix::predict over v2"
    );
    assert_eq!(
        post_swap_false_trips, 0,
        "detector re-tripped on clean recovery"
    );
    assert_eq!(dropped_requests, 0, "requests dropped during the soak");
    assert_eq!(errored_requests, 0, "transport errors during the soak");
}
