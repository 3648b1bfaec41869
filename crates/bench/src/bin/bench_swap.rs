//! `bench_swap`: hot-swap soak test for the registry-backed model server.
//!
//! The scenario the registry exists for: v1 of an ensemble was trained on
//! 30 % mislabelled data (the paper's faulty-training-data lever), v2 is the
//! re-cleaned retrain. Both are published to a registry; a live server
//! starts on v1 and is driven with keep-alive load while the bench swaps
//! v1 → v2 → v1 between rounds. Measured contracts (DESIGN.md §6j):
//!
//! * **zero downtime** — every request sent while swaps are in flight must
//!   complete with 200 and serve bytes that are *exactly* v1's or v2's
//!   reference verdict (`dropped_requests == 0`, `errored_requests == 0`);
//! * **byte identity** — steady-state verdicts match a local
//!   [`Remix::predict`](remix_core::Remix::predict) over the same registry
//!   round-trip, before the first swap (`v1_identical`), after swapping to
//!   v2 (`v2_identical`), and across a no-op swap (`noop_identical`);
//! * **cache generations** — a verdict cached under v1 must be unreachable
//!   under v2 and reachable again (original bytes, no recompute) after
//!   swapping back (`cache_generation_isolated`);
//! * **swap latency** — the server's own `prepare_us` (off-path load +
//!   freeze) and `flip_us` (pointer flip across shards) from each swap
//!   report, summarized as p50/p99;
//! * **throughput under churn** — `speedup_churn_vs_steady`, the same
//!   stream's throughput with swaps interleaved over without; the gate
//!   floors it at [`remix_bench::check::SWAP_MIN_CHURN_THROUGHPUT`].
//!
//! Writes `results/bench_swap.json`; `bench_check` gates the flags, the
//! zero-drop counters, the flip-stall p99, and the churn ratio against the
//! committed baseline.

use remix_bench::soak::{self, MODEL};
use remix_bench::{round, write_record, Scale};
use remix_serve::{verdict_fragment, Client, ClientReply, ServeConfig};
use serde::{Serialize, Value};
use std::thread;
use std::time::Duration;

#[derive(Serialize)]
struct Record {
    benchmark: &'static str,
    scale: &'static str,
    model: &'static str,
    pool_inputs: usize,
    concurrency: usize,
    rounds: usize,
    requests_per_phase: usize,
    host_cores: usize,
    swaps: usize,
    steady: Throughput,
    churn: Throughput,
    speedup_churn_vs_steady: f64,
    swap_prepare_p50_us: f64,
    swap_prepare_p99_us: f64,
    swap_flip_p50_us: f64,
    swap_flip_p99_us: f64,
    dropped_requests: u64,
    errored_requests: u64,
    noop_identical: bool,
    v1_identical: bool,
    v2_identical: bool,
    churn_identical: bool,
    cache_generation_isolated: bool,
}

#[derive(Serialize)]
struct Throughput {
    wall_secs: f64,
    rps: f64,
}

/// Issues one swap and records the server-measured `(prepare_us, flip_us)`.
fn swap_to(client: &mut Client, version: &str, swaps: &mut Vec<(f64, f64)>) {
    let reply = client.swap(MODEL, Some(version)).expect("swap request");
    assert_eq!(
        reply.status, 200,
        "swap to {version} failed: {}",
        reply.body
    );
    let report: Value = serde_json::from_str(&reply.body).expect("swap report parses");
    let field = |name: &str| {
        report
            .get(name)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("swap report missing {name}: {}", reply.body))
    };
    swaps.push((field("prepare_us"), field("flip_us")));
}

fn main() {
    let scale = Scale::from_env().name;
    let (concurrency, per_client, rounds) = if scale == "paper" {
        (8, 40, 6)
    } else {
        (6, 20, 4)
    };
    println!(
        "bench_swap [{scale}]: {concurrency} clients x {per_client} requests x {rounds} rounds"
    );

    let versions = soak::Versions::publish("swap");
    let [mut local_v1, mut local_v2] = versions.local.clone();
    let test_images = &versions.v1.test.images;
    let reference = soak::remix();

    // Pool: inputs v1's constituents disagree on — they pay the XAI cost, so
    // the stream actually exercises the engines the swap must not stall.
    let mut pool: Vec<Vec<f32>> = Vec::new();
    let mut ref_v1: Vec<String> = Vec::new();
    let mut ref_v2: Vec<String> = Vec::new();
    for image in test_images {
        let outs = local_v1.outputs(image);
        let first = outs[0].pred;
        if outs.iter().all(|o| o.pred == first) {
            continue;
        }
        ref_v1.push(verdict_fragment(&reference.predict(&mut local_v1, image)));
        ref_v2.push(verdict_fragment(&reference.predict(&mut local_v2, image)));
        pool.push(image.data().to_vec());
    }
    assert!(
        pool.len() >= 8,
        "only {} disagreement inputs — retune the ensemble",
        pool.len()
    );
    assert_ne!(ref_v1, ref_v2, "v1 and v2 must disagree somewhere");
    println!(
        "pool: {} disagreement inputs out of {} test images",
        pool.len(),
        test_images.len()
    );

    let server = versions.serve_v1(ServeConfig {
        max_batch: 16,
        batch_window: Duration::from_micros(500),
        queue_capacity: 4096,
        shards: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let mut control = Client::connect(addr).expect("control connection");

    let matches_either = |replies: &[(usize, ClientReply)]| {
        replies.iter().all(|(idx, r)| {
            !r.degraded && (r.verdict_json == ref_v1[*idx] || r.verdict_json == ref_v2[*idx])
        })
    };

    let mut dropped_requests = 0u64;
    let mut errored_requests = 0u64;
    let mut swaps = Vec::new();

    // Byte-identity gates before any churn.
    // No-op swap: same version; the verdict bytes before and after must be
    // identical (the swap is real — replicas reload — but the bits are not
    // allowed to change).
    let probe = pool[0].clone();
    let before = control.predict(&probe, Some(60_000), true).expect("probe");
    swap_to(&mut control, "1.0.0", &mut swaps);
    let after = control.predict(&probe, Some(60_000), true).expect("probe");
    let noop_identical = before.status == 200
        && after.status == 200
        && before.verdict_json == ref_v1[0]
        && after.verdict_json == before.verdict_json;
    println!("no-op swap byte-identical: {noop_identical}");

    // Cache generations: warm the probe under v1, swap to v2 (the entry must
    // be unreachable: a miss that recomputes v2's bytes), swap back (the v1
    // entry must be reachable again — a hit replaying the original bytes).
    let cold = control.predict(&probe, Some(60_000), false).expect("probe");
    let warm = control.predict(&probe, Some(60_000), false).expect("probe");
    swap_to(&mut control, "2.0.0", &mut swaps);
    let crossed = control.predict(&probe, Some(60_000), false).expect("probe");
    swap_to(&mut control, "1.0.0", &mut swaps);
    let revived = control.predict(&probe, Some(60_000), false).expect("probe");
    let cache_generation_isolated = !cold.cached
        && warm.cached
        && warm.verdict_json == ref_v1[0]
        && !crossed.cached
        && crossed.verdict_json == ref_v2[0]
        && revived.cached
        && revived.verdict_json == ref_v1[0];
    println!("cache generations isolated across swap and swap-back: {cache_generation_isolated}");

    // Steady phase: `rounds` rounds of pure load on v1, no swaps. The summed
    // wall is the churn phase's denominator.
    let mut steady_wall = Duration::ZERO;
    let mut v1_identical = true;
    for _ in 0..rounds {
        let load = soak::load(addr, &pool, concurrency, per_client, Some(60_000), true);
        v1_identical &= soak::served_references(&load.replies, &ref_v1);
        steady_wall += load.wall;
        dropped_requests += load.dropped;
        errored_requests += load.errored;
    }
    let phase_requests = concurrency * per_client * rounds;
    let steady_rps = phase_requests as f64 / steady_wall.as_secs_f64();
    println!(
        "steady: {phase_requests} requests in {steady_wall:?} = {steady_rps:.1} rps, \
         v1-identical: {v1_identical}"
    );

    // Churn phase: the same stream, but every round runs with a concurrent
    // v1 → v2 → v1 double swap in flight. Every reply must still be 200 and
    // byte-exact for *some* published version — a request caught mid-flip
    // legitimately drains on the old replicas or lands on the new ones, but
    // nothing in between exists.
    let mut churn_wall = Duration::ZERO;
    let mut churn_identical = true;
    for _ in 0..rounds {
        let load = thread::scope(|scope| {
            let load = scope
                .spawn(|| soak::load(addr, &pool, concurrency, per_client, Some(60_000), true));
            for version in ["2.0.0", "1.0.0"] {
                swap_to(&mut control, version, &mut swaps);
            }
            load.join().expect("churn load panicked")
        });
        churn_identical &= matches_either(&load.replies);
        churn_wall += load.wall;
        dropped_requests += load.dropped;
        errored_requests += load.errored;
    }
    let churn_rps = phase_requests as f64 / churn_wall.as_secs_f64();
    let speedup_churn_vs_steady = churn_rps / steady_rps;
    println!(
        "churn:  {phase_requests} requests in {churn_wall:?} = {churn_rps:.1} rps \
         ({speedup_churn_vs_steady:.2}x of steady), every reply a published version: \
         {churn_identical}"
    );

    // Post-churn: the server is back on v1; swap to v2 and verify
    // steady-state v2 byte-identity against the local reference.
    swap_to(&mut control, "2.0.0", &mut swaps);
    let load = soak::load(
        addr,
        &pool,
        concurrency.min(4),
        per_client,
        Some(60_000),
        true,
    );
    let v2_identical = !load.replies.is_empty() && soak::served_references(&load.replies, &ref_v2);
    dropped_requests += load.dropped;
    errored_requests += load.errored;
    println!("post-swap v2 byte-identical: {v2_identical}");

    let (mut prepare_us, mut flip_us): (Vec<f64>, Vec<f64>) = swaps.into_iter().unzip();
    prepare_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    flip_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let swaps = flip_us.len();
    let [prepare_p50, prepare_p99, flip_p50, flip_p99] = [
        soak::percentile(&prepare_us, 0.50),
        soak::percentile(&prepare_us, 0.99),
        soak::percentile(&flip_us, 0.50),
        soak::percentile(&flip_us, 0.99),
    ];
    println!(
        "{swaps} swaps: prepare p50 {prepare_p50:.0} us / p99 {prepare_p99:.0} us, \
         flip p50 {flip_p50:.0} us / p99 {flip_p99:.0} us"
    );
    println!("dropped: {dropped_requests}, errored: {errored_requests}");

    write_record(
        "bench_swap.json",
        &Record {
            benchmark: "bench_swap",
            scale,
            model: MODEL,
            pool_inputs: pool.len(),
            concurrency,
            rounds,
            requests_per_phase: phase_requests,
            host_cores: remix_parallel::num_threads(),
            swaps,
            steady: Throughput {
                wall_secs: round(steady_wall.as_secs_f64(), 3),
                rps: round(steady_rps, 3),
            },
            churn: Throughput {
                wall_secs: round(churn_wall.as_secs_f64(), 3),
                rps: round(churn_rps, 3),
            },
            speedup_churn_vs_steady: round(speedup_churn_vs_steady, 3),
            swap_prepare_p50_us: prepare_p50,
            swap_prepare_p99_us: prepare_p99,
            swap_flip_p50_us: flip_p50,
            swap_flip_p99_us: flip_p99,
            dropped_requests,
            errored_requests,
            noop_identical,
            v1_identical,
            v2_identical,
            churn_identical,
            cache_generation_isolated,
        },
    );

    drop(server);

    assert_eq!(dropped_requests, 0, "requests dropped during swaps");
    assert_eq!(errored_requests, 0, "transport errors during swaps");
    assert!(noop_identical, "no-op swap changed verdict bytes");
    assert!(
        v1_identical,
        "steady v1 verdicts diverged from Remix::predict"
    );
    assert!(
        v2_identical,
        "post-swap v2 verdicts diverged from Remix::predict"
    );
    assert!(
        churn_identical,
        "a mid-swap verdict matched neither version"
    );
    assert!(
        cache_generation_isolated,
        "cache generations leaked across swaps"
    );
}
