//! `bench_serve`: load generator for the `remix-serve` inference service.
//!
//! Drives a live server over real TCP with concurrent keep-alive clients and
//! measures the serving pillars (DESIGN.md §6h):
//!
//! * **serial vs micro-batched throughput** — the same request stream against
//!   `max_batch = 1` (one verdict at a time, the pre-serving baseline) and
//!   against the dynamic micro-batcher; the within-run ratio
//!   `speedup_batched_vs_serial` is the gated metric.
//! * **bit-identity under load** — every non-degraded verdict fragment is
//!   compared byte-for-byte against
//!   [`Remix::predict`](remix_core::Remix::predict) on a local replica of the
//!   ensemble (`verdicts_identical`).
//! * **verdict cache** — a hit-heavy phase checks that cached replies replay
//!   the reference bytes (`cache_identical`) and reports the hit rate.
//! * **deadline degradation** — a `deadline_ms = 0` phase checks that every
//!   disagreement falls back to the deterministic majority vote
//!   (`degraded_deterministic`).
//! * **shard scaling** — the same stream against 1 engine shard and against
//!   `min(host_cores, 4)` shards; `speedup_shards_vs_one` is the summed-wall
//!   ratio and `shard_verdicts_identical` re-asserts byte-identity with the
//!   backend sharded. On a single-core host the honest ratio is ~1.0, so the
//!   record carries `host_cores` and the `serve/shard_min_scaling` gate
//!   applies its absolute floor only to multi-core runs.
//!
//! The request pool is all-disagreement (models trained on increasingly
//! mislabelled data), because disagreements are what pay the XAI cost that
//! micro-batching amortizes — a unanimous stream would measure only HTTP
//! overhead. Writes `results/bench_serve.json`; `bench_check` gates both
//! speedup ratios and the four identity flags against the committed baseline.

use remix_bench::soak::{self, Load};
use remix_bench::{round, write_record, Scale};
use remix_core::RemixVerdict;
use remix_ensemble::majority_with_weights;
use remix_serve::{verdict_fragment, ClientReply, ServeConfig, Server};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Record {
    benchmark: &'static str,
    scale: &'static str,
    models: usize,
    pool_inputs: usize,
    concurrency: usize,
    total_requests: usize,
    host_cores: usize,
    serial: Throughput,
    batched: Batched,
    speedup_batched_vs_serial: f64,
    cache: Cache,
    degraded: Degraded,
    shard_scaling: ShardScaling,
    speedup_shards_vs_one: f64,
    verdicts_identical: bool,
    cache_identical: bool,
    degraded_deterministic: bool,
    shard_verdicts_identical: bool,
}

#[derive(Serialize)]
struct Throughput {
    wall_secs: f64,
    rps: f64,
}

#[derive(Serialize)]
struct Batched {
    wall_secs: f64,
    rps: f64,
    mean_batch_occupancy: f64,
}

#[derive(Serialize)]
struct Cache {
    rps: f64,
    hits: u64,
    hit_rate: f64,
}

#[derive(Serialize)]
struct Degraded {
    requests: usize,
    degraded: u64,
}

#[derive(Serialize)]
struct ShardScaling {
    shards: usize,
    one_shard_wall_secs: f64,
    n_shard_wall_secs: f64,
}

/// One phase's replies, after asserting that none was lost: every serving
/// contract here is measured on a stream that is served in full.
fn served(load: Load) -> (Duration, Vec<(usize, ClientReply)>) {
    assert_eq!(
        (load.dropped, load.errored),
        (0, 0),
        "bench requests failed (non-200, transport)"
    );
    (load.wall, load.replies)
}

fn main() {
    let scale = Scale::from_env().name;
    let (concurrency, per_client) = if scale == "paper" { (16, 80) } else { (8, 40) };
    let total_requests = concurrency * per_client;
    println!("bench_serve [{scale}]: {concurrency} clients x {per_client} requests");

    // Three MLPs on 0 %/30 %/50 % mislabelled labels; every server below
    // gets its own clone, and `local` is the byte-identity replica.
    let ensemble = || soak::tabular([0.0, 0.3, 0.5], ["MLP-wide", "MLP-deep", "MLP-drop"], 128);
    let test_images = ensemble().test.images;
    let mut local = ensemble().ensemble;

    // Pool: disagreement inputs only — they pay the XAI cost that batching
    // amortizes. Reference fragments come from the local replica.
    let reference = soak::remix();
    let mut pool: Vec<Vec<f32>> = Vec::new();
    let mut reference_fragments: Vec<String> = Vec::new();
    let mut degraded_fragments: Vec<String> = Vec::new();
    for image in &test_images {
        let outs = local.outputs(image);
        let first = outs[0].pred;
        if outs.iter().all(|o| o.pred == first) {
            continue;
        }
        let vote = majority_with_weights(outs.iter().map(|o| (o.pred, 1.0)), outs.len() as f32);
        degraded_fragments.push(verdict_fragment(&RemixVerdict {
            degraded: true,
            ..RemixVerdict::unweighted(vote)
        }));
        reference_fragments.push(verdict_fragment(&reference.predict(&mut local, image)));
        pool.push(image.data().to_vec());
    }
    assert!(
        pool.len() >= 16,
        "only {} disagreement inputs — retune the ensemble",
        pool.len()
    );
    println!(
        "pool: {} disagreement inputs out of {} test images",
        pool.len(),
        test_images.len()
    );

    let start = |config| Server::start(ensemble().ensemble, soak::remix(), config);
    // Each comparison runs `ROUNDS` rounds per side and compares the *summed*
    // wall times: scheduler noise in any one round lands on both sums instead
    // of swinging a single-shot ratio. Both servers stay up for all rounds
    // and the rounds interleave (a, b, a, ...), so host-speed drift during
    // the run hits both sides of the ratio equally.
    const ROUNDS: usize = 3;
    let interleaved = |a: &Server, b: &Server| {
        let (mut walls, mut identical) = ([Duration::ZERO; 2], true);
        for _ in 0..ROUNDS {
            for (wall, server) in walls.iter_mut().zip([a, b]) {
                let load = soak::load(
                    server.addr(),
                    &pool,
                    concurrency,
                    per_client,
                    Some(60_000),
                    true,
                );
                let (phase_wall, replies) = served(load);
                identical &= soak::served_references(&replies, &reference_fragments);
                *wall += phase_wall;
            }
        }
        (walls, identical)
    };

    // Phases 1+2: serial baseline (one request per engine pass, no
    // batching, no cache — what serving without the micro-batcher would do)
    // vs the dynamic micro-batcher, same stream.
    // Every phase up to shard scaling pins `shards: 1` so each measures its
    // own lever (batching, cache, degradation) rather than the shard count.
    let serial_config = ServeConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        cache_capacity: 0,
        queue_capacity: 4096,
        shards: 1,
        ..ServeConfig::default()
    };
    let batched_config = ServeConfig {
        max_batch: 16,
        batch_window: Duration::from_micros(500),
        cache_capacity: 0,
        queue_capacity: 4096,
        shards: 1,
        ..ServeConfig::default()
    };
    let serial_server = start(serial_config).expect("start serial server");
    let batched_server = start(batched_config).expect("start batched server");
    let ([serial_wall, batched_wall], verdicts_identical) =
        interleaved(&serial_server, &batched_server);
    drop(serial_server);
    // Occupancy over all rounds: the server outlives them, so the counters
    // aggregate every batched request.
    let stats = batched_server.stats();
    let occupancy = if stats.batches == 0 {
        0.0
    } else {
        stats.batched_requests as f64 / stats.batches as f64
    };
    drop(batched_server);
    let total_phase_requests = total_requests * ROUNDS;
    let serial_rps = total_phase_requests as f64 / serial_wall.as_secs_f64();
    println!("serial:  {total_phase_requests} requests in {serial_wall:?} = {serial_rps:.1} rps");
    let batched_rps = total_phase_requests as f64 / batched_wall.as_secs_f64();
    let speedup = batched_rps / serial_rps;
    println!(
        "batched: {total_phase_requests} requests in {batched_wall:?} = {batched_rps:.1} rps \
         (mean occupancy {occupancy:.1}, speedup {speedup:.2}x)"
    );

    // Phase 3: verdict cache — batching plus a warm cache over the same
    // pool; most requests are repeats, so most replies are replays.
    let server = start(ServeConfig {
        max_batch: 16,
        batch_window: Duration::from_micros(500),
        queue_capacity: 4096,
        shards: 1,
        ..ServeConfig::default()
    })
    .expect("start cache server");
    let (cache_wall, cache_replies) = served(soak::load(
        server.addr(),
        &pool,
        concurrency,
        per_client,
        Some(60_000),
        false,
    ));
    let cache_identical = soak::served_references(&cache_replies, &reference_fragments);
    let cache_hits = server.stats().cache_hits;
    drop(server);
    let cache_rps = total_requests as f64 / cache_wall.as_secs_f64();
    let hit_rate = cache_hits as f64 / total_requests as f64;
    println!(
        "cache:   {total_requests} requests in {cache_wall:?} = {cache_rps:.1} rps \
         ({cache_hits} hits, {:.0}% hit rate)",
        hit_rate * 100.0
    );

    // Phase 4: deadline degradation — a zero deadline forces every
    // disagreement onto the majority-vote fallback, which must be
    // deterministic (byte-identical to the locally computed fallback).
    let server = start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    })
    .expect("start degraded server");
    let degraded_count = per_client.min(pool.len());
    let (_, degraded_replies) = served(soak::load(
        server.addr(),
        &pool,
        concurrency.min(4),
        degraded_count,
        Some(0),
        true,
    ));
    let degraded_deterministic = degraded_replies
        .iter()
        .all(|(idx, r)| r.degraded && r.verdict_json == degraded_fragments[*idx]);
    let degraded_total = server.stats().degraded;
    drop(server);
    println!(
        "degraded: {} of {} zero-deadline requests degraded, deterministic: {}",
        degraded_total,
        degraded_replies.len(),
        degraded_deterministic
    );

    // Phase 5: shard scaling — the batched stream against 1 engine shard vs
    // N shards (N capped at 4: the gate asks for *measurable* scaling, not
    // a saturation study), compared like phases 1+2. The recorded
    // `host_cores` is what the run actually had to scale on: the
    // REMIX_THREADS budget, but never more than the cores the host has, so
    // a 4-thread budget on a 2-core host records 2 and starts 2 shards.
    let host_cores = remix_parallel::num_threads()
        .min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let shard_count = host_cores.clamp(2, 4);
    let shard_config = |shards| ServeConfig {
        max_batch: 16,
        batch_window: Duration::from_micros(500),
        cache_capacity: 0,
        queue_capacity: 4096,
        shards,
        ..ServeConfig::default()
    };
    let one_server = start(shard_config(1)).expect("start 1-shard server");
    let n_server = start(shard_config(shard_count)).expect("start n-shard server");
    let ([one_wall, n_wall], shard_verdicts_identical) = interleaved(&one_server, &n_server);
    assert_eq!(
        n_server.stats().shards,
        shard_count as u64,
        "server must actually run the configured shard count"
    );
    drop(one_server);
    drop(n_server);
    let shard_speedup = one_wall.as_secs_f64() / n_wall.as_secs_f64();
    println!(
        "shards:  1 shard {one_wall:?} vs {shard_count} shards {n_wall:?} on {host_cores} \
         cores = {shard_speedup:.2}x, identical: {shard_verdicts_identical}"
    );

    write_record(
        "bench_serve.json",
        &Record {
            benchmark: "bench_serve",
            scale,
            models: 3,
            pool_inputs: pool.len(),
            concurrency,
            total_requests,
            host_cores,
            serial: Throughput {
                wall_secs: round(serial_wall.as_secs_f64(), 3),
                rps: round(serial_rps, 3),
            },
            batched: Batched {
                wall_secs: round(batched_wall.as_secs_f64(), 3),
                rps: round(batched_rps, 3),
                mean_batch_occupancy: round(occupancy, 3),
            },
            speedup_batched_vs_serial: round(speedup, 3),
            cache: Cache {
                rps: round(cache_rps, 3),
                hits: cache_hits,
                hit_rate: round(hit_rate, 3),
            },
            degraded: Degraded {
                requests: degraded_replies.len(),
                degraded: degraded_total,
            },
            shard_scaling: ShardScaling {
                shards: shard_count,
                one_shard_wall_secs: round(one_wall.as_secs_f64(), 3),
                n_shard_wall_secs: round(n_wall.as_secs_f64(), 3),
            },
            speedup_shards_vs_one: round(shard_speedup, 3),
            verdicts_identical,
            cache_identical,
            degraded_deterministic,
            shard_verdicts_identical,
        },
    );

    assert!(
        verdicts_identical,
        "served verdicts diverged from Remix::predict"
    );
    assert!(
        cache_identical,
        "cached verdicts diverged from Remix::predict"
    );
    assert!(
        degraded_deterministic,
        "degraded fallback was not deterministic"
    );
    assert!(
        shard_verdicts_identical,
        "sharded verdicts diverged from Remix::predict"
    );
}
