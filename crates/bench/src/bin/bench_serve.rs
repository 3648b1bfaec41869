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
//!   compared byte-for-byte against [`Remix::predict`] on a local replica of
//!   the ensemble (`verdicts_identical`).
//! * **verdict cache** — a hit-heavy phase checks that cached replies replay
//!   the reference bytes (`cache_identical`) and reports the hit rate.
//! * **deadline degradation** — a `deadline_ms = 0` phase checks that every
//!   disagreement falls back to the deterministic majority vote
//!   (`degraded_deterministic`).
//! * **shard scaling** — the same stream against 1 engine shard and against
//!   `min(host_cores, 4)` shards; `speedup_shards_vs_one` is the summed-wall
//!   ratio and `shard_verdicts_identical` re-asserts byte-identity with the
//!   backend sharded. On a single-core host the honest ratio is ~1.0, so the
//!   record carries `host_cores` and `check_serve` applies its absolute
//!   scaling floor only to multi-core runs.
//!
//! The request pool is all-disagreement (models trained on increasingly
//! mislabelled data), because disagreements are what pay the XAI cost that
//! micro-batching amortizes — a unanimous stream would measure only HTTP
//! overhead. Writes `results/bench_serve.json`; `bench_check` gates the
//! speedup ratio and the three identity flags against the committed baseline.

use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_core::{Remix, RemixVerdict};
use remix_data::SyntheticSpec;
use remix_ensemble::{majority_with_weights, TrainedEnsemble};
use remix_nn::layers::{Dense, Flatten, Relu};
use remix_nn::{InputSpec, Model, Sequential, Trainer, TrainerConfig};
use remix_serve::{verdict_fragment, Client, ClientReply, ServeConfig, Server};
use remix_tensor::Tensor;
use remix_xai::{ExplainerConfig, XaiBudget};
use std::io::Write;
use std::thread;
use std::time::{Duration, Instant};

/// Load profile; `REMIX_SCALE=paper` doubles the stream.
struct LoadScale {
    name: &'static str,
    concurrency: usize,
    requests_per_client: usize,
}

impl LoadScale {
    fn from_env() -> Self {
        match std::env::var("REMIX_SCALE").as_deref() {
            Ok("paper") => LoadScale {
                name: "paper",
                concurrency: 16,
                requests_per_client: 80,
            },
            _ => LoadScale {
                name: "quick",
                concurrency: 8,
                requests_per_client: 40,
            },
        }
    }
}

fn corrupt_labels(labels: &[usize], num_classes: usize, fraction: f32, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    labels
        .iter()
        .map(|&label| {
            if rng.gen::<f32>() < fraction {
                rng.gen_range(0..num_classes)
            } else {
                label
            }
        })
        .collect()
}

/// Trains the served ensemble: three tabular MLPs on 0 %/30 %/50 %
/// mislabelled labels (the paper's faulty-training-data lever), fully seeded
/// so a second call produces a bit-identical local replica.
fn trained_ensemble() -> (TrainedEnsemble, Vec<Tensor>) {
    let (train, test) = SyntheticSpec::tabular_like()
        .train_size(400)
        .test_size(128)
        .generate();
    let spec = InputSpec {
        channels: 1,
        size: 4,
        num_classes: train.num_classes,
    };
    let configs: [(&str, &[usize], f32); 3] = [
        ("MLP-wide", &[128], 0.0),
        ("MLP-deep", &[96, 64], 0.3),
        ("MLP-drop", &[96], 0.5),
    ];
    let models = configs
        .iter()
        .enumerate()
        .map(|(i, (name, hidden, noise))| {
            let mut init = StdRng::seed_from_u64(i as u64 + 1);
            let mut net = Sequential::new();
            net.push(Flatten::new());
            let mut dim = spec.channels * spec.size * spec.size;
            for &h in *hidden {
                net.push(Dense::new(dim, h, &mut init));
                net.push(Relu::new());
                dim = h;
            }
            net.push(Dense::new(dim, train.num_classes, &mut init));
            let mut model = Model::named(net, spec, *name);
            let labels = corrupt_labels(&train.labels, train.num_classes, *noise, 70 + i as u64);
            Trainer::new(TrainerConfig {
                epochs: 8,
                lr: 0.03,
                seed: i as u64,
                ..TrainerConfig::default()
            })
            .fit(&mut model, &train.images, &labels);
            model
        })
        .collect();
    (TrainedEnsemble::new(models), test.images)
}

/// The ReMIX configuration served and replicated locally. Must be built
/// identically in both places for the byte-identity comparison to be fair.
/// Eight SmoothGrad samples against a 64-wide budget: a lone request can
/// only fill an eighth of a gradient sweep, so coalesced requests run
/// markedly wider sweeps than the serial baseline can.
fn remix() -> Remix {
    let config = ExplainerConfig {
        budget: XaiBudget {
            sg_samples: 8,
            batch_size: 64,
            ..XaiBudget::default()
        },
        ..ExplainerConfig::default()
    };
    Remix::builder()
        .seed(11)
        .threads(1)
        .explainer_config(config)
        .build()
}

/// Fires `concurrency` keep-alive clients, each sending
/// `requests_per_client` requests round-robin over the pool. Returns the
/// wall time and every `(pool_index, reply)`.
fn run_phase(
    addr: std::net::SocketAddr,
    pool: &[Vec<f32>],
    concurrency: usize,
    requests_per_client: usize,
    deadline_ms: Option<u64>,
    no_cache: bool,
) -> (Duration, Vec<(usize, ClientReply)>) {
    let started = Instant::now();
    let workers: Vec<_> = (0..concurrency)
        .map(|c| {
            let pool = pool.to_vec();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect to bench server");
                let mut replies = Vec::with_capacity(requests_per_client);
                for r in 0..requests_per_client {
                    let idx = (c + r * 7) % pool.len();
                    let reply = client
                        .predict(&pool[idx], deadline_ms, no_cache)
                        .expect("bench request");
                    assert_eq!(reply.status, 200, "bench request failed: {}", reply.body);
                    replies.push((idx, reply));
                }
                replies
            })
        })
        .collect();
    let mut replies = Vec::new();
    for worker in workers {
        replies.extend(worker.join().expect("bench client panicked"));
    }
    (started.elapsed(), replies)
}

fn fmt_f(v: f64) -> String {
    format!("{v:.3}")
}

fn main() {
    let scale = LoadScale::from_env();
    let total_requests = scale.concurrency * scale.requests_per_client;
    println!(
        "bench_serve [{}]: {} clients x {} requests",
        scale.name, scale.concurrency, scale.requests_per_client
    );

    let (_, test_images) = trained_ensemble();
    let (mut local, _) = trained_ensemble();

    // Pool: disagreement inputs only — they pay the XAI cost that batching
    // amortizes. Reference fragments come from the local replica.
    let reference = remix();
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

    let identical = |replies: &[(usize, ClientReply)]| {
        replies
            .iter()
            .all(|(idx, r)| !r.degraded && r.verdict_json == reference_fragments[*idx])
    };
    let long_deadline = Some(60_000);

    // Phases 1+2: serial baseline (one request per engine pass, no
    // batching, no cache — what serving without the micro-batcher would do)
    // vs the dynamic micro-batcher, same stream. Each phase runs `ROUNDS`
    // times and the gated ratio compares the *summed* wall times: scheduler
    // noise in any one round lands on both sums instead of swinging a
    // single-shot ratio.
    const ROUNDS: usize = 3;
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
    let mut serial_wall = Duration::ZERO;
    let mut batched_wall = Duration::ZERO;
    let mut serial_identical = true;
    let mut batched_identical = true;

    // Both servers stay up for all rounds and the rounds interleave
    // (serial, batched, serial, ...), so host-speed drift during the run
    // hits both sides of the gated ratio equally.
    let (ensemble, _) = trained_ensemble();
    let serial_server =
        Server::start(ensemble, remix(), serial_config).expect("start serial server");
    let (ensemble, _) = trained_ensemble();
    let batched_server =
        Server::start(ensemble, remix(), batched_config).expect("start batched server");
    for _ in 0..ROUNDS {
        let (wall, replies) = run_phase(
            serial_server.addr(),
            &pool,
            scale.concurrency,
            scale.requests_per_client,
            long_deadline,
            true,
        );
        serial_identical &= identical(&replies);
        serial_wall += wall;

        let (wall, replies) = run_phase(
            batched_server.addr(),
            &pool,
            scale.concurrency,
            scale.requests_per_client,
            long_deadline,
            true,
        );
        batched_identical &= identical(&replies);
        batched_wall += wall;
    }
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
    let verdicts_identical = serial_identical && batched_identical;

    // Phase 3: verdict cache — batching plus a warm cache over the same
    // pool; most requests are repeats, so most replies are replays.
    let (ensemble, _) = trained_ensemble();
    let cache_config = ServeConfig {
        max_batch: 16,
        batch_window: Duration::from_micros(500),
        queue_capacity: 4096,
        shards: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(ensemble, remix(), cache_config).expect("start cache server");
    let (cache_wall, cache_replies) = run_phase(
        server.addr(),
        &pool,
        scale.concurrency,
        scale.requests_per_client,
        long_deadline,
        false,
    );
    let cache_identical = identical(&cache_replies);
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
    let (ensemble, _) = trained_ensemble();
    let degraded_config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(ensemble, remix(), degraded_config).expect("start degraded server");
    let degraded_count = scale.requests_per_client.min(pool.len());
    let (_, degraded_replies) = run_phase(
        server.addr(),
        &pool,
        scale.concurrency.min(4),
        degraded_count,
        Some(0),
        true,
    );
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
    // a saturation study). Interleaved rounds with summed walls, like
    // phases 1+2, so host-speed drift cancels out of the ratio. The core
    // budget honors REMIX_THREADS (CI pins it to the runner's core count) so
    // the recorded `host_cores` states what the run actually had to scale on.
    let host_cores = remix_parallel::num_threads();
    let shard_count = host_cores.clamp(2, 4);
    let shard_base = ServeConfig {
        max_batch: 16,
        batch_window: Duration::from_micros(500),
        cache_capacity: 0,
        queue_capacity: 4096,
        ..ServeConfig::default()
    };
    let (ensemble, _) = trained_ensemble();
    let one_server = Server::start(
        ensemble,
        remix(),
        ServeConfig {
            shards: 1,
            ..shard_base.clone()
        },
    )
    .expect("start 1-shard server");
    let (ensemble, _) = trained_ensemble();
    let n_server = Server::start(
        ensemble,
        remix(),
        ServeConfig {
            shards: shard_count,
            ..shard_base
        },
    )
    .expect("start n-shard server");
    let mut one_wall = Duration::ZERO;
    let mut n_wall = Duration::ZERO;
    let mut shard_verdicts_identical = true;
    for _ in 0..ROUNDS {
        let (wall, replies) = run_phase(
            one_server.addr(),
            &pool,
            scale.concurrency,
            scale.requests_per_client,
            long_deadline,
            true,
        );
        shard_verdicts_identical &= identical(&replies);
        one_wall += wall;

        let (wall, replies) = run_phase(
            n_server.addr(),
            &pool,
            scale.concurrency,
            scale.requests_per_client,
            long_deadline,
            true,
        );
        shard_verdicts_identical &= identical(&replies);
        n_wall += wall;
    }
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

    let record = format!(
        "{{\n  \"benchmark\": \"bench_serve\",\n  \"scale\": \"{}\",\n  \"models\": 3,\n  \"pool_inputs\": {},\n  \"concurrency\": {},\n  \"total_requests\": {},\n  \"host_cores\": {host_cores},\n  \"serial\": {{\"wall_secs\": {}, \"rps\": {}}},\n  \"batched\": {{\"wall_secs\": {}, \"rps\": {}, \"mean_batch_occupancy\": {}}},\n  \"speedup_batched_vs_serial\": {},\n  \"cache\": {{\"rps\": {}, \"hits\": {cache_hits}, \"hit_rate\": {}}},\n  \"degraded\": {{\"requests\": {}, \"degraded\": {degraded_total}}},\n  \"shard_scaling\": {{\"shards\": {shard_count}, \"one_shard_wall_secs\": {}, \"n_shard_wall_secs\": {}}},\n  \"speedup_shards_vs_one\": {},\n  \"verdicts_identical\": {verdicts_identical},\n  \"cache_identical\": {cache_identical},\n  \"degraded_deterministic\": {degraded_deterministic},\n  \"shard_verdicts_identical\": {shard_verdicts_identical}\n}}\n",
        scale.name,
        pool.len(),
        scale.concurrency,
        total_requests,
        fmt_f(serial_wall.as_secs_f64()),
        fmt_f(serial_rps),
        fmt_f(batched_wall.as_secs_f64()),
        fmt_f(batched_rps),
        fmt_f(occupancy),
        fmt_f(speedup),
        fmt_f(cache_rps),
        fmt_f(hit_rate),
        degraded_replies.len(),
        fmt_f(one_wall.as_secs_f64()),
        fmt_f(n_wall.as_secs_f64()),
        fmt_f(shard_speedup),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    let mut file =
        std::fs::File::create("results/bench_serve.json").expect("create results/bench_serve.json");
    file.write_all(record.as_bytes())
        .expect("write results/bench_serve.json");
    println!("Record written to results/bench_serve.json");

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
