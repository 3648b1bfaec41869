//! The contract of `Remix::predict_batch`, the one implementation of the
//! ReMIX stages: a batch that mixes every kind of verdict returns, for each
//! input, exactly what `Remix::predict` returns for that input alone —
//! whatever the batch order or thread count — and the two serving decisions
//! a `BatchPolicy` carries (deadlines, a sweep-unit allowance) change only
//! the verdicts they are documented to change.

use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_core::{BatchPolicy, Remix, RemixVerdict, TriageScheduler};
use remix_data::SyntheticSpec;
use remix_ensemble::{majority_with_weights, TrainedEnsemble};
use remix_nn::layers::{Dense, Flatten, Relu};
use remix_nn::{InputSpec, Model, Sequential, Trainer, TrainerConfig};
use remix_tensor::Tensor;
use remix_xai::XaiLevel;
use std::time::{Duration, Instant};

/// Five small MLPs trained on increasingly mislabelled tabular data (the
/// paper's faulty training data). Five members, because the adaptive
/// scheduler's Fano bound never skips a 2-of-3 split: here the splits range
/// from a lopsided 4-of-5, which it skips, to ambiguous ones it explains.
fn small_ensemble() -> (TrainedEnsemble, Vec<Tensor>) {
    let (train, test) = SyntheticSpec::tabular_like()
        .train_size(400)
        .test_size(160)
        .generate();
    let spec = InputSpec {
        channels: 1,
        size: 4,
        num_classes: train.num_classes,
    };
    let configs: [(&str, &[usize], f32); 5] = [
        ("mlp-wide", &[128], 0.0),
        ("mlp-deep", &[96, 64], 0.1),
        ("mlp-mid", &[64], 0.2),
        ("mlp-narrow", &[32], 0.3),
        ("mlp-noisy", &[96], 0.5),
    ];
    let models = configs
        .iter()
        .enumerate()
        .map(|(i, (name, hidden, noise))| {
            let mut init = StdRng::seed_from_u64(1 + i as u64);
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
            let mut flip = StdRng::seed_from_u64(70 + i as u64);
            let labels: Vec<usize> = train
                .labels
                .iter()
                .map(|&label| {
                    if flip.gen::<f32>() < *noise {
                        flip.gen_range(0..train.num_classes)
                    } else {
                        label
                    }
                })
                .collect();
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

fn adaptive(threads: usize) -> Remix {
    Remix::builder()
        .seed(11)
        .threads(threads)
        .scheduler(TriageScheduler::adaptive())
        .build()
}

/// Everything a verdict decides, floats as raw bits (timings excluded).
type Bits = (
    Option<usize>,
    bool,
    bool,
    bool,
    XaiLevel,
    Option<[u32; 3]>,
    Vec<(String, usize, [u32; 4])>,
);

fn bits(v: &RemixVerdict) -> Bits {
    (
        v.prediction.class(),
        v.unanimous,
        v.degraded,
        v.downgraded,
        v.xai_level,
        v.signals.map(|s| {
            [
                s.margin.to_bits(),
                s.entropy.to_bits(),
                s.predicted_error.to_bits(),
            ]
        }),
        v.details
            .iter()
            .map(|d| {
                (
                    d.name.clone(),
                    d.pred,
                    [
                        d.confidence.to_bits(),
                        d.diversity.to_bits(),
                        d.sparseness.to_bits(),
                        d.weight.to_bits(),
                    ],
                )
            })
            .collect(),
    )
}

/// Runs one batch and returns the verdicts in delivery order.
fn run(
    remix: &Remix,
    ensemble: &mut TrainedEnsemble,
    images: &[Tensor],
    policy: &BatchPolicy,
) -> Vec<(usize, RemixVerdict)> {
    let mut delivered = Vec::new();
    remix.predict_batch(ensemble, images, policy, |k, v| delivered.push((k, v)));
    let mut seen: Vec<usize> = delivered.iter().map(|&(k, _)| k).collect();
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..images.len()).collect::<Vec<_>>(),
        "one verdict per input"
    );
    delivered
}

/// Picks a batch from the test set with unanimous inputs, scheduler Skips,
/// and at least one XAI rung holding two or more inputs (so a rung group
/// really coalesces), interleaved so no kind sits in a block.
fn mixed_batch(ensemble: &mut TrainedEnsemble, images: &[Tensor]) -> Vec<Tensor> {
    let scheduler = TriageScheduler::adaptive();
    let mut by_kind: [Vec<Tensor>; 5] = Default::default();
    for image in images {
        let outs = ensemble.outputs(image);
        let slot = if outs.iter().all(|o| o.pred == outs[0].pred) {
            0
        } else {
            match scheduler.assess(&outs).0 {
                XaiLevel::Skip => 1,
                XaiLevel::Light => 2,
                XaiLevel::Standard => 3,
                XaiLevel::Full => 4,
            }
        };
        if by_kind[slot].len() < 3 {
            by_kind[slot].push(image.clone());
        }
    }
    let counts: Vec<usize> = by_kind.iter().map(Vec::len).collect();
    assert!(
        counts[0] >= 1 && counts[1] >= 1 && counts[2..].iter().any(|&c| c >= 2),
        "test set lacks a mixed batch (unanimous, skip, light, standard, full): {counts:?}"
    );
    let mut batch = Vec::new();
    for round in 0..3 {
        for kind in &by_kind {
            if let Some(image) = kind.get(round) {
                batch.push(image.clone());
            }
        }
    }
    batch
}

#[test]
fn batched_verdicts_equal_predict_for_any_order_and_thread_count() {
    let (mut ensemble, images) = small_ensemble();
    let batch = mixed_batch(&mut ensemble, &images);
    let reference = adaptive(1);
    let expected: Vec<Bits> = batch
        .iter()
        .map(|image| bits(&reference.predict(&mut ensemble, image)))
        .collect();

    // Far-off deadlines and an allowance above any bill must change nothing.
    let generous = BatchPolicy {
        deadlines: Some(vec![
            Instant::now() + Duration::from_secs(3600);
            batch.len()
        ]),
        allowance: Some(u64::MAX),
    };
    for threads in [1, 2] {
        for reversed in [false, true] {
            let mut order: Vec<usize> = (0..batch.len()).collect();
            if reversed {
                order.reverse();
            }
            let images: Vec<Tensor> = order.iter().map(|&i| batch[i].clone()).collect();
            for policy in [&BatchPolicy::default(), &generous] {
                let delivered = run(&adaptive(threads), &mut ensemble, &images, policy);
                let mut kinds = [false; 3];
                let mut xai_started = false;
                let mut last_level = XaiLevel::Skip;
                for (k, verdict) in &delivered {
                    let original = order[*k];
                    assert_eq!(
                        bits(verdict),
                        expected[original],
                        "input {original} (threads {threads}, reversed {reversed})"
                    );
                    assert_eq!(verdict.timings.threads, threads);
                    let xai = !verdict.details.is_empty();
                    // Cheap verdicts never wait behind an XAI sweep, and the
                    // rung groups resolve bottom-up.
                    assert!(xai || !xai_started, "a Skip verdict came after XAI");
                    if xai {
                        assert!(verdict.xai_level >= last_level, "rungs out of order");
                        last_level = verdict.xai_level;
                        xai_started = true;
                    }
                    kinds[if verdict.unanimous {
                        0
                    } else if xai {
                        2
                    } else {
                        1
                    }] = true;
                }
                assert_eq!(kinds, [true; 3], "unanimous, skip and XAI all occur");
            }
        }
    }
}

#[test]
fn expired_deadlines_degrade_disagreements_but_not_the_fast_path() {
    let (mut ensemble, images) = small_ensemble();
    let batch = mixed_batch(&mut ensemble, &images);
    for remix in [adaptive(1), Remix::builder().seed(11).threads(1).build()] {
        let expired = BatchPolicy {
            // The clock is read after the prediction stage, so a deadline of
            // "now" has passed by the time triage compares against it.
            deadlines: Some(vec![Instant::now(); batch.len()]),
            allowance: None,
        };
        let delivered = run(&remix, &mut ensemble, &batch, &expired);
        let mut degraded = 0;
        for (k, verdict) in &delivered {
            let outs = ensemble.outputs(&batch[*k]);
            if outs.iter().all(|o| o.pred == outs[0].pred) {
                assert_eq!(
                    bits(verdict),
                    bits(&remix.predict(&mut ensemble, &batch[*k])),
                    "a unanimous input must still take the fast path"
                );
                continue;
            }
            let vote = majority_with_weights(outs.iter().map(|o| (o.pred, 1.0)), outs.len() as f32);
            assert_eq!(verdict.prediction, vote);
            assert!(verdict.degraded && !verdict.unanimous && !verdict.downgraded);
            assert!(verdict.details.is_empty(), "no XAI ran");
            assert!(verdict.signals.is_none(), "triage never ran");
            assert_eq!(verdict.xai_level, XaiLevel::Skip);
            assert_eq!(verdict.timings.xai, Duration::ZERO);
            degraded += 1;
        }
        assert!(degraded >= 2, "the batch must hold disagreements");
    }
}

#[test]
fn a_zero_allowance_downgrades_every_xai_disagreement_to_skip() {
    let (mut ensemble, images) = small_ensemble();
    let batch = mixed_batch(&mut ensemble, &images);
    let remix = adaptive(1);
    let skip = Remix::builder()
        .seed(11)
        .threads(1)
        .scheduler(TriageScheduler::pinned(XaiLevel::Skip))
        .build();
    let broke = BatchPolicy {
        deadlines: None,
        allowance: Some(0),
    };
    let delivered = run(&remix, &mut ensemble, &batch, &broke);
    let mut downgraded = 0;
    for (k, verdict) in &delivered {
        let assigned = remix.predict(&mut ensemble, &batch[*k]).xai_level;
        let mut expected = bits(&skip.predict(&mut ensemble, &batch[*k]));
        // Pinned(Skip) assigns Skip itself; here the allowance moved it.
        expected.3 = assigned != XaiLevel::Skip;
        assert_eq!(bits(verdict), expected, "input {k}");
        assert_eq!(verdict.xai_level, XaiLevel::Skip);
        downgraded += usize::from(verdict.downgraded);
    }
    assert!(downgraded >= 2, "the batch must hold XAI disagreements");
}

#[test]
fn an_allowance_without_a_scheduler_changes_nothing() {
    let (mut ensemble, images) = small_ensemble();
    let batch = mixed_batch(&mut ensemble, &images);
    let remix = Remix::builder().seed(11).threads(1).build();
    let broke = BatchPolicy {
        deadlines: None,
        allowance: Some(0),
    };
    for (k, verdict) in run(&remix, &mut ensemble, &batch, &broke) {
        assert_eq!(
            bits(&verdict),
            bits(&remix.predict(&mut ensemble, &batch[k]))
        );
        assert!(!verdict.downgraded);
    }
}
