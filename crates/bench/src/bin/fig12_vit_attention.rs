//! Fig. 12 (discussion): applying ReMIX to an ensemble of Vision
//! Transformers by reading attention scores directly — no post-hoc XAI step.
//!
//! Three MiniViTs with different patch/embedding configurations are trained
//! on the MNIST analogue; their attention maps play the role of feature
//! matrices and the usual diversity metrics compare them.

use rand::{rngs::StdRng, SeedableRng};
use remix_bench::{viz, Scale};
use remix_data::{Dataset, SyntheticSpec};
use remix_diversity::DiversityMetric;
use remix_nn::attention::MiniVit;
use remix_nn::{cross_entropy, Layer, Mode, Optimizer, Sgd, Wants};
use remix_tensor::Tensor;

/// Minimal mini-batch training loop for a bare MiniViT layer (per-sample
/// steps at this learning rate diverge; batching + gradient clipping mirrors
/// the main `Trainer`): the training set in order, each batch one
/// lane-major forward/backward.
fn train_vit(vit: &mut MiniVit, train: &Dataset, epochs: usize) {
    const BATCH: usize = 16;
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    for _ in 0..epochs {
        for (images, labels) in train.images.chunks(BATCH).zip(train.labels.chunks(BATCH)) {
            vit.zero_grads();
            let logits = vit
                .forward_lanes(
                    Tensor::stack_lanes(images).expect("same-shape images"),
                    Mode::Train,
                )
                .expect("images match the MiniViT");
            let grads: Vec<Tensor> = logits
                .unstack_lanes()
                .iter()
                .zip(labels)
                .map(|(logit, &label)| cross_entropy(logit, label).1)
                .collect();
            vit.backward_lanes(
                Tensor::stack_lanes(&grads).expect("one gradient per lane"),
                Wants::Params,
            )
            .expect("gradients match the logits");
            step_clipped(vit, &mut opt, images.len());
        }
    }
}

/// Eval-mode logits of `images`, one lane each.
fn logits(vit: &mut MiniVit, images: &[Tensor]) -> Vec<Tensor> {
    vit.forward_lanes(
        Tensor::stack_lanes(images).expect("same-shape images"),
        Mode::Eval,
    )
    .expect("images match the MiniViT")
    .unstack_lanes()
}

fn step_clipped(vit: &mut MiniVit, opt: &mut Sgd, batch: usize) {
    let mut scale = 1.0 / batch as f32;
    let mut sq = 0.0f32;
    vit.visit_params(&mut |_, g| sq += g.data().iter().map(|v| v * v).sum::<f32>());
    let norm = sq.sqrt() * scale;
    if norm > 5.0 {
        scale *= 5.0 / norm;
    }
    opt.step(vit, scale);
}

fn accuracy(vit: &mut MiniVit, test: &Dataset) -> f32 {
    let correct = logits(vit, &test.images)
        .iter()
        .zip(&test.labels)
        .filter(|(y, &l)| y.argmax().expect("logits") == l)
        .count();
    correct as f32 / test.len() as f32
}

fn main() {
    let scale = Scale::from_env();
    let (train, test) = SyntheticSpec::mnist_like()
        .train_size(scale.train_size.min(500))
        .test_size(60)
        .generate();
    let configs = [(4usize, 12usize), (8, 16), (4, 8)];
    println!("Fig. 12 — ReMIX on a MiniViT ensemble (attention as feature space)\n");
    let mut vits: Vec<MiniVit> = configs
        .iter()
        .enumerate()
        .map(|(i, &(patch, embed))| {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let mut vit = MiniVit::new(1, 16, patch, embed, 10, &mut rng);
            train_vit(&mut vit, &train, scale.epochs + 10);
            vit
        })
        .collect();
    for (i, vit) in vits.iter_mut().enumerate() {
        println!(
            "MiniViT-{i} (patch {:>2}, embed {:>2}, {:>5} params): test acc {:.2}",
            configs[i].0,
            configs[i].1,
            vit.param_count(),
            accuracy(vit, &test)
        );
    }
    // attention maps on one test input are the "feature matrices"
    let img = &test.images[0];
    let maps: Vec<remix_tensor::Tensor> = vits
        .iter_mut()
        .map(|vit| {
            logits(vit, std::slice::from_ref(img));
            vit.attention_map()
        })
        .collect();
    let mut panels: Vec<(String, &remix_tensor::Tensor)> = vec![("input".into(), img)];
    for (i, m) in maps.iter().enumerate() {
        panels.push((format!("ViT-{i} attn"), m));
    }
    let refs: Vec<(&str, &remix_tensor::Tensor)> =
        panels.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    println!("\n{}", viz::ascii_row(&refs));
    println!("pairwise attention-map diversity (cosine distance):");
    for i in 0..maps.len() {
        for j in (i + 1)..maps.len() {
            println!(
                "  ViT-{i} vs ViT-{j}: {:.3}",
                DiversityMetric::CosineDistance.distance(&maps[i], &maps[j])
            );
        }
    }
    println!("\nPaper: ViT attention scores can replace the post-hoc XAI step in ReMIX,");
    println!("feeding the same diversity metrics without a separate explanation pass.");
}
