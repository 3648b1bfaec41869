//! Golden bits for the whole zoo: the logits, input gradients and trained
//! weights of every architecture, hashed and compared against constants
//! recorded before convolution stopped unfolding patch matrices.
//!
//! The other identity suites compare two paths of the *current* code
//! (batched vs per-sample, frozen vs unfrozen), which now share their conv
//! kernels — a change to those kernels moves both sides at once and passes.
//! These hashes pin the numbers themselves: any change to a single bit of a
//! logit, an input gradient or a trained weight fails here.

use rand::{rngs::StdRng, SeedableRng};
use remix_nn::{zoo, Arch, InputSpec, Layer, Model, Trainer, TrainerConfig};
use remix_tensor::{fnv1a64, Tensor};

const SPECS: [InputSpec; 2] = [
    InputSpec {
        channels: 3,
        size: 16,
        num_classes: 7,
    },
    InputSpec {
        channels: 3,
        size: 32,
        num_classes: 7,
    },
];

/// `fnv1a64` of every logit then every input gradient, per spec (rows, in
/// [`SPECS`] order) and architecture (columns, in [`Arch::ALL`] order).
const INFERENCE_GOLDEN: [[u64; 9]; 2] = [
    [
        0x094467b7bba1b5a4,
        0x88fad8cbf3c6cdeb,
        0xa9fe37b5cbcb06ac,
        0xc2c767117238d6f1,
        0x0ce354c61665a862,
        0x48a10ea30d2a13eb,
        0x6ee22d421ccb74f6,
        0x6a493ae31910803e,
        0x7388bf328f1ff98a,
    ],
    [
        0x11df0b27003f5053,
        0xc06fa58b14f8453f,
        0x0efe43c287ebac63,
        0xac6f541f03d02cb5,
        0x2ddfabdde33e5abc,
        0x7aa03b5104fbe55b,
        0xc5beaa67837b3b59,
        0x9b3de119247dcbce,
        0x6aeb3447218667cc,
    ],
];

/// `fnv1a64` of every parameter after a short training run at the first
/// spec, per architecture in [`Arch::ALL`] order.
const TRAINED_GOLDEN: [u64; 9] = [
    0x954e2e62667d0b82,
    0x7c5236ec1984fd5a,
    0xa9cdaa620da95626,
    0x8df35f7f58302c29,
    0xe73b2234d9d6e91a,
    0x25cb5e826ea54952,
    0xd29a9b5b5e091b5e,
    0x9d28d1f77cc8bfbd,
    0x79a2b0ff945fe35a,
];

const BATCH: usize = 3;

fn model(arch: Arch, spec: InputSpec) -> Model {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    Model::new(zoo::build(arch, spec, &mut rng), spec)
}

fn images(spec: InputSpec, n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tensor::rand_uniform(&[spec.channels, spec.size, spec.size], 0.0, 1.0, &mut rng))
        .collect()
}

fn hash(tensors: &[Tensor]) -> u64 {
    let bytes: Vec<u8> = tensors
        .iter()
        .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
        .collect();
    fnv1a64(&bytes)
}

/// Logits then input gradients of `batch`, per sample or batched.
fn inference_hash(m: &mut Model, batch: &[Tensor], classes: &[usize], batched: bool) -> u64 {
    let mut out = if batched {
        m.logits_batch(batch).expect("valid batch")
    } else {
        batch.iter().map(|x| m.logits(x)).collect()
    };
    if batched {
        out.extend(m.input_gradient_batch(batch, classes).expect("valid batch"));
    } else {
        out.extend(
            batch
                .iter()
                .zip(classes)
                .map(|(x, &c)| m.input_gradient(x, c)),
        );
    }
    hash(&out)
}

/// Renders a hash table as the Rust constant it should be, so a failure
/// message can be pasted after an intended numeric change.
fn render(rows: &[Vec<u64>]) -> String {
    rows.iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|h| format!("0x{h:016x}")).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

#[test]
fn logits_and_input_gradients_match_golden_bits() {
    let mut table = Vec::new();
    for spec in SPECS {
        let batch = images(spec, BATCH, 0xfeed);
        let classes: Vec<usize> = (0..BATCH).map(|i| (2 * i + 1) % spec.num_classes).collect();
        let mut row = Vec::new();
        for arch in Arch::ALL {
            let mut plain = model(arch, spec);
            let mut frozen = plain.clone();
            frozen.freeze_for_inference();
            let hashes = [
                inference_hash(&mut plain, &batch, &classes, false),
                inference_hash(&mut plain, &batch, &classes, true),
                inference_hash(&mut frozen, &batch, &classes, false),
                inference_hash(&mut frozen, &batch, &classes, true),
            ];
            assert!(
                hashes.iter().all(|&h| h == hashes[0]),
                "{arch} at {}px: per-sample/batched/frozen paths disagree: {hashes:x?}",
                spec.size
            );
            row.push(hashes[0]);
        }
        table.push(row);
    }
    let golden: Vec<Vec<u64>> = INFERENCE_GOLDEN.iter().map(|r| r.to_vec()).collect();
    assert!(
        table == golden,
        "inference bits moved; computed table:\n{}",
        render(&table)
    );
}

#[test]
fn trained_weights_match_golden_bits() {
    let spec = SPECS[0];
    let train = images(spec, 6, 0xbeef);
    let labels: Vec<usize> = (0..train.len()).map(|i| i % spec.num_classes).collect();
    let trainer = Trainer::new(TrainerConfig {
        epochs: 1,
        batch_size: 3,
        seed: 9,
        ..TrainerConfig::default()
    });
    let mut row = Vec::new();
    for arch in Arch::ALL {
        let mut m = model(arch, spec);
        trainer.fit(&mut m, &train, &labels);
        let mut params = Vec::new();
        m.net_mut().visit_params(&mut |p, _| params.push(p.clone()));
        row.push(hash(&params));
    }
    assert!(
        row == TRAINED_GOLDEN,
        "trained weights moved; computed row:\n{}",
        render(&[row])
    );
}
