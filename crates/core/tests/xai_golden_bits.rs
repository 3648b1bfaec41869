//! Golden bits for the XAI evidence ReMIX weighs: SmoothGrad feature
//! matrices and the per-member weights, diversities and sparsenesses of
//! `Remix::predict` verdicts, hashed and compared against constants recorded
//! before SmoothGrad's noise was memoised per `Remix` and its sweeps were
//! built and folded lane-major.
//!
//! `batch_size_invariance.rs` and `predict_batch.rs` compare two paths of
//! the *current* code, so a change to the shared SmoothGrad kernel moves
//! both sides at once and passes. These hashes pin the numbers themselves:
//! a reordered `|g|` fold or a shifted noise draw fails here.

use rand::{rngs::StdRng, SeedableRng};
use remix_core::{BatchPolicy, Remix, RemixVerdict, TriageScheduler};
use remix_ensemble::TrainedEnsemble;
use remix_nn::{zoo, Arch, InputSpec, Model};
use remix_tensor::{fnv1a64, Tensor};
use remix_xai::{Explainer, ExplainerConfig, XaiBudget, XaiLevel, XaiTechnique};

const SPEC: InputSpec = InputSpec {
    channels: 3,
    size: 16,
    num_classes: 7,
};

const ARCHS: [Arch; 3] = [Arch::ConvNet, Arch::MobileNet, Arch::ResNet18];

const RUNGS: [XaiLevel; 3] = [XaiLevel::Light, XaiLevel::Standard, XaiLevel::Full];

/// `fnv1a64` of SmoothGrad matrix bits per architecture (rows, in [`ARCHS`]
/// order): `explain` at Light, Standard and Full, then `explain_many` (three
/// items, `batch_size` 5) at the same three rungs.
const EXPLAIN_GOLDEN: [[u64; 6]; 3] = [
    [
        0x1f3bf38c115f9e76,
        0xc00d2add7102bf75,
        0x8918f3e3f47d34d9,
        0x4dc4983dffc6aad9,
        0xd323813998035e71,
        0xffdad0e112ffb731,
    ],
    [
        0x1a8c9a18c912a050,
        0xdb231e1a8d0026a8,
        0x608f3cb98577bf6f,
        0x25388bda8840987f,
        0x7f58187758f65238,
        0xc0e214128bbb6ec6,
    ],
    [
        0x1f0240d3a33403db,
        0x42cd0558b182d99a,
        0xb0bb8e639af47089,
        0xcb57ef800144f703,
        0xae1f0922d078d93c,
        0x3aa913e5d75e638d,
    ],
];

/// `fnv1a64` of the weight, diversity and sparseness bits of every
/// non-unanimous `Remix::predict` verdict, with the scheduler pinned at
/// Light, Standard and Full.
const VERDICT_GOLDEN: [u64; 3] = [0xde2a0483ba7f4fef, 0x3037e2fcd72f6052, 0x746fd1d73bf9943b];

fn models() -> Vec<Model> {
    ARCHS
        .iter()
        .map(|&arch| {
            let mut rng = StdRng::seed_from_u64(0x5eed ^ arch as u64);
            let mut model = Model::named(zoo::build(arch, SPEC, &mut rng), SPEC, arch.name());
            model.freeze_for_inference();
            model
        })
        .collect()
}

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Tensor::rand_uniform(&[SPEC.channels, SPEC.size, SPEC.size], 0.0, 1.0, &mut rng))
        .collect()
}

fn hash_tensors(tensors: &[Tensor]) -> u64 {
    let bytes: Vec<u8> = tensors
        .iter()
        .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
        .collect();
    fnv1a64(&bytes)
}

fn hash_verdicts(verdicts: &[RemixVerdict]) -> u64 {
    let bytes: Vec<u8> = verdicts
        .iter()
        .flat_map(|v| &v.details)
        .flat_map(|d| [d.weight, d.diversity, d.sparseness])
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
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
fn smoothgrad_matrices_match_golden_bits() {
    let inputs = images(3, 0xfeed);
    let ragged = Explainer::with_config(
        XaiTechnique::SmoothGrad,
        ExplainerConfig {
            budget: XaiBudget {
                batch_size: 5,
                ..XaiBudget::default()
            },
            ..ExplainerConfig::default()
        },
    );
    let mut table = Vec::new();
    for mut model in models() {
        let mut row = Vec::new();
        for level in RUNGS {
            let explainer = Explainer::new(XaiTechnique::SmoothGrad).at_level(level);
            let matrices: Vec<Tensor> = inputs
                .iter()
                .enumerate()
                .map(|(i, image)| {
                    let mut rng = StdRng::seed_from_u64(40 + i as u64);
                    explainer.explain(&mut model, image, (2 * i + 1) % SPEC.num_classes, &mut rng)
                })
                .collect();
            row.push(hash_tensors(&matrices));
        }
        for level in RUNGS {
            let items: Vec<(&Tensor, usize)> = inputs
                .iter()
                .enumerate()
                .map(|(i, image)| (image, (3 * i + 2) % SPEC.num_classes))
                .collect();
            let mut rngs: Vec<StdRng> = (0..items.len())
                .map(|i| StdRng::seed_from_u64(100 + i as u64))
                .collect();
            let matrices = ragged
                .at_level(level)
                .explain_many(&mut model, &items, &mut rngs);
            row.push(hash_tensors(&matrices));
        }
        table.push(row);
    }
    let golden: Vec<Vec<u64>> = EXPLAIN_GOLDEN.iter().map(|r| r.to_vec()).collect();
    assert!(
        table == golden,
        "SmoothGrad bits moved; computed table:\n{}",
        render(&table)
    );
}

#[test]
fn verdict_evidence_matches_golden_bits() {
    let mut ensemble = TrainedEnsemble::new(models());
    let inputs = images(12, 0xd15a);
    let mut row = Vec::new();
    for level in RUNGS {
        let remix = Remix::builder()
            .scheduler(TriageScheduler::pinned(level))
            .seed(17)
            .threads(1)
            .build();
        let verdicts: Vec<RemixVerdict> = inputs
            .iter()
            .map(|image| remix.predict(&mut ensemble, image))
            .filter(|v| !v.unanimous)
            .collect();
        assert!(
            verdicts.len() >= 3,
            "only {} of {} inputs disagree",
            verdicts.len(),
            inputs.len()
        );
        assert!(verdicts.iter().all(|v| v.xai_level == level));
        // One batch through the same `Remix` reads the same evidence.
        let mut batched: Vec<Option<RemixVerdict>> = vec![None; inputs.len()];
        remix.predict_batch(&mut ensemble, &inputs, &BatchPolicy::default(), |k, v| {
            batched[k] = Some(v)
        });
        let batched: Vec<RemixVerdict> = batched
            .into_iter()
            .map(|v| v.expect("one verdict per input"))
            .filter(|v| !v.unanimous)
            .collect();
        assert_eq!(hash_verdicts(&batched), hash_verdicts(&verdicts), "{level}");
        row.push(hash_verdicts(&verdicts));
    }
    assert!(
        row == VERDICT_GOLDEN,
        "verdict evidence bits moved; computed row:\n{}",
        render(&[row])
    );
}
