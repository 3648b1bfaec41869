//! Lane counts that fill, straddle and overflow the GEMM's 16-wide panels:
//! for every zoo archetype, frozen and unfrozen, `logits_batch` and
//! `input_gradient_batch` over a lane-major batch of `B` images equal the
//! per-sample `logits` and `input_gradient` bit for bit.

use rand::{rngs::StdRng, SeedableRng};
use remix_nn::{zoo, Arch, InputSpec, Model};
use remix_tensor::Tensor;

const SPEC: InputSpec = InputSpec {
    channels: 3,
    size: 16,
    num_classes: 7,
};

const LANES: [usize; 10] = [1, 2, 3, 8, 15, 16, 17, 24, 32, 33];

fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn every_lane_count_is_bit_identical_to_per_sample() {
    let max = LANES[LANES.len() - 1];
    let mut rng = StdRng::seed_from_u64(0x1a4e);
    let images: Vec<Tensor> = (0..max)
        .map(|_| Tensor::rand_uniform(&[SPEC.channels, SPEC.size, SPEC.size], 0.0, 1.0, &mut rng))
        .collect();
    let classes: Vec<usize> = (0..max).map(|i| (3 * i + 1) % SPEC.num_classes).collect();
    for arch in Arch::ALL {
        let mut plain = Model::new(zoo::build(arch, SPEC, &mut StdRng::seed_from_u64(7)), SPEC);
        let mut frozen = plain.clone();
        frozen.freeze_for_inference();
        let logits: Vec<Tensor> = images.iter().map(|x| plain.logits(x)).collect();
        let grads: Vec<Tensor> = images
            .iter()
            .zip(&classes)
            .map(|(x, &c)| plain.input_gradient(x, c))
            .collect();
        for (name, model) in [("unfrozen", &mut plain), ("frozen", &mut frozen)] {
            for b in LANES {
                let batch_logits = model.logits_batch(&images[..b]).expect("valid batch");
                assert_eq!(
                    bits(&batch_logits),
                    bits(&logits[..b]),
                    "{arch} {name} B={b}: logits diverged"
                );
                let batch_grads = model
                    .input_gradient_batch(&images[..b], &classes[..b])
                    .expect("valid batch");
                assert_eq!(
                    bits(&batch_grads),
                    bits(&grads[..b]),
                    "{arch} {name} B={b}: input gradients diverged"
                );
            }
        }
    }
}

#[test]
fn mismatched_image_shapes_are_rejected() {
    let mut m = Model::new(
        zoo::build(Arch::ConvNet, SPEC, &mut StdRng::seed_from_u64(8)),
        SPEC,
    );
    let ok = Tensor::zeros(&[SPEC.channels, SPEC.size, SPEC.size]);
    let odd = Tensor::zeros(&[SPEC.channels, SPEC.size, SPEC.size + 1]);
    assert!(m.logits_batch(&[ok.clone(), odd.clone()]).is_err());
    assert!(m.logits_batch(&[odd.clone(), odd.clone()]).is_err());
    assert!(m.input_gradient_batch(&[ok.clone(), odd], &[0, 1]).is_err());
    assert!(m.logits_batch(&[]).expect("empty batch").is_empty());
    // The model stays usable after rejected batches.
    assert_eq!(m.logits_batch(&[ok]).expect("valid batch").len(), 1);
}
