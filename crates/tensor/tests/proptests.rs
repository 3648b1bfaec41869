//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_tensor::{im2col, im2row_batch_into, row2im_batch, Conv2dGeometry, Tensor};

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn add_is_commutative_and_sub_inverts(a in vec_strategy(20), b in vec_strategy(20)) {
        let ta = Tensor::from_slice(&a);
        let tb = Tensor::from_slice(&b);
        prop_assert_eq!(ta.add(&tb).unwrap(), tb.add(&ta).unwrap());
        let roundtrip = ta.add(&tb).unwrap().sub(&tb).unwrap();
        for (x, y) in roundtrip.data().iter().zip(ta.data()) {
            prop_assert!((x - y).abs() <= 0.02 * y.abs().max(1.0));
        }
    }

    #[test]
    fn scale_distributes_over_add(a in vec_strategy(12), b in vec_strategy(12), s in -5.0f32..5.0) {
        let ta = Tensor::from_slice(&a);
        let tb = Tensor::from_slice(&b);
        let left = ta.add(&tb).unwrap().scale(s);
        let right = ta.scale(s).add(&tb.scale(s)).unwrap();
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() <= 1e-2 * x.abs().max(1.0));
        }
    }

    #[test]
    fn matmul_is_associative_enough(
        a in vec_strategy(9), b in vec_strategy(9), c in vec_strategy(9)
    ) {
        let (ta, tb, tc) = (
            Tensor::from_vec(a, &[3, 3]).unwrap(),
            Tensor::from_vec(b, &[3, 3]).unwrap(),
            Tensor::from_vec(c, &[3, 3]).unwrap(),
        );
        let left = ta.matmul(&tb).unwrap().matmul(&tc).unwrap();
        let right = ta.matmul(&tb.matmul(&tc).unwrap()).unwrap();
        for (x, y) in left.data().iter().zip(right.data()) {
            let scale = x.abs().max(y.abs()).max(1.0);
            prop_assert!((x - y).abs() / scale < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_swaps_matmul_order(a in vec_strategy(6), b in vec_strategy(6)) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let ta = Tensor::from_vec(a, &[2, 3]).unwrap();
        let tb = Tensor::from_vec(b, &[3, 2]).unwrap();
        let left = ta.matmul(&tb).unwrap().transpose().unwrap();
        let right = tb.transpose().unwrap().matmul(&ta.transpose().unwrap()).unwrap();
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3 * x.abs().max(1.0));
        }
    }

    #[test]
    fn dot_is_symmetric_and_bounded_by_norms(a in vec_strategy(16), b in vec_strategy(16)) {
        let ta = Tensor::from_slice(&a);
        let tb = Tensor::from_slice(&b);
        let ab = ta.dot(&tb).unwrap();
        let ba = tb.dot(&ta).unwrap();
        prop_assert!((ab - ba).abs() <= 1e-2 * ab.abs().max(1.0));
        // Cauchy–Schwarz with float slack
        prop_assert!(ab.abs() <= ta.norm() * tb.norm() * 1.001 + 1e-3);
    }

    #[test]
    fn stack_then_index_roundtrips(a in vec_strategy(8), b in vec_strategy(8)) {
        let ta = Tensor::from_vec(a, &[2, 4]).unwrap();
        let tb = Tensor::from_vec(b, &[2, 4]).unwrap();
        let stacked = Tensor::stack(&[ta.clone(), tb.clone()]).unwrap();
        prop_assert_eq!(stacked.index_axis0(0).unwrap(), ta);
        prop_assert_eq!(stacked.index_axis0(1).unwrap(), tb);
    }

    #[test]
    fn im2col_columns_have_conserved_mass(v in vec_strategy(36)) {
        // with kernel 1 and stride 1, im2col is a permutation of the input
        let t = Tensor::from_vec(v, &[1, 6, 6]).unwrap();
        let geo = Conv2dGeometry { in_channels: 1, in_h: 6, in_w: 6, kernel: 1, stride: 1, pad: 0 };
        let cols = im2col(&t, &geo).unwrap();
        prop_assert_eq!(cols.len(), t.len());
        prop_assert!((cols.sum() - t.sum()).abs() <= 1e-2 * t.sum().abs().max(1.0));
    }

    #[test]
    fn argmax_points_at_maximum(v in vec_strategy(10)) {
        let t = Tensor::from_slice(&v);
        let i = t.argmax().unwrap();
        let max = t.max().unwrap();
        prop_assert_eq!(t.data()[i], max);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_gemm_is_bit_identical_to_reference_on_ragged_shapes(
        m in 1usize..64, k in 1usize..64, n in 1usize..64, seed in 0u64..1024
    ) {
        // The register-blocked kernel tiles over m and n but never reorders
        // the k accumulation, so every shape — including ragged edges smaller
        // than one register tile — must reproduce the reference kernel's
        // bits exactly, not approximately.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        let reference = a.matmul_reference(&b).unwrap();
        let blocked = a.matmul(&b).unwrap();
        for (x, y) in blocked.data().iter().zip(reference.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "matmul ({m},{k},{n})");
        }
        // The transpose-free variants read the same operands through packed
        // layouts; they must match the explicit-transpose route bitwise too.
        let at_b = a.transpose().unwrap().matmul_at_b(&b).unwrap();
        for (x, y) in at_b.data().iter().zip(reference.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "matmul_at_b ({m},{k},{n})");
        }
        let a_bt = a.matmul_a_bt(&b.transpose().unwrap()).unwrap();
        for (x, y) in a_bt.data().iter().zip(reference.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "matmul_a_bt ({m},{k},{n})");
        }
    }

    #[test]
    fn prepacked_gemm_is_bit_identical_to_fresh_on_ragged_shapes(
        m in 1usize..64, k in 1usize..64, n in 1usize..64, seed in 0u64..1024
    ) {
        // A PackedOperand stores the exact blocks/panels the per-call pack
        // stage would produce, so every prepacked entry point must reproduce
        // its fresh counterpart's bits exactly on every shape — ragged
        // register-tile edges included.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_9acc);
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut out = Vec::new();
        let mut scratch = Vec::new();

        // lhs prepacked: P·B, Pᵀ·B, P·Bᵀ
        let pa = a.prepack_a().unwrap();
        pa.matmul_prepacked_into(&b, &mut out, &mut scratch).unwrap();
        let fresh = a.matmul(&b).unwrap();
        prop_assert_eq!(bits(&out), bits(fresh.data()), "matmul_prepacked ({m},{k},{n})");

        let at = a.transpose().unwrap();
        let pat = at.prepack_at().unwrap();
        pat.matmul_at_b_prepacked_into(&b, &mut out, &mut scratch).unwrap();
        let fresh = at.matmul_at_b(&b).unwrap();
        prop_assert_eq!(bits(&out), bits(fresh.data()), "matmul_at_b_prepacked ({m},{k},{n})");

        let bt = b.transpose().unwrap();
        pa.matmul_a_bt_prepacked_into(&bt, &mut out, &mut scratch).unwrap();
        let fresh = a.matmul_a_bt(&bt).unwrap();
        prop_assert_eq!(bits(&out), bits(fresh.data()), "matmul_a_bt_prepacked ({m},{k},{n})");

        // rhs prepacked: Aᵀ·P against the same fresh product
        let pb = b.prepack_b().unwrap();
        pb.matmul_at_b_rhs_prepacked_into(&at, &mut out).unwrap();
        let fresh = at.matmul_at_b(&b).unwrap();
        prop_assert_eq!(bits(&out), bits(fresh.data()), "matmul_at_b_rhs_prepacked ({m},{k},{n})");
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Uniform values with ±0.0 sprinkled in, so signed-zero handling is
/// exercised alongside ordinary rounding.
fn signed_zero_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let len = shape.iter().product();
    let data = (0..len)
        .map(|_| match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0..2.0),
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// The fresh and prepacked conv GEMMs of `batch` lanes through `geo` with
/// `filters` filters, drawn from `seed`, against the unfolded patch rows
/// through the transpose-free GEMM; sample b owns columns b·spatial.. of
/// that product.
fn check_lane_conv_gemm(geo: Conv2dGeometry, batch: usize, filters: usize, seed: u64) {
    let (c, h, w) = (geo.in_channels, geo.in_h, geo.in_w);
    let mut rng = StdRng::seed_from_u64(seed);
    let weight = signed_zero_tensor(&[filters, geo.patch_len()], &mut rng);
    let inputs: Vec<Tensor> = (0..batch)
        .map(|_| signed_zero_tensor(&[c, h, w], &mut rng))
        .collect();
    let spatial = geo.out_h() * geo.out_w();
    let mut rows = Vec::new();
    im2row_batch_into(&inputs, &geo, &mut rows).unwrap();
    let rows = Tensor::from_vec(rows, &[batch * spatial, geo.patch_len()]).unwrap();
    let reference = weight.matmul_a_bt(&rows).unwrap();
    let lanes = Tensor::stack_lanes(&inputs).unwrap();
    let expect: Vec<u32> = (0..filters * spatial)
        .flat_map(|fp| {
            let (f, p) = (fp / spatial, fp % spatial);
            let data = reference.data();
            (0..batch).map(move |b| data[f * batch * spatial + b * spatial + p].to_bits())
        })
        .collect();

    let (mut out, mut padded) = (Vec::new(), Vec::new());
    weight
        .conv_gemm_into(&lanes, &geo, &mut out, &mut padded)
        .unwrap();
    prop_assert_eq!(bits(&out), expect.clone(), "fresh {:?} x{}", geo, batch);
    let frozen = weight.prepack_a().unwrap();
    frozen
        .conv_gemm_prepacked_into(&lanes, &geo, &mut out, &mut padded)
        .unwrap();
    prop_assert_eq!(bits(&out), expect, "prepacked {:?} x{}", geo, batch);
}

/// The fresh and prepacked fused conv input gradients of `batch` lanes of
/// output gradients through `geo` with `filters` filters, drawn from
/// `seed`, against the gᵀ·W patch rows of the concatenated per-sample
/// gradients through the row fold.
fn check_lane_conv_input_grads(geo: Conv2dGeometry, batch: usize, filters: usize, seed: u64) {
    let (c, h, w) = (geo.in_channels, geo.in_h, geo.in_w);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf01d);
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let weight = signed_zero_tensor(&[filters, geo.patch_len()], &mut rng);
    let grads: Vec<Tensor> = (0..batch)
        .map(|_| signed_zero_tensor(&[filters, oh, ow], &mut rng))
        .collect();
    let cols = batch * oh * ow;
    let concat: Vec<f32> = (0..filters)
        .flat_map(|f| {
            grads
                .iter()
                .flat_map(move |g| g.data()[f * oh * ow..][..oh * ow].to_vec())
        })
        .collect();
    let concat = Tensor::from_vec(concat, &[filters, cols]).unwrap();
    let reference = row2im_batch(&concat.matmul_at_b(&weight).unwrap(), &geo, batch).unwrap();
    let expect = bits(Tensor::stack_lanes(&reference).unwrap().data());

    let lanes = Tensor::stack_lanes(&grads).unwrap();
    let mut scratch = Vec::new();
    let fused = weight.conv_input_grads(&lanes, &geo, &mut scratch).unwrap();
    prop_assert_eq!(fused.shape(), &[c, h, w, batch][..]);
    prop_assert_eq!(
        bits(fused.data()),
        expect.clone(),
        "fresh {:?} x{}",
        geo,
        batch
    );
    let frozen = weight.prepack_at().unwrap();
    let fused = frozen
        .conv_input_grads_prepacked(&lanes, &geo, &mut scratch)
        .unwrap();
    prop_assert_eq!(bits(fused.data()), expect, "prepacked {:?} x{}", geo, batch);
}

// Conv lowering contracts over lane-major batches of small geometries:
// C 1–4, H/W 1–9, k 1–3, stride 1–2, pad 0–1, batch 1–33, at the default
// thread count. Output rows shorter than a 16-lane panel and batches that
// are not multiples of 16 make lane runs straddle output positions and
// rows, and most column counts are not multiples of 16.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn lane_conv_gemm_is_bit_identical_to_unfolded_rows(
        c in 1usize..5, h in 1usize..10, w in 1usize..10, k in 1usize..4,
        stride in 1usize..3, pad in 0usize..2, batch in 1usize..34,
        filters in 1usize..10, seed in 0u64..1024
    ) {
        let geo = Conv2dGeometry { in_channels: c, in_h: h, in_w: w, kernel: k, stride, pad };
        if !geo.is_valid() {
            continue;
        }
        check_lane_conv_gemm(geo, batch, filters, seed);
    }

    #[test]
    fn lane_conv_input_grads_are_bit_identical_to_row2im(
        c in 1usize..5, h in 1usize..10, w in 1usize..10, k in 1usize..4,
        stride in 1usize..3, pad in 0usize..2, batch in 1usize..34,
        filters in 1usize..10, seed in 0u64..1024
    ) {
        let geo = Conv2dGeometry { in_channels: c, in_h: h, in_w: w, kernel: k, stride, pad };
        if !geo.is_valid() {
            continue;
        }
        check_lane_conv_input_grads(geo, batch, filters, seed);
    }
}

/// The conv geometries the zoo serves at 3×16×16 — ConvNet's, MobileNet's
/// and ResNet18's 3×3 convs, their 1×1 projections and pointwise convs —
/// as `(channels, size, filters, kernel, stride, pad)`.
const SERVED_CONVS: [(usize, usize, usize, usize, usize, usize); 12] = [
    (3, 16, 8, 3, 1, 1),
    (8, 16, 8, 3, 1, 1),
    (8, 16, 16, 3, 2, 1),
    (16, 8, 16, 3, 1, 1),
    (16, 8, 32, 3, 2, 1),
    (32, 4, 32, 3, 1, 1),
    (8, 16, 16, 1, 2, 0),
    (16, 8, 32, 1, 2, 0),
    (8, 16, 16, 1, 1, 0),
    (16, 8, 16, 1, 1, 0),
    (16, 8, 32, 1, 1, 0),
    (32, 4, 32, 1, 1, 0),
];

#[test]
fn served_conv_shapes_are_bit_identical_to_the_unfolded_references() {
    for (i, &(c, size, filters, k, stride, pad)) in SERVED_CONVS.iter().enumerate() {
        let geo = Conv2dGeometry {
            in_channels: c,
            in_h: size,
            in_w: size,
            kernel: k,
            stride,
            pad,
        };
        for batch in [1, 2, 16, 17] {
            let seed = (i * 64 + batch) as u64;
            check_lane_conv_gemm(geo, batch, filters, seed);
            check_lane_conv_input_grads(geo, batch, filters, seed);
        }
    }
}

#[test]
fn lane_conv_entries_take_one_sample_as_one_lane_and_reject_other_shapes() {
    let geo = Conv2dGeometry {
        in_channels: 2,
        in_h: 4,
        in_w: 4,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let weight = signed_zero_tensor(&[3, geo.patch_len()], &mut rng);
    let sample = signed_zero_tensor(&[2, 4, 4], &mut rng);
    let (mut out, mut one, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    weight
        .conv_gemm_into(&sample, &geo, &mut out, &mut scratch)
        .unwrap();
    let lane = sample.reshape(&[2, 4, 4, 1]).unwrap();
    weight
        .conv_gemm_into(&lane, &geo, &mut one, &mut scratch)
        .unwrap();
    assert_eq!(bits(&out), bits(&one));
    let grad = signed_zero_tensor(&[3, 4, 4], &mut rng);
    let dx = weight.conv_input_grads(&grad, &geo, &mut scratch).unwrap();
    assert_eq!(dx.shape(), &[2, 4, 4]);
    let dx_lane = weight
        .conv_input_grads(&grad.reshape(&[3, 4, 4, 1]).unwrap(), &geo, &mut scratch)
        .unwrap();
    assert_eq!(dx_lane.shape(), &[2, 4, 4, 1]);
    assert_eq!(bits(dx.data()), bits(dx_lane.data()));

    for wrong in [vec![2, 4, 5, 3], vec![2, 16], vec![3, 4, 4, 2]] {
        let t = Tensor::zeros(&wrong);
        assert!(weight
            .conv_gemm_into(&t, &geo, &mut out, &mut scratch)
            .is_err());
    }
    for wrong in [vec![2, 4, 4, 3], vec![3, 16], vec![3, 4, 4, 1, 1]] {
        let t = Tensor::zeros(&wrong);
        assert!(weight.conv_input_grads(&t, &geo, &mut scratch).is_err());
    }
}
