use super::{check_cached, lanes_of};
use crate::{Layer, Mode, Wants};
use rand::Rng;
use remix_tensor::{
    gemm_accum_ab, im2row_batch_into, simd_kernel, Conv2dGeometry, PackedOperand, Result, Tensor,
};

/// 2-D convolution over lane-major `[C, H, W, B]` batches, lowered to
/// matrix products without unfolding the input.
///
/// Weights are stored as `[filters, C*k*k]`. The forward pass is one
/// `W · patchesᵀ` GEMM whose B panels are packed straight from the batch
/// (`conv_gemm_into`), and the input gradient is `Wᵀ · G` folded onto the
/// images panel by panel (`conv_input_grads`). Both are bit-identical to
/// the unfolded formulation (`im2row` rows through `matmul_a_bt`, `gᵀ · W`
/// through `row2im`) because every output element keeps its own
/// ascending-k chain and every input-gradient element its ascending
/// output-position order. Only the weight gradient unfolds: one lane at a
/// time, into `[out_h*out_w, C*k*k]` patch rows for that lane's dW GEMM.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor, // [F, C*k*k]
    bias: Tensor,   // [F]
    grad_w: Tensor,
    grad_b: Tensor,
    geo: Conv2dGeometry,
    filters: usize,
    /// The `[C, H, W, B]` input of a Train/Eval forward, for the weight
    /// gradient.
    cached_input: Tensor,
    scratch: ConvScratch,
    /// Prepacked weight operands from [`Layer::prepare_inference`]; dropped
    /// on any parameter mutation (see [`Layer::visit_params`]).
    packs: Option<ConvPacks>,
}

/// Both roles the frozen `[F, C·k·k]` weight plays: `fwd` is the A-side of
/// the forward `W · patchesᵀ` product, `bwd` the transpose-read A-side of
/// the input-gradient `Wᵀ · G` product.
#[derive(Debug, Clone)]
struct ConvPacks {
    fwd: PackedOperand,
    bwd: PackedOperand,
}

/// Reusable buffers for the GEMMs. Each GEMM call site owns its buffers so
/// the sizes stay stable across calls and the kernels never reallocate in
/// steady state.
#[derive(Debug, Clone, Default)]
struct ConvScratch {
    padded: Vec<f32>,    // zero-padded batch the forward panels read
    dx: Vec<f32>,        // zero-padded input gradient
    rows: Vec<f32>,      // one lane's patch rows for its dW GEMM
    dw_packed: Vec<f32>, // packed patch-row panels for the dW GEMM
}

simd_kernel! {
    /// The bias pass of the forward: `v + b` over each filter's output row
    /// of `out`, `[F, n]` for the `F = bias.len()` biases.
    fn add_bias(out: &mut [f32], bias: &[f32]) {
        let n = out.len() / bias.len();
        for (row, &b) in out.chunks_exact_mut(n.max(1)).zip(bias) {
            for v in row {
                *v += b;
            }
        }
    }
}

impl Conv2d {
    /// Creates a convolution with square `kernel`, `stride` and `pad` over
    /// `in_shape = (channels, height, width)` producing `filters` channels.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is unrealizable (kernel larger than padded
    /// input or zero stride).
    pub fn new(
        in_shape: (usize, usize, usize),
        filters: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let geo = Conv2dGeometry {
            in_channels: in_shape.0,
            in_h: in_shape.1,
            in_w: in_shape.2,
            kernel,
            stride,
            pad,
        };
        assert!(geo.is_valid(), "invalid conv geometry {geo:?}");
        let fan_in = geo.patch_len();
        let std = (2.0 / fan_in as f32).sqrt();
        Self {
            weight: Tensor::randn(&[filters, fan_in], std, rng),
            bias: Tensor::zeros(&[filters]),
            grad_w: Tensor::zeros(&[filters, fan_in]),
            grad_b: Tensor::zeros(&[filters]),
            geo,
            filters,
            cached_input: Tensor::default(),
            scratch: ConvScratch::default(),
            packs: None,
        }
    }

    /// Output shape `(filters, out_h, out_w)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        (self.filters, self.geo.out_h(), self.geo.out_w())
    }

    /// `dW += g · rows ; db += Σ g` for each lane of the lane-major
    /// `[F, out_h, out_w, B]` gradient, lane after lane: one dW GEMM per
    /// lane, against that lane's patch rows unfolded from the cached input.
    /// Each lane's contribution is a complete register chain added to
    /// `grad_w` (`gemm_accum_ab`), and each bias gradient a per-lane sum
    /// from -0.0, so lanes are never fused into one accumulation chain.
    fn accumulate_param_grads(&mut self, grads: &Tensor, lanes: usize) -> Result<()> {
        let (spatial, patch) = (self.geo.out_h() * self.geo.out_w(), self.geo.patch_len());
        check_cached(&self.cached_input, lanes, "conv backward_lanes")?;
        let mut rows = std::mem::take(&mut self.scratch.rows);
        let mut packed = std::mem::take(&mut self.scratch.dw_packed);
        let inputs = std::mem::take(&mut self.cached_input).unstack_lanes();
        for (x, g) in inputs.iter().zip(grads.unstack_lanes()) {
            im2row_batch_into(std::slice::from_ref(x), &self.geo, &mut rows)?;
            gemm_accum_ab(
                g.data(),
                &rows,
                self.grad_w.data_mut(),
                self.filters,
                spatial,
                patch,
                &mut packed,
            );
            for (gb, gplane) in self
                .grad_b
                .data_mut()
                .iter_mut()
                .zip(g.data().chunks_exact(spatial))
            {
                *gb += gplane.iter().sum::<f32>();
            }
        }
        self.scratch.rows = rows;
        self.scratch.dw_packed = packed;
        Ok(())
    }
}

impl Layer for Conv2d {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    /// The forward product `W · patchesᵀ + b` of the batch: each output
    /// element keeps its own ascending-patch chain, so every lane is
    /// bit-identical to a one-lane forward, and the bias is added as
    /// `v + b`.
    fn forward_lanes(&mut self, input: Tensor, mode: Mode) -> Result<Tensor> {
        let mut out = Vec::new();
        match &self.packs {
            Some(p) => p.fwd.conv_gemm_prepacked_into(
                &input,
                &self.geo,
                &mut out,
                &mut self.scratch.padded,
            )?,
            None => {
                self.weight
                    .conv_gemm_into(&input, &self.geo, &mut out, &mut self.scratch.padded)?
            }
        }
        let (f, oh, ow) = self.out_shape();
        let n = out.len() / f;
        add_bias(&mut out, self.bias.data());
        self.cached_input = if mode == Mode::Inference {
            Tensor::default()
        } else {
            input
        };
        Tensor::from_vec(out, &[f, oh, ow, n / (oh * ow)])
    }

    /// Input gradients `Wᵀ · G` folded onto the images panel by panel. `Wᵀ`
    /// is read straight out of the `[F, patch]` storage (or its frozen
    /// `prepack_at` blocks), and each product element sums over filters in
    /// ascending order, the chain of the unfolded formulation's `gᵀ · W`.
    /// Every GEMM column belongs to one lane, so the lanes match one-lane
    /// gradients bit for bit.
    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        let (f, oh, ow) = self.out_shape();
        let lanes = lanes_of(&grad_out, &[f, oh, ow], "conv backward_lanes")?;
        if wants.params() {
            self.accumulate_param_grads(&grad_out, lanes)?;
        }
        if !wants.input() {
            return Ok(Tensor::default());
        }
        match &self.packs {
            Some(p) => p
                .bwd
                .conv_input_grads_prepacked(&grad_out, &self.geo, &mut self.scratch.dx),
            None => self
                .weight
                .conv_input_grads(&grad_out, &self.geo, &mut self.scratch.dx),
        }
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        // Parameters are about to be mutated: any frozen weight pack is stale.
        self.packs = None;
        visit(&mut self.weight, &mut self.grad_w);
        visit(&mut self.bias, &mut self.grad_b);
    }

    fn prepare_inference(&mut self) {
        self.packs = Some(ConvPacks {
            fwd: self.weight.prepack_a().expect("conv weight is rank 2"),
            bwd: self.weight.prepack_at().expect("conv weight is rank 2"),
        });
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{assert_levels_agree, backward_one, edge_values, forward_one, TEST_LANES};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn bias_kernel_agrees_bitwise_at_every_simd_level() {
        let bias = edge_values(5, 1);
        for lanes in TEST_LANES {
            let out = edge_values(5 * 9 * lanes, 2);
            let run = |level| {
                let mut out = out.clone();
                add_bias::at(level, &mut out, &bias);
                out
            };
            assert_levels_agree(&format!("add_bias x{lanes}"), run);
        }
    }

    #[test]
    fn forward_matches_manual_convolution() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new((1, 3, 3), 1, 2, 1, 0, &mut rng);
        conv.weight = Tensor::ones(&[1, 4]);
        conv.bias = Tensor::from_slice(&[1.0]);
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let y = forward_one(&mut conv, &x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.data(), &[13.0, 17.0, 25.0, 29.0]); // patch sums + bias
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new((2, 4, 4), 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 4, 4], 1.0, &mut rng);
        let y = forward_one(&mut conv, &x, Mode::Train);
        let dx = backward_one(&mut conv, &Tensor::ones(y.shape()), Wants::Both);
        let eps = 1e-2;
        for &i in &[0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = forward_one(&mut conv, &xp, Mode::Train);
            let num = (yp.sum() - y.sum()) / eps;
            assert!(
                (num - dx.data()[i]).abs() < 5e-2,
                "input grad at {i}: fd={num} analytic={}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new((1, 4, 4), 2, 3, 1, 0, &mut rng);
        let x = Tensor::randn(&[1, 4, 4], 1.0, &mut rng);
        let y = forward_one(&mut conv, &x, Mode::Train);
        conv.zero_grads();
        backward_one(&mut conv, &Tensor::ones(y.shape()), Wants::Params);
        let analytic = conv.grad_w.clone();
        let eps = 1e-2;
        for &i in &[0usize, 5, 11] {
            let mut pert = conv.weight.clone();
            pert.data_mut()[i] += eps;
            let orig = std::mem::replace(&mut conv.weight, pert);
            let yp = forward_one(&mut conv, &x, Mode::Train);
            conv.weight = orig;
            let num = (yp.sum() - y.sum()) / eps;
            assert!(
                (num - analytic.data()[i]).abs() < 5e-2,
                "weight grad at {i}"
            );
        }
    }

    #[test]
    fn stride_and_padding_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new((3, 8, 8), 6, 3, 2, 1, &mut rng);
        assert_eq!(conv.out_shape(), (6, 4, 4));
    }

    #[test]
    fn forward_surfaces_geometry_errors() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new((1, 3, 3), 1, 2, 1, 0, &mut rng);
        let bad = Tensor::zeros(&[1, 4, 4, 1]);
        assert!(conv.forward_lanes(bad, Mode::Eval).is_err());
        // The layer stays usable after a rejected input.
        let x = Tensor::zeros(&[1, 3, 3, 2]);
        assert!(conv.forward_lanes(x, Mode::Eval).is_ok());
    }

    #[test]
    fn misshapen_gradients_are_rejected_before_any_accumulation() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = Conv2d::new((2, 4, 4), 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 4, 4, 2], 1.0, &mut rng);
        // One column too many, one too few, and a lane count the cached
        // input does not have.
        for bad in [[3, 4, 5, 2], [3, 4, 3, 2], [3, 4, 4, 3]] {
            for wants in [Wants::Params, Wants::Both] {
                conv.forward_lanes(x.clone(), Mode::Train).unwrap();
                let grad = Tensor::ones(&bad);
                assert!(conv.backward_lanes(grad, wants).is_err(), "{bad:?}");
                assert!(conv.grad_w.data().iter().all(|&v| v == 0.0));
                assert!(conv.grad_b.data().iter().all(|&v| v == 0.0));
            }
        }
        // The cached input survives a rejected gradient.
        let grad = Tensor::ones(&[3, 4, 4, 2]);
        assert!(conv.backward_lanes(grad, Wants::Both).is_ok());
        assert!(conv.grad_b.data().iter().all(|&v| v == 32.0));
    }

    #[test]
    fn lane_forward_and_backward_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new((2, 5, 5), 4, 3, 2, 1, &mut rng);
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[2, 5, 5], 1.0, &mut rng))
            .collect();
        let grads: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[4, 3, 3], 1.0, &mut rng))
            .collect();
        crate::layers::assert_lanes_match_one_lane(&mut conv, &inputs, &grads);
    }

    #[test]
    fn only_train_and_eval_keep_the_input() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new((1, 4, 4), 2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 4, 4], 1.0, &mut rng);
        forward_one(&mut conv, &x, Mode::Inference);
        assert_eq!(conv.cached_input.len(), 0);
        forward_one(&mut conv, &x, Mode::Train);
        assert_ne!(conv.cached_input.len(), 0);
        forward_one(&mut conv, &x, Mode::Inference);
        assert_eq!(
            conv.cached_input.len(),
            0,
            "an inference forward drops a stale input"
        );
    }
}
