use crate::{Layer, Mode};
use rand::Rng;
use remix_tensor::{
    gemm_accum_ab, im2row_batch_into, Conv2dGeometry, PackedOperand, Result, Tensor, TensorError,
};

/// 2-D convolution over `[C, H, W]` inputs, lowered to matrix products
/// without unfolding the input.
///
/// Weights are stored as `[filters, C*k*k]`. Every forward entry is one
/// `W · patchesᵀ` GEMM whose B panels are packed straight from the batch —
/// a lane-major `[C, H, W, B]` inference batch or a single sample
/// (`conv_gemm_into`), or a sample-major training batch
/// (`conv_gemm_samples_into`) — and the input gradient is `Wᵀ · G` folded
/// onto the images panel by panel (`conv_input_grads`,
/// `conv_input_grads_samples`).
/// Both are bit-identical to the unfolded formulation (`im2row` rows
/// through `matmul_a_bt`, `gᵀ · W` through `row2im`) because every output
/// element keeps its own ascending-k chain and every input-gradient element
/// its ascending output-position order. Only Train/Eval forwards unfold the
/// `[B*out_h*out_w, C*k*k]` patch rows, because the weight gradient reads
/// per-sample row windows of them.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor, // [F, C*k*k]
    bias: Tensor,   // [F]
    grad_w: Tensor,
    grad_b: Tensor,
    geo: Conv2dGeometry,
    filters: usize,
    cached_rows: Tensor, // [B*out_h*out_w, C*k*k] patch rows of a Train/Eval forward
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
    fwd_out: Vec<f32>,   // [F, B·spatial] forward product of a training batch
    padded: Vec<f32>,    // zero-padded batch the forward panels read
    dx: Vec<f32>,        // gradient copies and zero-padded input gradients
    dw_packed: Vec<f32>, // packed patch-row panels for the per-sample dW GEMMs
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
            cached_rows: Tensor::default(),
            scratch: ConvScratch::default(),
            packs: None,
        }
    }

    /// Output shape `(filters, out_h, out_w)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        (self.filters, self.geo.out_h(), self.geo.out_w())
    }

    /// The forward product `W · patchesᵀ + b` of a lane-major
    /// `[C, H, W, B]` batch into `out`, the lane-major `[F, out_h, out_w, B]`
    /// output — the one forward path of every entry. Each output element
    /// keeps its own ascending-patch chain, so every lane is bit-identical
    /// to the per-sample product, and the bias is added as `v + b`.
    fn forward_into(&mut self, batch: &Tensor, out: &mut Vec<f32>) -> Result<()> {
        match &self.packs {
            Some(p) => {
                p.fwd
                    .conv_gemm_prepacked_into(batch, &self.geo, out, &mut self.scratch.padded)?
            }
            None => self
                .weight
                .conv_gemm_into(batch, &self.geo, out, &mut self.scratch.padded)?,
        }
        if !out.is_empty() {
            let n = out.len() / self.filters;
            for (row, &b) in out.chunks_exact_mut(n).zip(self.bias.data()) {
                for v in row {
                    *v += b;
                }
            }
        }
        Ok(())
    }

    /// The forward of one `[C, H, W]` sample, which the conv entries take
    /// as a one-lane batch.
    fn forward_sample(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut out = Vec::new();
        self.forward_into(input, &mut out)?;
        let (f, oh, ow) = self.out_shape();
        Tensor::from_vec(out, &[f, oh, ow])
    }

    /// Input gradients of a lane-major `[F, out_h, out_w, B]` output
    /// gradient — the one dX path of every backward entry: `Wᵀ · G` folded
    /// onto the images panel by panel. `Wᵀ` is read straight out of the
    /// `[F, patch]` storage (or its frozen `prepack_at` blocks), and each
    /// product element sums over filters in ascending order, the chain of
    /// the unfolded formulation's `gᵀ · W`. Every GEMM column belongs to one
    /// sample, so batched gradients match per-sample ones bit for bit.
    fn input_grads(&mut self, grads_out: &Tensor) -> Result<Tensor> {
        match &self.packs {
            Some(p) => p
                .bwd
                .conv_input_grads_prepacked(grads_out, &self.geo, &mut self.scratch.dx),
            None => self
                .weight
                .conv_input_grads(grads_out, &self.geo, &mut self.scratch.dx),
        }
    }

    /// Input gradient of one sample (see [`Conv2d::input_grads`]): a
    /// `[F, out_h, out_w]` gradient is a one-lane batch.
    fn input_grad(&mut self, grad_out: &Tensor) -> Tensor {
        self.input_grads(grad_out)
            .expect("grad shape matches conv output")
    }

    /// [`Conv2d::input_grads`] of a sample-major training batch: one GEMM
    /// over the concatenated gradients, folded onto each sample's image.
    fn input_grads_samples(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        match &self.packs {
            Some(p) => {
                p.bwd
                    .conv_input_grads_samples_prepacked(grads_out, &self.geo, &mut self.scratch.dx)
            }
            None => {
                self.weight
                    .conv_input_grads_samples(grads_out, &self.geo, &mut self.scratch.dx)
            }
        }
    }

    /// Train/Eval forwards unfold the batch's `[B*out_h*out_w, C*k*k]` patch
    /// rows, because the dW accumulation reads per-sample row windows of
    /// them; an Inference forward drops stale rows instead.
    fn cache_rows(&mut self, inputs: &[Tensor], mode: Mode) -> Result<()> {
        if mode == Mode::Inference {
            self.cached_rows = Tensor::default();
            return Ok(());
        }
        let mut rows = std::mem::take(&mut self.cached_rows).into_vec();
        im2row_batch_into(inputs, &self.geo, &mut rows)?;
        let spatial = self.geo.out_h() * self.geo.out_w();
        self.cached_rows = Tensor::from_vec(rows, &[inputs.len() * spatial, self.geo.patch_len()])?;
        Ok(())
    }

    /// `grad_out` viewed as the `[F, out_h*out_w]` matrix the dW GEMM reads.
    fn grad_matrix(&self, grad_out: &Tensor) -> Tensor {
        grad_out
            .reshape(&[self.filters, self.geo.out_h() * self.geo.out_w()])
            .expect("grad shape matches conv output")
    }

    /// `dW += g · rows ; db += row sums of g` — the parameter half of
    /// [`Layer::backward`], against the cached `[spatial, patch]` rows. The
    /// `[spatial, patch]` layout makes the dW product a plain matmul with no
    /// transpose copy and contiguous B packing.
    fn accumulate_param_grads(&mut self, g: &Tensor) {
        let spatial = self.geo.out_h() * self.geo.out_w();
        let dw = g.matmul(&self.cached_rows).expect("dW matmul");
        self.grad_w.add_assign(&dw).expect("dW shape");
        let gb = self.grad_b.data_mut();
        for (f, gbf) in gb.iter_mut().enumerate().take(self.filters) {
            *gbf += g.data()[f * spatial..(f + 1) * spatial].iter().sum::<f32>();
        }
    }

    /// dW/db for a whole batch, accumulated per sample in batch order — the
    /// exact chains of `batch_size` [`Layer::backward`] calls. Each sample's
    /// dW contribution is a plain A·B against its contiguous row window of
    /// the cached patch matrix, computed as a complete register chain then
    /// added to `grad_w`, matching `dw = g·rows; grad_w += dw` bitwise.
    /// Callers must have validated every gradient's length.
    fn accumulate_batch_param_grads(&mut self, grads_out: &[Tensor], spatial: usize, patch: usize) {
        let mut packed = std::mem::take(&mut self.scratch.dw_packed);
        for (bi, gs) in grads_out.iter().enumerate() {
            gemm_accum_ab(
                gs.data(),
                &self.cached_rows.data()[bi * spatial * patch..(bi + 1) * spatial * patch],
                self.grad_w.data_mut(),
                self.filters,
                spatial,
                patch,
                &mut packed,
            );
            let gb = self.grad_b.data_mut();
            for (f, gbf) in gb.iter_mut().enumerate().take(self.filters) {
                *gbf += gs.data()[f * spatial..(f + 1) * spatial]
                    .iter()
                    .sum::<f32>();
            }
        }
        self.scratch.dw_packed = packed;
    }

    /// Checks the cached patch matrix covers `batch` samples and that every
    /// per-sample gradient has the conv's output length. Shared by the
    /// batched training backward entry points, which read raw per-sample
    /// windows after this.
    fn validate_batch_grads(
        &self,
        grads_out: &[Tensor],
        spatial: usize,
        patch: usize,
    ) -> Result<()> {
        assert_eq!(
            self.cached_rows.len(),
            patch * grads_out.len() * spatial,
            "backward_batch batch size must match the preceding forward_batch"
        );
        for g in grads_out {
            if g.len() != self.filters * spatial {
                return Err(TensorError::ShapeMismatch {
                    left: g.shape().to_vec(),
                    right: vec![self.filters, self.geo.out_h(), self.geo.out_w()],
                    op: "conv batched backward",
                });
            }
        }
        Ok(())
    }
}

impl Layer for Conv2d {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.try_forward(input, mode)
            .expect("conv input matches geometry")
    }

    fn try_forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let out = self.forward_sample(input)?;
        self.cache_rows(std::slice::from_ref(input), mode)?;
        Ok(out)
    }

    fn forward_batch(&mut self, inputs: &[Tensor], mode: Mode) -> Result<Vec<Tensor>> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let (oh, ow) = (self.geo.out_h(), self.geo.out_w());
        let spatial = oh * ow;
        let total = inputs.len() * spatial;
        // One big product: sample b occupies output columns
        // b*spatial..(b+1)*spatial. Each output element keeps its own
        // ascending-patch chain, so every element is bit-identical to the
        // per-sample product.
        let mut big = std::mem::take(&mut self.scratch.fwd_out);
        let gemm = match &self.packs {
            Some(p) => p.fwd.conv_gemm_samples_prepacked_into(
                inputs,
                &self.geo,
                &mut big,
                &mut self.scratch.padded,
            ),
            None => self.weight.conv_gemm_samples_into(
                inputs,
                &self.geo,
                &mut big,
                &mut self.scratch.padded,
            ),
        };
        if let Err(e) = gemm {
            self.scratch.fwd_out = big;
            return Err(e);
        }
        self.cache_rows(inputs, mode)?;
        let mut outs = Vec::with_capacity(inputs.len());
        for bi in 0..inputs.len() {
            let mut sample = Vec::with_capacity(self.filters * spatial);
            for f in 0..self.filters {
                let base = f * total + bi * spatial;
                let b = self.bias.data()[f];
                sample.extend(big[base..base + spatial].iter().map(|&v| v + b));
            }
            outs.push(Tensor::from_vec(sample, &[self.filters, oh, ow])?);
        }
        self.scratch.fwd_out = big;
        Ok(outs)
    }

    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor> {
        let mut out = Vec::new();
        self.forward_into(&input, &mut out)?;
        self.cached_rows = Tensor::default();
        let (f, oh, ow) = self.out_shape();
        let lanes = out.len() / (f * oh * ow);
        Tensor::from_vec(out, &[f, oh, ow, lanes])
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        self.input_grads(&grad_out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.grad_matrix(grad_out);
        self.accumulate_param_grads(&g);
        self.input_grad(grad_out)
    }

    fn backward_params_only(&mut self, grad_out: &Tensor) {
        // Root-layer training backward: skip the dX GEMM and the overlap
        // fold entirely — the image gradient is never consumed.
        let g = self.grad_matrix(grad_out);
        self.accumulate_param_grads(&g);
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.input_grad(grad_out)
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        if grads_out.is_empty() {
            return Ok(Vec::new());
        }
        let spatial = self.geo.out_h() * self.geo.out_w();
        let patch = self.geo.patch_len();
        self.validate_batch_grads(grads_out, spatial, patch)?;
        self.accumulate_batch_param_grads(grads_out, spatial, patch);
        self.input_grads_samples(grads_out)
    }

    fn backward_batch_params_only(&mut self, grads_out: &[Tensor]) -> Result<()> {
        if grads_out.is_empty() {
            return Ok(());
        }
        let spatial = self.geo.out_h() * self.geo.out_w();
        let patch = self.geo.patch_len();
        self.validate_batch_grads(grads_out, spatial, patch)?;
        // Root-layer training backward: the per-sample dW/db accumulation
        // with the gradient concat, the dX GEMM and the batched fold all
        // skipped — the image gradients are never consumed.
        self.accumulate_batch_param_grads(grads_out, spatial, patch);
        Ok(())
    }

    fn supports_batched_train(&self) -> bool {
        true
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
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_matches_manual_convolution() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new((1, 3, 3), 1, 2, 1, 0, &mut rng);
        conv.weight = Tensor::ones(&[1, 4]);
        conv.bias = Tensor::from_slice(&[1.0]);
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.data(), &[13.0, 17.0, 25.0, 29.0]); // patch sums + bias
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new((2, 4, 4), 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train);
        let dx = conv.backward(&Tensor::ones(y.shape()));
        let eps = 1e-2;
        for &i in &[0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = conv.forward(&xp, Mode::Train);
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
        let y = conv.forward(&x, Mode::Train);
        conv.zero_grads();
        conv.backward(&Tensor::ones(y.shape()));
        let analytic = conv.grad_w.clone();
        let eps = 1e-2;
        for &i in &[0usize, 5, 11] {
            let mut pert = conv.weight.clone();
            pert.data_mut()[i] += eps;
            let orig = std::mem::replace(&mut conv.weight, pert);
            let yp = conv.forward(&x, Mode::Train);
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
    fn try_forward_surfaces_geometry_errors() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new((1, 3, 3), 1, 2, 1, 0, &mut rng);
        let bad = Tensor::zeros(&[1, 4, 4]);
        assert!(conv.try_forward(&bad, Mode::Eval).is_err());
        // The layer stays usable after a rejected input.
        let x = Tensor::zeros(&[1, 3, 3]);
        assert!(conv.try_forward(&x, Mode::Eval).is_ok());
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
        let mut seq_out = Vec::new();
        let mut seq_dx = Vec::new();
        for (x, g) in inputs.iter().zip(&grads) {
            seq_out.push(conv.forward(x, Mode::Inference));
            seq_dx.push(conv.backward_input(g));
        }
        let bat_out = conv
            .forward_lanes(Tensor::stack_lanes(&inputs).unwrap())
            .unwrap()
            .unstack_lanes();
        let bat_dx = conv
            .backward_input_lanes(Tensor::stack_lanes(&grads).unwrap())
            .unwrap()
            .unstack_lanes();
        for (a, b) in seq_out.iter().zip(&bat_out) {
            assert_eq!(a.shape(), b.shape());
            assert_eq!(a.data(), b.data());
        }
        for (a, b) in seq_dx.iter().zip(&bat_dx) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn only_train_and_eval_unfold_patch_rows() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new((1, 4, 4), 2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 4, 4], 1.0, &mut rng);
        conv.forward(&x, Mode::Inference);
        assert_eq!(conv.cached_rows.len(), 0);
        conv.forward(&x, Mode::Train);
        assert_ne!(conv.cached_rows.len(), 0);
        conv.forward(&x, Mode::Inference);
        assert_eq!(
            conv.cached_rows.len(),
            0,
            "an inference forward drops stale rows"
        );
    }
}
