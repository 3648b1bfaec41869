use super::lanes_of;
use crate::{Layer, Mode};
use rand::Rng;
use remix_tensor::{PackedOperand, Result, Tensor, TensorError};

/// Fully-connected layer: `y = W x + b` over rank-1 inputs.
///
/// Weights use He initialization, appropriate for the ReLU networks of the
/// zoo.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor, // [out, in]
    bias: Tensor,   // [out]
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Tensor,
    batch_inputs: Vec<Tensor>,
    /// Prepacked weight operands from [`Layer::prepare_inference`]; dropped
    /// on any parameter mutation (see [`Layer::visit_params`]).
    packs: Option<DensePacks>,
    scratch: DenseScratch,
}

/// Both orientations of the frozen weight: `fwd` serves the batched
/// `W · X` forward product, `bwd` the batched `Wᵀ · G` input gradient.
#[derive(Debug, Clone)]
struct DensePacks {
    fwd: PackedOperand,
    bwd: PackedOperand,
}

/// Reusable buffers for the batched GEMMs, mirroring `ConvScratch`: each
/// call site owns its set so sizes stay stable across steps and the `_into`
/// kernels never reallocate or zero-fill in steady state.
#[derive(Debug, Clone, Default)]
struct DenseScratch {
    xmat: Vec<f32>,       // [in, B] column-major batch input
    fwd_out: Vec<f32>,    // [out, B] forward product
    fwd_packed: Vec<f32>, // packed input panels for the forward GEMM
    gmat: Vec<f32>,       // [out, B] concatenated output gradients
    bwd_out: Vec<f32>,    // [in, B] dX product
    bwd_packed: Vec<f32>, // packed gradient panels for the dX GEMM
}

impl Dense {
    /// Creates a dense layer mapping `in_dim -> out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let std = (2.0 / in_dim as f32).sqrt();
        Self {
            weight: Tensor::randn(&[out_dim, in_dim], std, rng),
            bias: Tensor::zeros(&[out_dim]),
            grad_w: Tensor::zeros(&[out_dim, in_dim]),
            grad_b: Tensor::zeros(&[out_dim]),
            cached_input: Tensor::default(),
            batch_inputs: Vec::new(),
            packs: None,
            scratch: DenseScratch::default(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Input gradient `dx = Wᵀ g` without touching parameter gradients or
    /// cached state. Shared by [`Layer::backward`], [`Layer::backward_input`]
    /// and composite layers (squeeze-excitation) that only need the input
    /// path.
    /// `dW += g ⊗ x ; db += g` — the parameter half of [`Layer::backward`]
    /// against an explicit input, sharing its exact accumulation chains
    /// (including the zero-gradient row skip).
    fn accumulate_param_grads(&mut self, grad_out: &Tensor, x: &Tensor) {
        let in_dim = self.in_dim();
        let gw = self.grad_w.data_mut();
        for (i, &g) in grad_out.data().iter().enumerate() {
            if g != 0.0 {
                let row = &mut gw[i * in_dim..(i + 1) * in_dim];
                for (w, &xv) in row.iter_mut().zip(x.data()) {
                    *w += g * xv;
                }
            }
        }
        self.grad_b.add_assign(grad_out).expect("bias grad length");
    }

    pub(crate) fn input_grad(&self, grad_out: &Tensor) -> Tensor {
        let in_dim = self.in_dim();
        let mut dx = vec![0.0f32; in_dim];
        let w = self.weight.data();
        for (i, &g) in grad_out.data().iter().enumerate() {
            if g != 0.0 {
                let row = &w[i * in_dim..(i + 1) * in_dim];
                for (d, &wv) in dx.iter_mut().zip(row) {
                    *d += g * wv;
                }
            }
        }
        Tensor::from_slice(&dx)
    }

    /// [`Layer::forward`]'s `W x + b` for each lane of a lane-major
    /// `[in, B]` batch, through the per-sample `matvec` chain: every output
    /// lane sums `w·x` over the inputs in ascending order from -0.0, where
    /// `Iterator::sum` starts, then adds the bias. Composite layers
    /// (squeeze-excitation) that run their dense sublayers per sample use
    /// this for their lanes.
    pub(crate) fn matvec_lanes(&self, x: &[f32], lanes: usize) -> Vec<f32> {
        let in_dim = self.in_dim();
        let mut out = vec![-0.0f32; self.out_dim() * lanes];
        for ((o, row), &b) in out
            .chunks_exact_mut(lanes)
            .zip(self.weight.data().chunks_exact(in_dim))
            .zip(self.bias.data())
        {
            for (&w, xs) in row.iter().zip(x.chunks_exact(lanes)) {
                for (acc, &xv) in o.iter_mut().zip(xs) {
                    *acc += w * xv;
                }
            }
            for acc in o {
                *acc += b;
            }
        }
        out
    }

    /// [`Dense::input_grad`] for each lane of a lane-major `[out, B]`
    /// gradient: the same per-lane chain over the outputs from +0.0,
    /// zero-gradient skip included.
    pub(crate) fn input_grad_lanes(&self, grad_out: &[f32], lanes: usize) -> Vec<f32> {
        let in_dim = self.in_dim();
        let mut dx = vec![0.0f32; in_dim * lanes];
        for (gs, row) in grad_out
            .chunks_exact(lanes)
            .zip(self.weight.data().chunks_exact(in_dim))
        {
            for (d, &w) in dx.chunks_exact_mut(lanes).zip(row) {
                for (d, &g) in d.iter_mut().zip(gs) {
                    if g != 0.0 {
                        *d += g * w;
                    }
                }
            }
        }
        dx
    }

    /// Batched `dX = Wᵀ · G` through one transpose-free GEMM into reused
    /// scratch (prepacked when frozen): each dx element's chain runs over the
    /// out_dim axis within a single sample's column, matching
    /// [`Dense::input_grad`] bitwise on finite data — the same ascending-i
    /// order, and skipping `g == 0.0` products is bitwise-neutral (see the
    /// zero-skip note on `remix-tensor`'s reference kernel).
    fn batched_input_grads(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        let (out_dim, in_dim) = (self.out_dim(), self.in_dim());
        let batch = grads_out.len();
        let mut gmat = std::mem::take(&mut self.scratch.gmat);
        if gmat.len() != out_dim * batch {
            gmat.clear();
            gmat.resize(out_dim * batch, 0.0);
        }
        for (s, g) in grads_out.iter().enumerate() {
            debug_assert_eq!(g.len(), out_dim, "dense gradient length");
            for (i, &v) in g.data().iter().enumerate() {
                gmat[i * batch + s] = v;
            }
        }
        let gmat = Tensor::from_vec(gmat, &[out_dim, batch])?;
        let mut dxmat = std::mem::take(&mut self.scratch.bwd_out);
        let gemm = match &self.packs {
            Some(p) => {
                p.bwd
                    .matmul_at_b_prepacked_into(&gmat, &mut dxmat, &mut self.scratch.bwd_packed)
            }
            None => self
                .weight
                .matmul_at_b_into(&gmat, &mut dxmat, &mut self.scratch.bwd_packed),
        };
        self.scratch.gmat = gmat.into_vec();
        if let Err(e) = gemm {
            self.scratch.bwd_out = dxmat;
            return Err(e);
        }
        let grads = (0..batch)
            .map(|s| {
                let data = (0..in_dim).map(|j| dxmat[j * batch + s]).collect();
                Tensor::from_vec(data, &[in_dim])
            })
            .collect();
        self.scratch.bwd_out = dxmat;
        grads
    }
}

impl Layer for Dense {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        debug_assert_eq!(input.len(), self.in_dim(), "dense input length");
        let flat = if input.rank() == 1 {
            input.clone()
        } else {
            input.flatten()
        };
        let mut out = self.weight.matvec(&flat).expect("dense shape checked");
        out.add_assign(&self.bias).expect("bias length");
        if mode != Mode::Inference {
            // The cached input only feeds the dW outer product, which the
            // inference-mode input gradient never computes.
            self.cached_input = flat;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        debug_assert_eq!(grad_out.len(), self.out_dim());
        // dW += g ⊗ x ; db += g ; dx = Wᵀ g
        let x = std::mem::take(&mut self.cached_input);
        self.accumulate_param_grads(grad_out, &x);
        self.cached_input = x;
        self.input_grad(grad_out)
    }

    fn backward_params_only(&mut self, grad_out: &Tensor) {
        // Root-layer training backward: skip the dx = Wᵀg product — the
        // input gradient is never consumed.
        debug_assert_eq!(grad_out.len(), self.out_dim());
        let x = std::mem::take(&mut self.cached_input);
        self.accumulate_param_grads(grad_out, &x);
        self.cached_input = x;
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.input_grad(grad_out)
    }

    fn forward_batch(&mut self, inputs: &[Tensor], mode: Mode) -> Result<Vec<Tensor>> {
        let (out_dim, in_dim) = (self.out_dim(), self.in_dim());
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let flats: Vec<Tensor> = inputs
            .iter()
            .map(|x| {
                debug_assert_eq!(x.len(), in_dim, "dense input length");
                if x.rank() == 1 {
                    x.clone()
                } else {
                    x.flatten()
                }
            })
            .collect();
        let batch = flats.len();
        // Columns are samples: big[i][s] = Σ_j w[i][j]·x_s[j], the same
        // ascending-j chain as the per-sample matvec, so adding the bias last
        // reproduces forward() bitwise. The GEMM runs into reused scratch,
        // through the frozen weight pack when one is installed.
        let mut xmat = std::mem::take(&mut self.scratch.xmat);
        if xmat.len() != in_dim * batch {
            xmat.clear();
            xmat.resize(in_dim * batch, 0.0);
        }
        for (s, x) in flats.iter().enumerate() {
            for (j, &v) in x.data().iter().enumerate() {
                xmat[j * batch + s] = v;
            }
        }
        let xmat = Tensor::from_vec(xmat, &[in_dim, batch])?;
        let mut big = std::mem::take(&mut self.scratch.fwd_out);
        let gemm = match &self.packs {
            Some(p) => p
                .fwd
                .matmul_prepacked_into(&xmat, &mut big, &mut self.scratch.fwd_packed),
            None => self
                .weight
                .matmul_into(&xmat, &mut big, &mut self.scratch.fwd_packed),
        };
        self.scratch.xmat = xmat.into_vec();
        if let Err(e) = gemm {
            self.scratch.fwd_out = big;
            return Err(e);
        }
        let bias = self.bias.data();
        let outs = (0..batch)
            .map(|s| {
                let data = (0..out_dim).map(|i| big[i * batch + s] + bias[i]).collect();
                Tensor::from_vec(data, &[out_dim])
            })
            .collect::<Result<Vec<_>>>();
        self.scratch.fwd_out = big;
        let outs = outs?;
        if mode != Mode::Inference {
            self.batch_inputs = flats;
        } else {
            self.batch_inputs.clear();
        }
        Ok(outs)
    }

    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor> {
        let (out_dim, in_dim) = (self.out_dim(), self.in_dim());
        // Whatever the per-sample shape, a lane-major batch is the `[in, B]`
        // column matrix the GEMM multiplies: `big[i][s] = Σ_j w[i][j]·x_s[j]`
        // in ascending j, the per-sample matvec chain, so adding the bias
        // last reproduces forward() bitwise.
        let lanes = input.shape().last().copied().unwrap_or(0);
        if lanes == 0 || input.len() != in_dim * lanes {
            return Err(TensorError::ShapeMismatch {
                left: input.shape().to_vec(),
                right: vec![in_dim],
                op: "dense forward_lanes",
            });
        }
        let xmat = input.into_shape(&[in_dim, lanes])?;
        let mut out = Vec::new();
        match &self.packs {
            Some(p) => {
                p.fwd
                    .matmul_prepacked_into(&xmat, &mut out, &mut self.scratch.fwd_packed)?
            }
            None => self
                .weight
                .matmul_into(&xmat, &mut out, &mut self.scratch.fwd_packed)?,
        }
        for (row, &b) in out.chunks_exact_mut(lanes).zip(self.bias.data()) {
            for v in row {
                *v += b;
            }
        }
        Tensor::from_vec(out, &[out_dim, lanes])
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        // dx = Wᵀ g needs no cached state: one transpose-free GEMM over the
        // `[out, B]` gradients, through the prepacked Wᵀ when frozen —
        // bit-identical to the per-sample kernel (see `batched_input_grads`).
        let in_dim = self.in_dim();
        let lanes = lanes_of(&grad_out, &[self.out_dim()], "dense backward_input_lanes")?;
        let mut dx = Vec::new();
        match &self.packs {
            Some(p) => p.bwd.matmul_at_b_prepacked_into(
                &grad_out,
                &mut dx,
                &mut self.scratch.bwd_packed,
            )?,
            None => {
                self.weight
                    .matmul_at_b_into(&grad_out, &mut dx, &mut self.scratch.bwd_packed)?
            }
        }
        Tensor::from_vec(dx, &[in_dim, lanes])
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        let inputs = std::mem::take(&mut self.batch_inputs);
        assert_eq!(
            grads_out.len(),
            inputs.len(),
            "backward_batch batch size must match the preceding forward_batch"
        );
        if grads_out.is_empty() {
            return Ok(Vec::new());
        }
        // dW/db accumulate per sample in batch order — the exact chains of
        // batch_size backward() calls. Fusing the per-sample outer products
        // into one GEMM would merge those chains and break bit-identity.
        for (g, x) in grads_out.iter().zip(&inputs) {
            self.accumulate_param_grads(g, x);
        }
        self.batched_input_grads(grads_out)
    }

    fn backward_batch_params_only(&mut self, grads_out: &[Tensor]) -> Result<()> {
        let inputs = std::mem::take(&mut self.batch_inputs);
        assert_eq!(
            grads_out.len(),
            inputs.len(),
            "backward_batch batch size must match the preceding forward_batch"
        );
        // Root-layer training backward: the per-sample dW/db chains of
        // backward_batch with the dX GEMM skipped.
        for (g, x) in grads_out.iter().zip(&inputs) {
            self.accumulate_param_grads(g, x);
        }
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
        self.packs = Some(DensePacks {
            fwd: self.weight.prepack_a().expect("dense weight is rank 2"),
            bwd: self.weight.prepack_at().expect("dense weight is rank 2"),
        });
    }

    fn name(&self) -> &'static str {
        "Dense"
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
    fn forward_computes_affine_map() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(2, 2, &mut rng);
        // overwrite with known weights
        d.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        d.bias = Tensor::from_slice(&[0.5, -0.5]);
        let y = d.forward(&Tensor::from_slice(&[1.0, 1.0]), Mode::Eval);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_slice(&[0.3, -0.7, 0.9]);
        let y = d.forward(&x, Mode::Train);
        // scalar loss = sum(y); dL/dy = ones
        let dx = d.backward(&Tensor::ones(&[2]));
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = d.forward(&xp, Mode::Train);
            let num = (yp.sum() - y.sum()) / eps;
            assert!((num - dx.data()[i]).abs() < 1e-2, "input grad {i}");
        }
    }

    #[test]
    fn weight_gradient_accumulates() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(2, 1, &mut rng);
        let x = Tensor::from_slice(&[1.0, 2.0]);
        d.forward(&x, Mode::Train);
        d.backward(&Tensor::from_slice(&[1.0]));
        d.forward(&x, Mode::Train);
        d.backward(&Tensor::from_slice(&[1.0]));
        assert_eq!(d.grad_w.data(), &[2.0, 4.0]);
        assert_eq!(d.grad_b.data(), &[2.0]);
        d.zero_grads();
        assert_eq!(d.grad_w.data(), &[0.0, 0.0]);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Dense::new(4, 3, &mut rng);
        assert_eq!(d.param_count(), 15);
    }
}
