use super::{check_cached, lanes_of};
use crate::{Layer, Mode, Wants};
use rand::Rng;
use remix_tensor::{PackedOperand, Result, Tensor, TensorError};

/// Fully-connected layer: `y = W x + b` over lane-major `[in, B]` batches.
///
/// Weights use He initialization, appropriate for the ReLU networks of the
/// zoo.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor, // [out, in]
    bias: Tensor,   // [out]
    grad_w: Tensor,
    grad_b: Tensor,
    /// The `[in, B]` input of a Train/Eval forward, for the weight gradient.
    cached_input: Tensor,
    /// Prepacked weight operands from [`Layer::prepare_inference`]; dropped
    /// on any parameter mutation (see [`Layer::visit_params`]).
    packs: Option<DensePacks>,
    scratch: DenseScratch,
}

/// Both orientations of the frozen weight: `fwd` serves the `W · X`
/// forward product, `bwd` the `Wᵀ · G` input gradient.
#[derive(Debug, Clone)]
struct DensePacks {
    fwd: PackedOperand,
    bwd: PackedOperand,
}

/// Reusable buffers, mirroring `ConvScratch`: each call site owns its set so
/// sizes stay stable across steps and the `_into` kernels never reallocate
/// in steady state.
#[derive(Debug, Clone, Default)]
struct DenseScratch {
    fwd_packed: Vec<f32>, // packed input panels for the forward GEMM
    bwd_packed: Vec<f32>, // packed gradient panels for the dX GEMM
    rows: Vec<f32>,       // one lane's input row for the weight gradient
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

    /// `dW += g ⊗ x ; db += g` for each lane of the lane-major `[out, B]`
    /// gradient `grad` and `[in, B]` input `x`, lane after lane: each lane
    /// runs one sample's chains — rows whose gradient is zero skipped — so
    /// the lanes are never fused into one accumulation chain. Composite
    /// layers (squeeze-excitation) accumulate their dense sublayers'
    /// gradients through this too.
    pub(crate) fn accumulate_param_grads_lanes(&mut self, grad: &[f32], x: &[f32], lanes: usize) {
        let in_dim = self.in_dim();
        let mut row = std::mem::take(&mut self.scratch.rows);
        row.resize(in_dim, 0.0);
        one_lane_const!(lanes, {
            for b in 0..lanes {
                for (r, xs) in row.iter_mut().zip(x.chunks_exact(lanes)) {
                    *r = xs[b];
                }
                let gw = self.grad_w.data_mut().chunks_exact_mut(in_dim);
                for ((w, gb), gs) in gw.zip(self.grad_b.data_mut()).zip(grad.chunks_exact(lanes)) {
                    let g = gs[b];
                    if g != 0.0 {
                        for (w, &xv) in w.iter_mut().zip(&row) {
                            *w += g * xv;
                        }
                    }
                    *gb += g;
                }
            }
        });
        self.scratch.rows = row;
    }

    /// `W x + b` for each lane of a lane-major `[in, B]` batch, through a
    /// `matvec` chain per lane: every output lane sums `w·x` over the inputs
    /// in ascending order from -0.0, where `Iterator::sum` starts, then adds
    /// the bias. Composite layers (squeeze-excitation) run their dense
    /// sublayers through this.
    pub(crate) fn matvec_lanes(&self, x: &[f32], lanes: usize) -> Vec<f32> {
        let in_dim = self.in_dim();
        let mut out = vec![-0.0f32; self.out_dim() * lanes];
        one_lane_const!(lanes, {
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
        });
        out
    }

    /// `dx = Wᵀ g` for each lane of a lane-major `[out, B]` gradient: per
    /// lane, a chain over the outputs from +0.0 that skips zero gradients.
    pub(crate) fn input_grad_lanes(&self, grad_out: &[f32], lanes: usize) -> Vec<f32> {
        let in_dim = self.in_dim();
        let mut dx = vec![0.0f32; in_dim * lanes];
        one_lane_const!(lanes, {
            for (gs, row) in grad_out
                .chunks_exact(lanes)
                .zip(self.weight.data().chunks_exact(in_dim))
            {
                for (d, &w) in dx.chunks_exact_mut(lanes).zip(row) {
                    for (d, &g) in d.iter_mut().zip(gs) {
                        // Adding +0.0 to a chain that starts at +0.0
                        // keeps its bits: a select, bit-identical to
                        // skipping the product, that vectorises.
                        *d += if g != 0.0 { g * w } else { 0.0 };
                    }
                }
            }
        });
        dx
    }
}

impl Layer for Dense {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_lanes(&mut self, input: Tensor, mode: Mode) -> Result<Tensor> {
        let (out_dim, in_dim) = (self.out_dim(), self.in_dim());
        // Whatever the per-sample shape, a lane-major batch is the `[in, B]`
        // column matrix the GEMM multiplies: `big[i][s] = Σ_j w[i][j]·x_s[j]`
        // in ascending j, the `matvec_lanes` chain, so adding the bias last
        // reproduces it bitwise.
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
            // One lane would fill one of every 16 lanes of the GEMM's
            // panels: run its chains directly — each output from +0.0, as a
            // micro-kernel accumulator starts, adding `w·x` in ascending
            // input order. Without this arm and the backward's, one-lane
            // `predict_proba` of the tabular MLPs took 2.4–3.1× as long
            // and ConvNet's 1.1–1.25× (2-vCPU AVX-512 host, 1 thread, 10
            // alternating rounds).
            _ if lanes == 1 => out.extend(self.weight.data().chunks_exact(in_dim).map(|row| {
                row.iter()
                    .zip(xmat.data())
                    .fold(0.0f32, |acc, (&w, &x)| acc + w * x)
            })),
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
        // The cached input only feeds the dW outer products, which an
        // input-gradient backward never computes.
        self.cached_input = if mode == Mode::Inference {
            Tensor::default()
        } else {
            xmat
        };
        Tensor::from_vec(out, &[out_dim, lanes])
    }

    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        let in_dim = self.in_dim();
        let lanes = lanes_of(&grad_out, &[self.out_dim()], "dense backward_lanes")?;
        if wants.params() {
            check_cached(&self.cached_input, lanes, "dense backward_lanes")?;
            let x = std::mem::take(&mut self.cached_input);
            self.accumulate_param_grads_lanes(grad_out.data(), x.data(), lanes);
        }
        if !wants.input() {
            return Ok(Tensor::default());
        }
        // dx = Wᵀ g: one transpose-free GEMM over the `[out, B]` gradients,
        // through the prepacked Wᵀ when frozen. Each dx element's chain runs
        // over the out_dim axis within its own lane, matching
        // `input_grad_lanes` bitwise on finite data — the same ascending-i
        // order from +0.0, and skipping `g == 0.0` products is
        // bitwise-neutral (see the zero-skip note on `remix-tensor`'s
        // reference kernel) — so one lane, which would fill one of every 16
        // panel lanes, runs `input_grad_lanes` instead: one-lane
        // `input_gradient` of the tabular MLPs took 3.3–3.4× as long through
        // the GEMM, ConvNet's 1.35–1.45×.
        let mut dx = Vec::new();
        match &self.packs {
            _ if lanes == 1 => dx = self.input_grad_lanes(grad_out.data(), 1),
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
    use crate::layers::{backward_one, forward_one};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_computes_affine_map() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(2, 2, &mut rng);
        // overwrite with known weights
        d.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        d.bias = Tensor::from_slice(&[0.5, -0.5]);
        let y = forward_one(&mut d, &Tensor::from_slice(&[1.0, 1.0]), Mode::Eval);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_slice(&[0.3, -0.7, 0.9]);
        let y = forward_one(&mut d, &x, Mode::Train);
        // scalar loss = sum(y); dL/dy = ones
        let dx = backward_one(&mut d, &Tensor::ones(&[2]), Wants::Both);
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = forward_one(&mut d, &xp, Mode::Train);
            let num = (yp.sum() - y.sum()) / eps;
            assert!((num - dx.data()[i]).abs() < 1e-2, "input grad {i}");
        }
    }

    #[test]
    fn weight_gradient_accumulates() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(2, 1, &mut rng);
        let x = Tensor::from_slice(&[1.0, 2.0]);
        forward_one(&mut d, &x, Mode::Train);
        backward_one(&mut d, &Tensor::from_slice(&[1.0]), Wants::Both);
        forward_one(&mut d, &x, Mode::Train);
        assert!(backward_one(&mut d, &Tensor::from_slice(&[1.0]), Wants::Params).is_empty());
        assert_eq!(d.grad_w.data(), &[2.0, 4.0]);
        assert_eq!(d.grad_b.data(), &[2.0]);
        d.zero_grads();
        assert_eq!(d.grad_w.data(), &[0.0, 0.0]);
    }

    #[test]
    fn parameter_gradients_need_a_training_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = Dense::new(2, 1, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        d.forward_lanes(x.clone(), Mode::Inference).unwrap();
        assert!(d
            .backward_lanes(Tensor::ones(&[1, 2]), Wants::Both)
            .is_err());
        assert!(d
            .backward_lanes(Tensor::ones(&[1, 2]), Wants::Input)
            .is_ok());
        d.forward_lanes(x, Mode::Eval).unwrap();
        assert!(d
            .backward_lanes(Tensor::ones(&[1, 3]), Wants::Both)
            .is_err());
        assert!(d.backward_lanes(Tensor::ones(&[1, 2]), Wants::Both).is_ok());
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Dense::new(4, 3, &mut rng);
        assert_eq!(d.param_count(), 15);
    }
}
