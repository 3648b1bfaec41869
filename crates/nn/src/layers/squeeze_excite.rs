use super::plane_lanes_of;
use crate::layers::Dense;
use crate::{Layer, Mode, Wants};
use rand::Rng;
use remix_tensor::{Result, Tensor, TensorError};

/// Squeeze-and-excitation channel gating, as used inside the MBConv blocks of
/// EfficientNetV2.
///
/// `y[c] = x[c] * sigmoid(W2 relu(W1 gap(x)))[c]`.
///
/// The excitation path is tiny (`C → C/r → C` per sample), so its dense
/// sublayers run their per-lane chains (`Dense::matvec_lanes`,
/// `Dense::input_grad_lanes`) instead of a GEMM.
#[derive(Clone)]
pub struct SqueezeExcite {
    reduce: Dense,
    expand: Dense,
    channels: usize,
    spatial: usize,
    cached_input: Tensor,
    cached_gate: Vec<f32>,
    cached_hidden: Vec<f32>,
    /// The lane-major pooled input of a Train/Eval forward: what `reduce`
    /// saw, for its weight gradient.
    cached_pooled: Vec<f32>,
}

impl SqueezeExcite {
    /// Creates an SE block over `in_shape = (channels, h, w)` with the hidden
    /// width `channels / reduction` (at least 1).
    pub fn new(in_shape: (usize, usize, usize), reduction: usize, rng: &mut impl Rng) -> Self {
        let (c, h, w) = in_shape;
        let hidden = (c / reduction).max(1);
        Self {
            reduce: Dense::new(c, hidden, rng),
            expand: Dense::new(hidden, c, rng),
            channels: c,
            spatial: h * w,
            cached_input: Tensor::default(),
            cached_gate: Vec::new(),
            cached_hidden: Vec::new(),
            cached_pooled: Vec::new(),
        }
    }
}

impl std::fmt::Debug for SqueezeExcite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SqueezeExcite(channels={})", self.channels)
    }
}

impl Layer for SqueezeExcite {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_lanes(&mut self, input: Tensor, mode: Mode) -> Result<Tensor> {
        // Each lane runs one sample's chains: the pooled sums from -0.0, the
        // dense sublayers' matvecs, then the channel gates. The
        // input/gate/hidden triple feeds the *input* gradient, so it is kept
        // in every mode; the pooled input only in Train/Eval.
        let lanes = plane_lanes_of(
            &input,
            self.channels,
            self.spatial,
            "squeeze_excite forward_lanes",
        )?;
        let plane = self.spatial * lanes;
        let mut pooled = vec![-0.0f32; self.channels * lanes];
        one_lane_const!(lanes, {
            for (p, xplane) in pooled
                .chunks_exact_mut(lanes)
                .zip(input.data().chunks_exact(plane))
            {
                for row in xplane.chunks_exact(lanes) {
                    for (a, &v) in p.iter_mut().zip(row) {
                        *a += v;
                    }
                }
                for a in p {
                    *a /= self.spatial as f32;
                }
            }
        });
        let mut hidden = self.reduce.matvec_lanes(&pooled, lanes);
        for h in &mut hidden {
            *h = h.max(0.0);
        }
        let mut gate = self.expand.matvec_lanes(&hidden, lanes);
        for g in &mut gate {
            *g = 1.0 / (1.0 + (-*g).exp());
        }
        let mut out = input.clone();
        one_lane_const!(lanes, {
            for (oplane, g) in out
                .data_mut()
                .chunks_exact_mut(plane)
                .zip(gate.chunks_exact(lanes))
            {
                for row in oplane.chunks_exact_mut(lanes) {
                    for (v, &g) in row.iter_mut().zip(g) {
                        *v *= g;
                    }
                }
            }
        });
        self.cached_input = input;
        self.cached_gate = gate;
        self.cached_hidden = hidden;
        self.cached_pooled = if mode == Mode::Inference {
            Vec::new()
        } else {
            pooled
        };
        Ok(out)
    }

    fn backward_lanes(&mut self, mut grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        if grad_out.shape() != self.cached_input.shape() {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.shape().to_vec(),
                right: self.cached_input.shape().to_vec(),
                op: "squeeze_excite backward_lanes",
            });
        }
        let lanes = plane_lanes_of(
            &grad_out,
            self.channels,
            self.spatial,
            "squeeze_excite backward_lanes",
        )?;
        if wants.params() && self.cached_pooled.len() != self.channels * lanes {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.cached_pooled.len()],
                right: vec![self.channels, lanes],
                op: "squeeze_excite backward_lanes",
            });
        }
        let plane = self.spatial * lanes;
        // dL/dgate[c] = Σ_s grad_out[c,s] · x[c,s], from -0.0
        let mut dgate = vec![-0.0f32; self.channels * lanes];
        one_lane_const!(lanes, {
            for ((d, gplane), xplane) in dgate
                .chunks_exact_mut(lanes)
                .zip(grad_out.data().chunks_exact(plane))
                .zip(self.cached_input.data().chunks_exact(plane))
            {
                for (grow, xrow) in gplane.chunks_exact(lanes).zip(xplane.chunks_exact(lanes)) {
                    for ((a, &g), &x) in d.iter_mut().zip(grow).zip(xrow) {
                        *a += g * x;
                    }
                }
            }
        });
        // through sigmoid, expand, relu and reduce; the dense sublayers'
        // parameter gradients accumulate lane after lane
        let dg_pre: Vec<f32> = dgate
            .iter()
            .zip(&self.cached_gate)
            .map(|(&d, &g)| d * g * (1.0 - g))
            .collect();
        if wants.params() {
            self.expand
                .accumulate_param_grads_lanes(&dg_pre, &self.cached_hidden, lanes);
        }
        let mut dh = self.expand.input_grad_lanes(&dg_pre, lanes);
        for (d, &h) in dh.iter_mut().zip(&self.cached_hidden) {
            *d = if h > 0.0 { *d } else { 0.0 };
        }
        if wants.params() {
            let pooled = std::mem::take(&mut self.cached_pooled);
            self.reduce
                .accumulate_param_grads_lanes(&dh, &pooled, lanes);
        }
        if !wants.input() {
            return Ok(Tensor::default());
        }
        let dpool = self.reduce.input_grad_lanes(&dh, lanes);
        // direct path grad_out · gate, plus the pooled gradient spread back
        // over the spatial positions
        let norm = 1.0 / self.spatial as f32;
        one_lane_const!(lanes, {
            for ((dplane, g), dp) in grad_out
                .data_mut()
                .chunks_exact_mut(plane)
                .zip(self.cached_gate.chunks_exact(lanes))
                .zip(dpool.chunks_exact(lanes))
            {
                for row in dplane.chunks_exact_mut(lanes) {
                    for ((v, &g), &d) in row.iter_mut().zip(g).zip(dp) {
                        *v *= g;
                        *v += d * norm;
                    }
                }
            }
        });
        Ok(grad_out)
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.reduce.visit_params(visit);
        self.expand.visit_params(visit);
    }

    fn prepare_inference(&mut self) {
        // The excitation path runs its Dense sublayers' per-lane chains,
        // never the GEMM, so freezing them installs packs that stay unused —
        // but forwarding keeps the freeze invariant uniform should they ever
        // use it.
        self.reduce.prepare_inference();
        self.expand.prepare_inference();
    }

    fn name(&self) -> &'static str {
        "SqueezeExcite"
    }

    fn param_count(&self) -> usize {
        self.reduce.param_count() + self.expand.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{backward_one, forward_one};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn output_is_gated_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut se = SqueezeExcite::new((2, 2, 2), 2, &mut rng);
        let x = Tensor::ones(&[2, 2, 2]);
        let y = forward_one(&mut se, &x, Mode::Eval);
        assert_eq!(y.shape(), x.shape());
        // each channel is uniformly scaled by a gate in (0, 1)
        for c in 0..2 {
            let ch = y.index_axis0(c).unwrap();
            let first = ch.data()[0];
            assert!(first > 0.0 && first < 1.0);
            assert!(ch.data().iter().all(|&v| (v - first).abs() < 1e-6));
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut se = SqueezeExcite::new((2, 3, 3), 2, &mut rng);
        let x = Tensor::randn(&[2, 3, 3], 1.0, &mut rng);
        let y = forward_one(&mut se, &x, Mode::Train);
        let dx = backward_one(&mut se, &Tensor::ones(y.shape()), Wants::Both);
        let eps = 1e-2;
        for &i in &[0usize, 5, 13, 17] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = forward_one(&mut se, &xp, Mode::Train);
            let num = (yp.sum() - y.sum()) / eps;
            assert!(
                (num - dx.data()[i]).abs() < 5e-2,
                "grad at {i}: fd={num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn has_trainable_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let se = SqueezeExcite::new((8, 2, 2), 4, &mut rng);
        // reduce: 8*2+2, expand: 2*8+8
        assert_eq!(se.param_count(), 18 + 24);
    }

    #[test]
    fn input_gradient_ignores_the_mode_and_the_parameter_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut se = SqueezeExcite::new((4, 3, 3), 2, &mut rng);
        let x = Tensor::randn(&[4, 3, 3], 1.0, &mut rng);
        let g = Tensor::randn(&[4, 3, 3], 1.0, &mut rng);
        forward_one(&mut se, &x, Mode::Train);
        let dx_full = backward_one(&mut se, &g, Wants::Both);
        forward_one(&mut se, &x, Mode::Inference);
        let dx_input = backward_one(&mut se, &g, Wants::Input);
        assert_eq!(dx_full.data(), dx_input.data());
        assert!(se.backward_lanes(g.one_lane(), Wants::Params).is_err());
    }

    #[test]
    fn lanes_match_one_lane() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut se = SqueezeExcite::new((4, 2, 3), 2, &mut rng);
        let xs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[4, 2, 3], 1.0, &mut rng))
            .collect();
        let gs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[4, 2, 3], 1.0, &mut rng))
            .collect();
        crate::layers::assert_lanes_match_one_lane(&mut se, &xs, &gs);
    }
}
