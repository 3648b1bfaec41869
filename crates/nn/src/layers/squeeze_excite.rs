use super::plane_lanes_of;
use crate::layers::Dense;
use crate::{Layer, Mode};
use rand::Rng;
use remix_tensor::{Result, Tensor, TensorError};

/// Squeeze-and-excitation channel gating, as used inside the MBConv blocks of
/// EfficientNetV2.
///
/// `y[c] = x[c] * sigmoid(W2 relu(W1 gap(x)))[c]`.
#[derive(Clone)]
pub struct SqueezeExcite {
    reduce: Dense,
    expand: Dense,
    channels: usize,
    spatial: usize,
    cached_input: Tensor,
    cached_gate: Vec<f32>,
    cached_hidden: Vec<f32>,
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
        }
    }

    /// One forward pass, returning `(output, gate, hidden)`.
    fn forward_one(&mut self, input: &Tensor, mode: Mode) -> (Tensor, Vec<f32>, Vec<f32>) {
        // squeeze: global average pool
        let mut pooled = vec![0.0f32; self.channels];
        for (c, p) in pooled.iter_mut().enumerate() {
            *p = input.data()[c * self.spatial..(c + 1) * self.spatial]
                .iter()
                .sum::<f32>()
                / self.spatial as f32;
        }
        // excite: reduce -> relu -> expand -> sigmoid
        let h_pre = self.reduce.forward(&Tensor::from_slice(&pooled), mode);
        let h: Vec<f32> = h_pre.data().iter().map(|&v| v.max(0.0)).collect();
        let g_pre = self.expand.forward(&Tensor::from_slice(&h), mode);
        let gate: Vec<f32> = g_pre
            .data()
            .iter()
            .map(|&v| 1.0 / (1.0 + (-v).exp()))
            .collect();
        // scale channels
        let mut out = input.clone();
        {
            let buf = out.data_mut();
            for c in 0..self.channels {
                for v in &mut buf[c * self.spatial..(c + 1) * self.spatial] {
                    *v *= gate[c];
                }
            }
        }
        (out, gate, h)
    }

    /// Input gradient through the gate and the pooled excitation path,
    /// without accumulating the dense sublayers' parameter gradients. The
    /// accumulation order matches [`Layer::backward`] exactly.
    fn input_grad_from(
        &self,
        grad_out: &Tensor,
        input: &Tensor,
        gate: &[f32],
        hidden: &[f32],
    ) -> Tensor {
        // dL/dx (direct path): grad_out * gate
        let mut dx = grad_out.clone();
        {
            let buf = dx.data_mut();
            for c in 0..self.channels {
                for v in &mut buf[c * self.spatial..(c + 1) * self.spatial] {
                    *v *= gate[c];
                }
            }
        }
        // dL/dgate[c] = sum_s grad_out[c,s] * x[c,s]
        let mut dgate = vec![0.0f32; self.channels];
        for (c, d) in dgate.iter_mut().enumerate() {
            *d = grad_out.data()[c * self.spatial..(c + 1) * self.spatial]
                .iter()
                .zip(&input.data()[c * self.spatial..(c + 1) * self.spatial])
                .map(|(&g, &x)| g * x)
                .sum();
        }
        // through sigmoid
        let dg_pre: Vec<f32> = dgate
            .iter()
            .zip(gate)
            .map(|(&d, &g)| d * g * (1.0 - g))
            .collect();
        // through expand dense (input path only)
        let dh = self.expand.input_grad(&Tensor::from_slice(&dg_pre));
        // through relu
        let dh_pre: Vec<f32> = dh
            .data()
            .iter()
            .zip(hidden)
            .map(|(&d, &h)| if h > 0.0 { d } else { 0.0 })
            .collect();
        // through reduce dense (input path only)
        let dpool = self.reduce.input_grad(&Tensor::from_slice(&dh_pre));
        // spread pooled gradient back over spatial positions
        {
            let buf = dx.data_mut();
            let norm = 1.0 / self.spatial as f32;
            for c in 0..self.channels {
                let dv = dpool.data()[c] * norm;
                for v in &mut buf[c * self.spatial..(c + 1) * self.spatial] {
                    *v += dv;
                }
            }
        }
        dx
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

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (out, gate, hidden) = self.forward_one(input, mode);
        // The input/gate/hidden triple feeds the *input* gradient, so it is
        // kept in every mode (unlike parameter-gradient caches).
        self.cached_input = input.clone();
        self.cached_gate = gate;
        self.cached_hidden = hidden;
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // dL/dx (direct path): grad_out * gate
        let mut dx = grad_out.clone();
        {
            let buf = dx.data_mut();
            for c in 0..self.channels {
                for v in &mut buf[c * self.spatial..(c + 1) * self.spatial] {
                    *v *= self.cached_gate[c];
                }
            }
        }
        // dL/dgate[c] = sum_s grad_out[c,s] * x[c,s]
        let mut dgate = vec![0.0f32; self.channels];
        for (c, d) in dgate.iter_mut().enumerate() {
            *d = grad_out.data()[c * self.spatial..(c + 1) * self.spatial]
                .iter()
                .zip(&self.cached_input.data()[c * self.spatial..(c + 1) * self.spatial])
                .map(|(&g, &x)| g * x)
                .sum();
        }
        // through sigmoid
        let dg_pre: Vec<f32> = dgate
            .iter()
            .zip(&self.cached_gate)
            .map(|(&d, &g)| d * g * (1.0 - g))
            .collect();
        // through expand dense
        let dh = self.expand.backward(&Tensor::from_slice(&dg_pre));
        // through relu
        let dh_pre: Vec<f32> = dh
            .data()
            .iter()
            .zip(&self.cached_hidden)
            .map(|(&d, &h)| if h > 0.0 { d } else { 0.0 })
            .collect();
        // through reduce dense
        let dpool = self.reduce.backward(&Tensor::from_slice(&dh_pre));
        // spread pooled gradient back over spatial positions
        {
            let buf = dx.data_mut();
            let norm = 1.0 / self.spatial as f32;
            for c in 0..self.channels {
                let dv = dpool.data()[c] * norm;
                for v in &mut buf[c * self.spatial..(c + 1) * self.spatial] {
                    *v += dv;
                }
            }
        }
        dx
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.input_grad_from(
            grad_out,
            &self.cached_input,
            &self.cached_gate,
            &self.cached_hidden,
        )
    }

    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor> {
        // Each lane runs `forward_one`'s chains: the pooled sums from -0.0,
        // the dense sublayers' per-sample matvecs, then the channel gates.
        let lanes = plane_lanes_of(
            &input,
            self.channels,
            self.spatial,
            "squeeze_excite forward_lanes",
        )?;
        let plane = self.spatial * lanes;
        let mut pooled = vec![-0.0f32; self.channels * lanes];
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
        let mut hidden = self.reduce.matvec_lanes(&pooled, lanes);
        for h in &mut hidden {
            *h = h.max(0.0);
        }
        let mut gate = self.expand.matvec_lanes(&hidden, lanes);
        for g in &mut gate {
            *g = 1.0 / (1.0 + (-*g).exp());
        }
        let mut out = input.clone();
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
        self.cached_input = input;
        self.cached_gate = gate;
        self.cached_hidden = hidden;
        Ok(out)
    }

    fn backward_input_lanes(&mut self, mut grad_out: Tensor) -> Result<Tensor> {
        // `input_grad_from`, lane by lane.
        if grad_out.shape() != self.cached_input.shape() {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.shape().to_vec(),
                right: self.cached_input.shape().to_vec(),
                op: "squeeze_excite backward_input_lanes",
            });
        }
        let lanes = plane_lanes_of(
            &grad_out,
            self.channels,
            self.spatial,
            "squeeze_excite backward_input_lanes",
        )?;
        let plane = self.spatial * lanes;
        // dL/dgate[c] = Σ_s grad_out[c,s] · x[c,s], from -0.0
        let mut dgate = vec![-0.0f32; self.channels * lanes];
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
        // through sigmoid, expand, relu and reduce (input paths only)
        let dg_pre: Vec<f32> = dgate
            .iter()
            .zip(&self.cached_gate)
            .map(|(&d, &g)| d * g * (1.0 - g))
            .collect();
        let mut dh = self.expand.input_grad_lanes(&dg_pre, lanes);
        for (d, &h) in dh.iter_mut().zip(&self.cached_hidden) {
            *d = if h > 0.0 { *d } else { 0.0 };
        }
        let dpool = self.reduce.input_grad_lanes(&dh, lanes);
        // direct path grad_out · gate, plus the pooled gradient spread back
        // over the spatial positions
        let norm = 1.0 / self.spatial as f32;
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
        Ok(grad_out)
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.reduce.visit_params(visit);
        self.expand.visit_params(visit);
    }

    fn prepare_inference(&mut self) {
        // The SE excitation path runs its Dense sublayers' per-sample chains
        // (matvec, never the batched GEMM), so freezing them installs packs
        // that stay unused — but forwarding keeps the freeze invariant
        // uniform should they ever batch.
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
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn output_is_gated_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut se = SqueezeExcite::new((2, 2, 2), 2, &mut rng);
        let x = Tensor::ones(&[2, 2, 2]);
        let y = se.forward(&x, Mode::Eval);
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
        let y = se.forward(&x, Mode::Train);
        let dx = se.backward(&Tensor::ones(y.shape()));
        let eps = 1e-2;
        for &i in &[0usize, 5, 13, 17] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = se.forward(&xp, Mode::Train);
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
    fn input_gradient_matches_full_backward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut se = SqueezeExcite::new((4, 3, 3), 2, &mut rng);
        let x = Tensor::randn(&[4, 3, 3], 1.0, &mut rng);
        let g = Tensor::randn(&[4, 3, 3], 1.0, &mut rng);
        se.forward(&x, Mode::Train);
        let dx_full = se.backward(&g);
        se.forward(&x, Mode::Inference);
        let dx_input = se.backward_input(&g);
        assert_eq!(dx_full.data(), dx_input.data());
    }
}
