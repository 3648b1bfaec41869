use crate::layers::Conv2d;
use crate::{Layer, Mode, Sequential};
use rand::Rng;
use remix_tensor::{Result, Tensor};

/// Residual block: `y = body(x) + shortcut(x)`.
///
/// The shortcut is the identity when the body preserves shape, or a strided
/// 1×1 projection convolution when the body changes channel count or spatial
/// resolution — exactly the two shortcut flavours of ResNet-18/50.
#[derive(Clone)]
pub struct Residual {
    body: Sequential,
    projection: Option<Conv2d>,
}

impl Residual {
    /// Creates an identity-shortcut block (body must preserve shape).
    pub fn identity(body: Sequential) -> Self {
        Self {
            body,
            projection: None,
        }
    }

    /// Creates a block with a 1×1 projection shortcut mapping
    /// `in_shape -> (out_channels, ...)` at `stride`.
    pub fn projected(
        body: Sequential,
        in_shape: (usize, usize, usize),
        out_channels: usize,
        stride: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            body,
            projection: Some(Conv2d::new(in_shape, out_channels, 1, stride, 0, rng)),
        }
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Residual(body={:?}, projected={})",
            self.body,
            self.projection.is_some()
        )
    }
}

impl Layer for Residual {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut out = self.body.forward(input, mode);
        let shortcut = match &mut self.projection {
            Some(proj) => proj.forward(input, mode),
            None => input.clone(),
        };
        out.add_assign(&shortcut)
            .expect("residual body and shortcut shapes must agree");
        out
    }

    fn try_forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut out = self.body.try_forward(input, mode)?;
        let shortcut = match &mut self.projection {
            Some(proj) => proj.try_forward(input, mode)?,
            None => input.clone(),
        };
        out.add_assign(&shortcut)?;
        Ok(out)
    }

    fn forward_batch(&mut self, inputs: &[Tensor], mode: Mode) -> Result<Vec<Tensor>> {
        let mut outs = self.body.forward_batch(inputs, mode)?;
        match &mut self.projection {
            Some(proj) => {
                let shorts = proj.forward_batch(inputs, mode)?;
                for (o, s) in outs.iter_mut().zip(&shorts) {
                    o.add_assign(s)?;
                }
            }
            None => {
                for (o, s) in outs.iter_mut().zip(inputs) {
                    o.add_assign(s)?;
                }
            }
        }
        Ok(outs)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut dx = self.body.backward(grad_out);
        let d_short = match &mut self.projection {
            Some(proj) => proj.backward(grad_out),
            None => grad_out.clone(),
        };
        dx.add_assign(&d_short).expect("shortcut grad shape");
        dx
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let mut dx = self.body.backward_input(grad_out);
        let d_short = match &mut self.projection {
            Some(proj) => proj.backward_input(grad_out),
            None => grad_out.clone(),
        };
        dx.add_assign(&d_short).expect("shortcut grad shape");
        dx
    }

    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor> {
        let mut out = self.body.forward_lanes(input.clone())?;
        let shortcut = match &mut self.projection {
            Some(proj) => proj.forward_lanes(input)?,
            None => input,
        };
        out.add_assign(&shortcut)?;
        Ok(out)
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let mut dx = self.body.backward_input_lanes(grad_out.clone())?;
        let d_short = match &mut self.projection {
            Some(proj) => proj.backward_input_lanes(grad_out)?,
            None => grad_out,
        };
        dx.add_assign(&d_short)?;
        Ok(dx)
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        // Body and projection own disjoint parameter sets, so running the
        // body's batched backward before the projection's preserves each
        // parameter's per-sample accumulation chain.
        let mut dxs = self.body.backward_batch(grads_out)?;
        match &mut self.projection {
            Some(proj) => {
                let shorts = proj.backward_batch(grads_out)?;
                for (d, s) in dxs.iter_mut().zip(&shorts) {
                    d.add_assign(s)?;
                }
            }
            None => {
                for (d, g) in dxs.iter_mut().zip(grads_out) {
                    d.add_assign(g)?;
                }
            }
        }
        Ok(dxs)
    }

    fn supports_batched_train(&self) -> bool {
        self.body.supports_batched_train()
            && self
                .projection
                .as_ref()
                .is_none_or(Layer::supports_batched_train)
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.body.visit_params(visit);
        if let Some(proj) = &mut self.projection {
            proj.visit_params(visit);
        }
    }

    fn prepare_inference(&mut self) {
        self.body.prepare_inference();
        if let Some(proj) = &mut self.projection {
            proj.prepare_inference();
        }
    }

    fn name(&self) -> &'static str {
        "Residual"
    }

    fn param_count(&self) -> usize {
        self.body.param_count() + self.projection.as_ref().map_or(0, |p| p.param_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Relu;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn identity_block_with_empty_body_doubles_nothing() {
        // body = ReLU only: y = relu(x) + x
        let mut body = Sequential::new();
        body.push(Relu::new());
        let mut block = Residual::identity(body);
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2, 1, 1]).unwrap();
        let y = block.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[-1.0, 4.0]);
    }

    #[test]
    fn gradient_flows_through_both_paths() {
        let mut body = Sequential::new();
        body.push(Relu::new());
        let mut block = Residual::identity(body);
        let x = Tensor::from_vec(vec![1.0, -1.0], &[2, 1, 1]).unwrap();
        block.forward(&x, Mode::Train);
        let dx = block.backward(&Tensor::ones(&[2, 1, 1]));
        // positive input: relu path + identity = 2; negative: identity only = 1
        assert_eq!(dx.data(), &[2.0, 1.0]);
    }

    #[test]
    fn projected_block_changes_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut body = Sequential::new();
        body.push(Conv2d::new((2, 4, 4), 4, 3, 2, 1, &mut rng));
        let mut block = Residual::projected(body, (2, 4, 4), 4, 2, &mut rng);
        let x = Tensor::randn(&[2, 4, 4], 1.0, &mut rng);
        let y = block.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[4, 2, 2]);
        let dx = block.backward(&Tensor::ones(&[4, 2, 2]));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn projected_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut body = Sequential::new();
        body.push(Conv2d::new((1, 4, 4), 2, 3, 1, 1, &mut rng));
        let mut block = Residual::projected(body, (1, 4, 4), 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 4, 4], 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train);
        let dx = block.backward(&Tensor::ones(y.shape()));
        let eps = 1e-2;
        for &i in &[0usize, 6, 15] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = block.forward(&xp, Mode::Train);
            let num = (yp.sum() - y.sum()) / eps;
            assert!((num - dx.data()[i]).abs() < 5e-2, "grad at {i}");
        }
    }

    #[test]
    fn lane_projected_block_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut body = Sequential::new();
        body.push(Conv2d::new((2, 4, 4), 4, 3, 2, 1, &mut rng));
        let mut block = Residual::projected(body, (2, 4, 4), 4, 2, &mut rng);
        let xs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[2, 4, 4], 1.0, &mut rng))
            .collect();
        let gs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[4, 2, 2], 1.0, &mut rng))
            .collect();
        let mut seq_y = Vec::new();
        let mut seq_dx = Vec::new();
        for (x, g) in xs.iter().zip(&gs) {
            seq_y.push(block.forward(x, Mode::Inference));
            seq_dx.push(block.backward_input(g));
        }
        let bat_y = block
            .forward_lanes(Tensor::stack_lanes(&xs).unwrap())
            .unwrap()
            .unstack_lanes();
        let bat_dx = block
            .backward_input_lanes(Tensor::stack_lanes(&gs).unwrap())
            .unwrap()
            .unstack_lanes();
        assert_eq!(seq_y, bat_y);
        assert_eq!(seq_dx, bat_dx);
    }
}
