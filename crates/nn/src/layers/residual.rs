use crate::layers::Conv2d;
use crate::{Layer, Mode, Sequential, Wants};
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

    fn forward_lanes(&mut self, input: Tensor, mode: Mode) -> Result<Tensor> {
        let mut out = self.body.forward_lanes(input.clone(), mode)?;
        let shortcut = match &mut self.projection {
            Some(proj) => proj.forward_lanes(input, mode)?,
            None => input,
        };
        out.add_assign(&shortcut)?;
        Ok(out)
    }

    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        // Body and projection own disjoint parameter sets, so running the
        // body's backward before the projection's keeps each parameter's
        // lane-by-lane accumulation chain.
        let mut dx = self.body.backward_lanes(grad_out.clone(), wants)?;
        let d_short = match &mut self.projection {
            Some(proj) => proj.backward_lanes(grad_out, wants)?,
            None => grad_out,
        };
        if wants.input() {
            dx.add_assign(&d_short)?;
        }
        Ok(dx)
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
    use crate::layers::{backward_one, forward_one, Relu};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn identity_block_with_empty_body_doubles_nothing() {
        // body = ReLU only: y = relu(x) + x
        let mut body = Sequential::new();
        body.push(Relu::new());
        let mut block = Residual::identity(body);
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2, 1, 1]).unwrap();
        let y = forward_one(&mut block, &x, Mode::Eval);
        assert_eq!(y.data(), &[-1.0, 4.0]);
    }

    #[test]
    fn gradient_flows_through_both_paths() {
        let mut body = Sequential::new();
        body.push(Relu::new());
        let mut block = Residual::identity(body);
        let x = Tensor::from_vec(vec![1.0, -1.0], &[2, 1, 1]).unwrap();
        forward_one(&mut block, &x, Mode::Train);
        let dx = backward_one(&mut block, &Tensor::ones(&[2, 1, 1]), Wants::Both);
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
        let y = forward_one(&mut block, &x, Mode::Eval);
        assert_eq!(y.shape(), &[4, 2, 2]);
        let dx = backward_one(&mut block, &Tensor::ones(&[4, 2, 2]), Wants::Both);
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn projected_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut body = Sequential::new();
        body.push(Conv2d::new((1, 4, 4), 2, 3, 1, 1, &mut rng));
        let mut block = Residual::projected(body, (1, 4, 4), 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 4, 4], 1.0, &mut rng);
        let y = forward_one(&mut block, &x, Mode::Train);
        let dx = backward_one(&mut block, &Tensor::ones(y.shape()), Wants::Both);
        let eps = 1e-2;
        for &i in &[0usize, 6, 15] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = forward_one(&mut block, &xp, Mode::Train);
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
        crate::layers::assert_lanes_match_one_lane(&mut block, &xs, &gs);
    }
}
