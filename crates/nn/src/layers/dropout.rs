use crate::{Layer, Mode, Wants};
use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_tensor::{Result, Tensor, TensorError};

/// Inverted dropout: in training mode zeroes activations with probability `p`
/// and rescales survivors by `1/(1-p)`; identity in evaluation mode.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    /// The lane-major mask of a Train forward; `None` after an identity
    /// (Eval/Inference) forward.
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0, 1), got {p}"
        );
        Self {
            p,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        }
    }

    /// Draws the lane-major mask of `len` elements over `lanes` lanes. The
    /// masks are drawn lane after lane, each lane's elements in order, so
    /// the RNG stream is consumed exactly as `lanes` one-lane forwards
    /// would consume it.
    fn draw_mask(&mut self, len: usize, lanes: usize) -> Vec<f32> {
        let keep = 1.0 - self.p;
        let mut mask = vec![0.0f32; len];
        for b in 0..lanes {
            for m in mask[b..].iter_mut().step_by(lanes) {
                *m = if self.rng.gen::<f32>() < self.p {
                    0.0
                } else {
                    1.0 / keep
                };
            }
        }
        mask
    }
}

impl Layer for Dropout {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_lanes(&mut self, mut input: Tensor, mode: Mode) -> Result<Tensor> {
        self.mask = None;
        if mode == Mode::Train {
            let lanes = input.shape().last().copied().unwrap_or(1).max(1);
            let mask = self.draw_mask(input.len(), lanes);
            for (v, &m) in input.data_mut().iter_mut().zip(&mask) {
                *v *= m;
            }
            self.mask = Some(mask);
        }
        Ok(input)
    }

    fn backward_lanes(&mut self, mut grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        if !wants.input() {
            return Ok(Tensor::default());
        }
        if let Some(mask) = &self.mask {
            if grad_out.len() != mask.len() {
                return Err(TensorError::ShapeMismatch {
                    left: grad_out.shape().to_vec(),
                    right: vec![mask.len()],
                    op: "dropout backward_lanes",
                });
            }
            for (g, &m) in grad_out.data_mut().iter_mut().zip(mask) {
                *g *= m;
            }
        }
        Ok(grad_out)
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{backward_one, forward_one};

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[100]);
        let y = forward_one(&mut d, &x, Mode::Eval);
        assert_eq!(y, x);
    }

    #[test]
    fn train_mode_drops_and_rescales() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(&[10_000]);
        let y = forward_one(&mut d, &x, Mode::Train);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!((zeros as f32 / 10_000.0 - 0.5).abs() < 0.05);
        // survivors are scaled so the expectation is preserved
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[1000]);
        let y = forward_one(&mut d, &x, Mode::Train);
        let dx = backward_one(&mut d, &Tensor::ones(&[1000]), Wants::Both);
        // gradient is zero exactly where the forward output was zero
        for (o, g) in y.data().iter().zip(dx.data()) {
            assert_eq!(*o == 0.0, *g == 0.0);
        }
    }

    #[test]
    fn lane_masks_are_drawn_lane_after_lane() {
        let xs: Vec<Tensor> = (0..3)
            .map(|b| Tensor::full(&[5, 2], 1.0 + b as f32))
            .collect();
        let mut one_lane = Dropout::new(0.5, 6);
        let ys: Vec<Tensor> = xs
            .iter()
            .map(|x| forward_one(&mut one_lane, x, Mode::Train))
            .collect();
        let mut lanes = Dropout::new(0.5, 6);
        let y = lanes
            .forward_lanes(Tensor::stack_lanes(&xs).unwrap(), Mode::Train)
            .unwrap();
        assert_eq!(y.unstack_lanes(), ys);
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn rejects_invalid_probability() {
        Dropout::new(1.0, 4);
    }
}
