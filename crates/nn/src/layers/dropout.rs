use crate::{Layer, Mode};
use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_tensor::{Result, Tensor, TensorError};

/// Inverted dropout: in training mode zeroes activations with probability `p`
/// and rescales survivors by `1/(1-p)`; identity in evaluation mode.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<Vec<f32>>,
    batch_masks: Vec<Vec<f32>>,
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
            batch_masks: Vec::new(),
        }
    }

    fn draw_mask(&mut self, len: usize) -> Vec<f32> {
        let keep = 1.0 - self.p;
        (0..len)
            .map(|_| {
                if self.rng.gen::<f32>() < self.p {
                    0.0
                } else {
                    1.0 / keep
                }
            })
            .collect()
    }
}

impl Layer for Dropout {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match mode {
            Mode::Eval | Mode::Inference => {
                self.mask = None;
                input.clone()
            }
            Mode::Train => {
                let mask = self.draw_mask(input.len());
                let data = input
                    .data()
                    .iter()
                    .zip(&mask)
                    .map(|(&v, &m)| v * m)
                    .collect();
                self.mask = Some(mask);
                Tensor::from_vec(data, input.shape()).expect("same shape")
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            None => grad_out.clone(),
            Some(mask) => {
                let data = grad_out
                    .data()
                    .iter()
                    .zip(mask)
                    .map(|(&g, &m)| g * m)
                    .collect();
                Tensor::from_vec(data, grad_out.shape()).expect("same shape")
            }
        }
    }

    fn forward_batch(&mut self, inputs: &[Tensor], mode: Mode) -> Result<Vec<Tensor>> {
        match mode {
            Mode::Eval | Mode::Inference => {
                self.mask = None;
                self.batch_masks.clear();
                Ok(inputs.to_vec())
            }
            Mode::Train => {
                // Masks are drawn sample-by-sample in batch order, consuming
                // the RNG stream exactly as a per-sample forward loop would —
                // so batched training stays bit-identical to per-sample
                // training (including the random masks).
                self.mask = None;
                self.batch_masks = inputs.iter().map(|x| self.draw_mask(x.len())).collect();
                inputs
                    .iter()
                    .zip(&self.batch_masks)
                    .map(|(x, mask)| {
                        let data = x.data().iter().zip(mask).map(|(&v, &m)| v * m).collect();
                        Tensor::from_vec(data, x.shape())
                    })
                    .collect()
            }
        }
    }

    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor> {
        // Identity in inference mode, like `forward`.
        self.mask = None;
        Ok(input)
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        Ok(grad_out)
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        // No parameters: applying the per-sample masks is the whole training
        // backward.
        if self.batch_masks.is_empty() {
            // Identity after an eval-mode forward.
            return Ok(grads_out.to_vec());
        }
        if grads_out.len() != self.batch_masks.len() {
            return Err(TensorError::ShapeMismatch {
                left: vec![grads_out.len()],
                right: vec![self.batch_masks.len()],
                op: "dropout batched backward",
            });
        }
        grads_out
            .iter()
            .zip(&self.batch_masks)
            .map(|(g, mask)| {
                let data = g.data().iter().zip(mask).map(|(&g, &m)| g * m).collect();
                Tensor::from_vec(data, g.shape())
            })
            .collect()
    }

    fn supports_batched_train(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[100]);
        let y = d.forward(&x, Mode::Eval);
        assert_eq!(y, x);
    }

    #[test]
    fn train_mode_drops_and_rescales() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x, Mode::Train);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!((zeros as f32 / 10_000.0 - 0.5).abs() < 0.05);
        // survivors are scaled so the expectation is preserved
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[1000]);
        let y = d.forward(&x, Mode::Train);
        let dx = d.backward(&Tensor::ones(&[1000]));
        // gradient is zero exactly where the forward output was zero
        for (o, g) in y.data().iter().zip(dx.data()) {
            assert_eq!(*o == 0.0, *g == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn rejects_invalid_probability() {
        Dropout::new(1.0, 4);
    }
}
