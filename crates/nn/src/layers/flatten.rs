use crate::{Layer, Mode};
use remix_tensor::{Result, Tensor};

/// Flattens any input to rank 1 (a lane-major batch to `[features, B]`)
/// and restores the shape on the way back.
#[derive(Debug, Default, Clone)]
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.in_shape = input.shape().to_vec();
        input.flatten()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out
            .reshape(&self.in_shape)
            .expect("flatten backward restores cached shape")
    }

    fn forward_batch(&mut self, inputs: &[Tensor], _mode: Mode) -> Result<Vec<Tensor>> {
        // All samples in a batch share a shape, so one cached shape suffices.
        if let Some(first) = inputs.first() {
            self.in_shape = first.shape().to_vec();
        }
        Ok(inputs.iter().map(Tensor::flatten).collect())
    }

    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor> {
        // Lane-major `[.., B]` flattens to `[len / B, B]` without moving a
        // value: the per-sample axes are already row-major in front of the
        // lanes.
        let lanes = input.shape().last().copied().unwrap_or(1);
        self.in_shape = input.shape().to_vec();
        let flat = input.len() / lanes.max(1);
        input.into_shape(&[flat, lanes])
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        grad_out.into_shape(&self.in_shape)
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        // No parameters: reshaping is the whole training backward.
        grads_out
            .iter()
            .map(|g| g.reshape(&self.in_shape))
            .collect()
    }

    fn supports_batched_train(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = f.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[24]);
        let dx = f.backward(&Tensor::ones(&[24]));
        assert_eq!(dx.shape(), &[2, 3, 4]);
    }

    #[test]
    fn lane_batches_flatten_to_features_by_lanes() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]).unwrap();
        let y = f.forward_lanes(x.clone()).unwrap();
        assert_eq!(y.shape(), &[6, 4]);
        assert_eq!(y.data(), x.data());
        assert_eq!(f.backward_input_lanes(y).unwrap(), x);
    }
}
