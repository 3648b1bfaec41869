use crate::{Layer, Mode, Wants};
use remix_tensor::{Result, Tensor};

/// Flattens a lane-major batch to `[features, B]` and restores the shape on
/// the way back.
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

    fn forward_lanes(&mut self, input: Tensor, _mode: Mode) -> Result<Tensor> {
        // Lane-major `[.., B]` flattens to `[len / B, B]` without moving a
        // value: the per-sample axes are already row-major in front of the
        // lanes.
        let lanes = input.shape().last().copied().unwrap_or(1);
        self.in_shape = input.shape().to_vec();
        let flat = input.len() / lanes.max(1);
        input.into_shape(&[flat, lanes])
    }

    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        if !wants.input() {
            return Ok(Tensor::default());
        }
        grad_out.into_shape(&self.in_shape)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_batches_flatten_to_features_by_lanes() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]).unwrap();
        let y = f.forward_lanes(x.clone(), Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[6, 4]);
        assert_eq!(y.data(), x.data());
        assert_eq!(f.backward_lanes(y, Wants::Both).unwrap(), x);
    }
}
