use super::lanes_of;
use crate::{Layer, Mode};
use remix_tensor::{Result, Tensor, TensorError};

/// Max pooling with square window and matching stride over `[C, H, W]`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    in_shape: (usize, usize, usize),
    argmax: Vec<usize>,
    batch_argmax: Vec<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a max-pool of `window`×`window` (stride = window).
    ///
    /// # Panics
    ///
    /// Panics if the window does not divide the spatial dimensions.
    pub fn new(in_shape: (usize, usize, usize), window: usize) -> Self {
        assert!(
            window > 0 && in_shape.1.is_multiple_of(window) && in_shape.2.is_multiple_of(window),
            "pool window {window} must divide spatial dims {in_shape:?}"
        );
        Self {
            window,
            in_shape,
            argmax: Vec::new(),
            batch_argmax: Vec::new(),
        }
    }

    /// Output shape `(C, H/window, W/window)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        let (c, h, w) = self.in_shape;
        (c, h / self.window, w / self.window)
    }

    fn pool_one(&self, input: &Tensor, argmax: &mut Vec<usize>) -> Tensor {
        let (c, h, w) = self.in_shape;
        debug_assert_eq!(input.shape(), [c, h, w]);
        let (oc, oh, ow) = self.out_shape();
        let mut out = Tensor::zeros(&[oc, oh, ow]);
        argmax.clear();
        argmax.reserve(oc * oh * ow);
        let x = input.data();
        let buf = out.data_mut();
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_i = (ci * h + oy * self.window) * w + ox * self.window;
                    let mut best = x[best_i];
                    for ky in 0..self.window {
                        for kx in 0..self.window {
                            let i = (ci * h + oy * self.window + ky) * w + ox * self.window + kx;
                            if x[i] > best {
                                best = x[i];
                                best_i = i;
                            }
                        }
                    }
                    buf[(ci * oh + oy) * ow + ox] = best;
                    argmax.push(best_i);
                }
            }
        }
        out
    }

    /// Adds every output gradient onto its window's maximum, in a zero
    /// input gradient of shape `[C, H, W]` plus `lanes`.
    fn route_grad(&self, grad_out: &Tensor, argmax: &[usize], lanes: &[usize]) -> Tensor {
        let (c, h, w) = self.in_shape;
        let mut dx = Tensor::zeros(&[&[c, h, w][..], lanes].concat());
        let buf = dx.data_mut();
        for (&src, &g) in argmax.iter().zip(grad_out.data()) {
            buf[src] += g;
        }
        dx
    }
}

impl Layer for MaxPool2d {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let mut argmax = std::mem::take(&mut self.argmax);
        let out = self.pool_one(input, &mut argmax);
        self.argmax = argmax;
        out
    }

    fn forward_batch(&mut self, inputs: &[Tensor], _mode: Mode) -> Result<Vec<Tensor>> {
        let mut argmaxes = Vec::with_capacity(inputs.len());
        let outs = inputs
            .iter()
            .map(|x| {
                let mut a = Vec::new();
                let y = self.pool_one(x, &mut a);
                argmaxes.push(a);
                y
            })
            .collect();
        self.batch_argmax = argmaxes;
        Ok(outs)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = std::mem::take(&mut self.argmax);
        let dx = self.route_grad(grad_out, &argmax, &[]);
        self.argmax = argmax;
        dx
    }

    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor> {
        let (c, h, w) = self.in_shape;
        let lanes = lanes_of(&input, &[c, h, w], "maxpool forward_lanes")?;
        let (_, oh, ow) = self.out_shape();
        let win = self.window;
        let x = input.data();
        let mut out = vec![0.0f32; c * oh * ow * lanes];
        self.argmax.clear();
        self.argmax.resize(out.len(), 0);
        // Each lane runs the per-sample scan: start at the window's first
        // element, replace only on a strictly greater value (as selects:
        // lanes disagree).
        let windows = out
            .chunks_exact_mut(lanes)
            .zip(self.argmax.chunks_exact_mut(lanes));
        for (o, (out, argmax)) in windows.enumerate() {
            let (ci, oy, ox) = (o / (oh * ow), o / ow % oh, o % ow);
            let corner = (ci * h + oy * win) * w + ox * win;
            for_lane_groups!(lanes, b0, G, {
                let mut best = *lane_group!(x[corner * lanes..], b0, G);
                let mut best_i: [usize; G] = std::array::from_fn(|l| corner * lanes + b0 + l);
                for ky in 0..win {
                    for kx in 0..win {
                        let base = (corner + ky * w + kx) * lanes;
                        let v = lane_group!(x[base..], b0, G);
                        for l in 0..G {
                            let greater = v[l] > best[l];
                            best[l] = if greater { v[l] } else { best[l] };
                            best_i[l] = if greater { base + b0 + l } else { best_i[l] };
                        }
                    }
                }
                out[b0..b0 + G].copy_from_slice(&best);
                argmax[b0..b0 + G].copy_from_slice(&best_i);
            });
        }
        Tensor::from_vec(out, &[c, oh, ow, lanes])
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let (c, oh, ow) = self.out_shape();
        let lanes = lanes_of(&grad_out, &[c, oh, ow], "maxpool backward_input_lanes")?;
        if grad_out.len() != self.argmax.len() {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.shape().to_vec(),
                right: vec![self.argmax.len()],
                op: "maxpool backward_input_lanes",
            });
        }
        Ok(self.route_grad(&grad_out, &self.argmax, &[lanes]))
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        // No parameters: routing through the per-sample argmaxes is the whole
        // training backward.
        if grads_out.len() != self.batch_argmax.len() {
            return Err(TensorError::ShapeMismatch {
                left: vec![grads_out.len()],
                right: vec![self.batch_argmax.len()],
                op: "maxpool backward_batch",
            });
        }
        Ok(grads_out
            .iter()
            .zip(&self.batch_argmax)
            .map(|(g, a)| self.route_grad(g, a, &[]))
            .collect())
    }

    fn supports_batched_train(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Average pooling with square window and matching stride.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    window: usize,
    in_shape: (usize, usize, usize),
}

impl AvgPool2d {
    /// Creates an average pool of `window`×`window` (stride = window).
    ///
    /// # Panics
    ///
    /// Panics if the window does not divide the spatial dimensions.
    pub fn new(in_shape: (usize, usize, usize), window: usize) -> Self {
        assert!(
            window > 0 && in_shape.1.is_multiple_of(window) && in_shape.2.is_multiple_of(window)
        );
        Self { window, in_shape }
    }

    /// Output shape `(C, H/window, W/window)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        let (c, h, w) = self.in_shape;
        (c, h / self.window, w / self.window)
    }
}

impl Layer for AvgPool2d {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (c, h, w) = self.in_shape;
        let (oc, oh, ow) = self.out_shape();
        let norm = 1.0 / (self.window * self.window) as f32;
        let mut out = Tensor::zeros(&[oc, oh, ow]);
        let x = input.data();
        let buf = out.data_mut();
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..self.window {
                        for kx in 0..self.window {
                            acc += x[(ci * h + oy * self.window + ky) * w + ox * self.window + kx];
                        }
                    }
                    buf[(ci * oh + oy) * ow + ox] = acc * norm;
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (c, h, w) = self.in_shape;
        let (_, oh, ow) = self.out_shape();
        let norm = 1.0 / (self.window * self.window) as f32;
        let mut dx = Tensor::zeros(&[c, h, w]);
        let g = grad_out.data();
        let buf = dx.data_mut();
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let gv = g[(ci * oh + oy) * ow + ox] * norm;
                    for ky in 0..self.window {
                        for kx in 0..self.window {
                            buf[(ci * h + oy * self.window + ky) * w + ox * self.window + kx] += gv;
                        }
                    }
                }
            }
        }
        dx
    }

    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor> {
        let (c, h, w) = self.in_shape;
        let lanes = lanes_of(&input, &[c, h, w], "avgpool forward_lanes")?;
        let (_, oh, ow) = self.out_shape();
        let (win, norm) = (self.window, 1.0 / (self.window * self.window) as f32);
        let x = input.data();
        let mut out = vec![0.0f32; c * oh * ow * lanes];
        for (o, out) in out.chunks_exact_mut(lanes).enumerate() {
            let (ci, oy, ox) = (o / (oh * ow), o / ow % oh, o % ow);
            let corner = (ci * h + oy * win) * w + ox * win;
            for_lane_groups!(lanes, b0, G, {
                let mut acc = [0.0f32; G];
                for ky in 0..win {
                    for kx in 0..win {
                        let v = lane_group!(x[(corner + ky * w + kx) * lanes..], b0, G);
                        for l in 0..G {
                            acc[l] += v[l];
                        }
                    }
                }
                out[b0..b0 + G].copy_from_slice(&acc.map(|a| a * norm));
            });
        }
        Tensor::from_vec(out, &[c, oh, ow, lanes])
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let (c, h, w) = self.in_shape;
        let (_, oh, ow) = self.out_shape();
        let lanes = lanes_of(&grad_out, &[c, oh, ow], "avgpool backward_input_lanes")?;
        let (win, norm) = (self.window, 1.0 / (self.window * self.window) as f32);
        let mut dx = vec![0.0f32; c * h * w * lanes];
        for (o, g) in grad_out.data().chunks_exact(lanes).enumerate() {
            let (ci, oy, ox) = (o / (oh * ow), o / ow % oh, o % ow);
            let corner = (ci * h + oy * win) * w + ox * win;
            for ky in 0..win {
                for kx in 0..win {
                    let i = (corner + ky * w + kx) * lanes;
                    for (d, &gv) in dx[i..i + lanes].iter_mut().zip(g) {
                        *d += gv * norm;
                    }
                }
            }
        }
        Tensor::from_vec(dx, &[c, h, w, lanes])
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        // No parameters and no cached state.
        Ok(grads_out.iter().map(|g| self.backward(g)).collect())
    }

    fn supports_batched_train(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }
}

/// Global average pooling: `[C, H, W] -> [C]`.
#[derive(Debug, Clone)]
pub struct GlobalAvgPool {
    in_shape: (usize, usize, usize),
}

impl GlobalAvgPool {
    /// Creates a global average pool over `in_shape`.
    pub fn new(in_shape: (usize, usize, usize)) -> Self {
        Self { in_shape }
    }
}

impl Layer for GlobalAvgPool {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (c, h, w) = self.in_shape;
        let spatial = h * w;
        let mut out = vec![0.0f32; c];
        for (ci, o) in out.iter_mut().enumerate() {
            *o = input.data()[ci * spatial..(ci + 1) * spatial]
                .iter()
                .sum::<f32>()
                / spatial as f32;
        }
        Tensor::from_slice(&out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (c, h, w) = self.in_shape;
        let spatial = h * w;
        let norm = 1.0 / spatial as f32;
        let mut dx = Tensor::zeros(&[c, h, w]);
        let buf = dx.data_mut();
        for ci in 0..c {
            let gv = grad_out.data()[ci] * norm;
            for v in &mut buf[ci * spatial..(ci + 1) * spatial] {
                *v = gv;
            }
        }
        dx
    }

    fn forward_lanes(&mut self, input: Tensor) -> Result<Tensor> {
        let (c, h, w) = self.in_shape;
        let lanes = lanes_of(&input, &[c, h, w], "global avgpool forward_lanes")?;
        let spatial = h * w;
        let mut out = vec![0.0f32; c * lanes];
        for (out, plane) in out
            .chunks_exact_mut(lanes)
            .zip(input.data().chunks_exact(spatial * lanes))
        {
            // `Iterator::sum` starts from -0.0; so does each lane.
            for_lane_groups!(lanes, b0, G, {
                let mut acc = [-0.0f32; G];
                for row in plane.chunks_exact(lanes) {
                    let v = lane_group!(row, b0, G);
                    for l in 0..G {
                        acc[l] += v[l];
                    }
                }
                out[b0..b0 + G].copy_from_slice(&acc.map(|a| a / spatial as f32));
            });
        }
        Tensor::from_vec(out, &[c, lanes])
    }

    fn backward_input_lanes(&mut self, grad_out: Tensor) -> Result<Tensor> {
        let (c, h, w) = self.in_shape;
        let lanes = lanes_of(&grad_out, &[c], "global avgpool backward_input_lanes")?;
        let spatial = h * w;
        let norm = 1.0 / spatial as f32;
        let mut dx = vec![0.0f32; c * spatial * lanes];
        for (plane, g) in dx
            .chunks_exact_mut(spatial * lanes)
            .zip(grad_out.data().chunks_exact(lanes))
        {
            for d in plane.chunks_exact_mut(lanes) {
                for (d, &gv) in d.iter_mut().zip(g) {
                    *d = gv * norm;
                }
            }
        }
        Tensor::from_vec(dx, &[c, h, w, lanes])
    }

    fn backward_batch(&mut self, grads_out: &[Tensor]) -> Result<Vec<Tensor>> {
        // No parameters and no cached state.
        Ok(grads_out.iter().map(|g| self.backward(g)).collect())
    }

    fn supports_batched_train(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_pools_match_per_sample_including_ties_and_signed_zeros() {
        // Sample 0 ties in every window (the first maximum wins), sample 1
        // holds -0.0 next to +0.0, and sample 2 is all -0.0.
        let xs = [
            Tensor::from_vec(vec![1.0, 1.0, 3.0, 3.0, 1.0, 1.0, 3.0, 3.0], &[2, 2, 2]).unwrap(),
            Tensor::from_vec(
                vec![-0.0, 0.0, 0.0, -0.0, -1.0, -0.0, -2.0, -0.0],
                &[2, 2, 2],
            )
            .unwrap(),
            Tensor::full(&[2, 2, 2], -0.0),
        ];
        let gs = [
            Tensor::from_vec(vec![1.0, 2.0], &[2, 1, 1]).unwrap(),
            Tensor::from_vec(vec![-0.0, 3.0], &[2, 1, 1]).unwrap(),
            Tensor::from_vec(vec![-0.0, -0.0], &[2, 1, 1]).unwrap(),
        ];
        let gap_grads = [
            Tensor::from_slice(&[1.0, 2.0]),
            Tensor::from_slice(&[-0.0, 3.0]),
            Tensor::from_slice(&[-0.0, -0.0]),
        ];
        use crate::layers::assert_lanes_match_per_sample as check;
        check(&mut MaxPool2d::new((2, 2, 2), 2), &xs, &gs);
        check(&mut AvgPool2d::new((2, 2, 2), 2), &xs, &gs);
        check(&mut GlobalAvgPool::new((2, 2, 2)), &xs, &gap_grads);
    }

    #[test]
    fn maxpool_selects_maxima() {
        let mut p = MaxPool2d::new((1, 2, 2), 2);
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], &[1, 2, 2]).unwrap();
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[5.0]);
        let dx = p.backward(&Tensor::from_slice(&[1.0]).reshape(&[1, 1, 1]).unwrap());
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0]); // gradient routed to the max
    }

    #[test]
    fn avgpool_averages_and_spreads_gradient() {
        let mut p = AvgPool2d::new((1, 2, 2), 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[2.5]);
        let dx = p.backward(&Tensor::from_vec(vec![4.0], &[1, 1, 1]).unwrap());
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_reduces_to_channels() {
        let mut p = GlobalAvgPool::new((2, 2, 2));
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], &[2, 2, 2]).unwrap();
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[1.0, 2.0]);
        let dx = p.backward(&Tensor::from_slice(&[4.0, 8.0]));
        assert_eq!(dx.at(&[0, 0, 0]), 1.0);
        assert_eq!(dx.at(&[1, 1, 1]), 2.0);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn maxpool_rejects_nondividing_window() {
        MaxPool2d::new((1, 3, 3), 2);
    }
}
