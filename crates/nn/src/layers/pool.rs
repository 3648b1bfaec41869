use super::lanes_of;
use crate::{Layer, Mode, Wants};
use remix_tensor::{Result, Tensor, TensorError};

/// The input position of every pooling window's first element, in output
/// order `(c, oy, ox)`: channel `c`'s output row `oy` is input row
/// `(c·oh + oy)·window` of the stacked channel planes.
fn window_corners(in_shape: (usize, usize, usize), window: usize) -> impl Iterator<Item = usize> {
    let (c, h, w) = in_shape;
    (0..c * h / window).flat_map(move |row| (0..w / window).map(move |ox| (row * w + ox) * window))
}

/// Max pooling with square window and matching stride over `[C, H, W]`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    in_shape: (usize, usize, usize),
    argmax: Vec<usize>,
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
        }
    }

    /// Output shape `(C, H/window, W/window)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        let (c, h, w) = self.in_shape;
        (c, h / self.window, w / self.window)
    }
}

impl Layer for MaxPool2d {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_lanes(&mut self, input: Tensor, _mode: Mode) -> Result<Tensor> {
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
        one_lane_const!(lanes, {
            let windows = out
                .chunks_exact_mut(lanes)
                .zip(self.argmax.chunks_exact_mut(lanes));
            for ((out, argmax), corner) in windows.zip(window_corners(self.in_shape, win)) {
                for_lane_groups!(lanes, b0, G, {
                    if G == 1 {
                        // A lone lane branches: its scan is one chain of
                        // compares, which a select would serialise. As a
                        // select, one-lane ConvNet and DeconvNet
                        // predictions took 1.15–1.3× as long (2-vCPU
                        // AVX-512 host, 1 thread, 10 alternating rounds).
                        let mut best_i = corner * lanes + b0;
                        let mut best = x[best_i];
                        for ky in 0..win {
                            for kx in 0..win {
                                let i = (corner + ky * w + kx) * lanes + b0;
                                if x[i] > best {
                                    best = x[i];
                                    best_i = i;
                                }
                            }
                        }
                        out[b0] = best;
                        argmax[b0] = best_i;
                    } else {
                        let mut best = *lane_group!(x[corner * lanes..], b0, G);
                        let mut best_i: [usize; G] =
                            std::array::from_fn(|l| corner * lanes + b0 + l);
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
                    }
                });
            }
        });
        Tensor::from_vec(out, &[c, oh, ow, lanes])
    }

    /// Adds every output gradient onto its window's maximum: windows do
    /// not overlap, so each input element receives at most one.
    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        if !wants.input() {
            return Ok(Tensor::default());
        }
        let (c, oh, ow) = self.out_shape();
        let lanes = lanes_of(&grad_out, &[c, oh, ow], "maxpool backward_lanes")?;
        if grad_out.len() != self.argmax.len() {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.shape().to_vec(),
                right: vec![self.argmax.len()],
                op: "maxpool backward_lanes",
            });
        }
        let (_, h, w) = self.in_shape;
        let mut dx = Tensor::zeros(&[c, h, w, lanes]);
        let buf = dx.data_mut();
        for (&src, &g) in self.argmax.iter().zip(grad_out.data()) {
            buf[src] += g;
        }
        Ok(dx)
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

    fn forward_lanes(&mut self, input: Tensor, _mode: Mode) -> Result<Tensor> {
        let (c, h, w) = self.in_shape;
        let lanes = lanes_of(&input, &[c, h, w], "avgpool forward_lanes")?;
        let (_, oh, ow) = self.out_shape();
        let (win, norm) = (self.window, 1.0 / (self.window * self.window) as f32);
        let x = input.data();
        let mut out = vec![0.0f32; c * oh * ow * lanes];
        one_lane_const!(lanes, {
            for (out, corner) in out
                .chunks_exact_mut(lanes)
                .zip(window_corners(self.in_shape, win))
            {
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
        });
        Tensor::from_vec(out, &[c, oh, ow, lanes])
    }

    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        if !wants.input() {
            return Ok(Tensor::default());
        }
        let (c, h, w) = self.in_shape;
        let (_, oh, ow) = self.out_shape();
        let lanes = lanes_of(&grad_out, &[c, oh, ow], "avgpool backward_lanes")?;
        let (win, norm) = (self.window, 1.0 / (self.window * self.window) as f32);
        let mut dx = vec![0.0f32; c * h * w * lanes];
        one_lane_const!(lanes, {
            for (g, corner) in grad_out
                .data()
                .chunks_exact(lanes)
                .zip(window_corners(self.in_shape, win))
            {
                for ky in 0..win {
                    for kx in 0..win {
                        let i = (corner + ky * w + kx) * lanes;
                        for (d, &gv) in dx[i..i + lanes].iter_mut().zip(g) {
                            *d += gv * norm;
                        }
                    }
                }
            }
        });
        Tensor::from_vec(dx, &[c, h, w, lanes])
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

    fn forward_lanes(&mut self, input: Tensor, _mode: Mode) -> Result<Tensor> {
        let (c, h, w) = self.in_shape;
        let lanes = lanes_of(&input, &[c, h, w], "global avgpool forward_lanes")?;
        let spatial = h * w;
        let mut out = vec![0.0f32; c * lanes];
        one_lane_const!(lanes, {
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
        });
        Tensor::from_vec(out, &[c, lanes])
    }

    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        if !wants.input() {
            return Ok(Tensor::default());
        }
        let (c, h, w) = self.in_shape;
        let lanes = lanes_of(&grad_out, &[c], "global avgpool backward_lanes")?;
        let spatial = h * w;
        let norm = 1.0 / spatial as f32;
        let mut dx = vec![0.0f32; c * spatial * lanes];
        one_lane_const!(lanes, {
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
        });
        Tensor::from_vec(dx, &[c, h, w, lanes])
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{backward_one, forward_one};

    #[test]
    fn lane_pools_match_one_lane_including_ties_and_signed_zeros() {
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
        use crate::layers::assert_lanes_match_one_lane as check;
        check(&mut MaxPool2d::new((2, 2, 2), 2), &xs, &gs);
        check(&mut AvgPool2d::new((2, 2, 2), 2), &xs, &gs);
        check(&mut GlobalAvgPool::new((2, 2, 2)), &xs, &gap_grads);
    }

    #[test]
    fn maxpool_selects_maxima() {
        let mut p = MaxPool2d::new((1, 2, 2), 2);
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], &[1, 2, 2]).unwrap();
        let y = forward_one(&mut p, &x, Mode::Eval);
        assert_eq!(y.data(), &[5.0]);
        let dx = backward_one(
            &mut p,
            &Tensor::from_slice(&[1.0]).reshape(&[1, 1, 1]).unwrap(),
            Wants::Both,
        );
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0]); // gradient routed to the max
    }

    #[test]
    fn avgpool_averages_and_spreads_gradient() {
        let mut p = AvgPool2d::new((1, 2, 2), 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let y = forward_one(&mut p, &x, Mode::Eval);
        assert_eq!(y.data(), &[2.5]);
        let dx = backward_one(
            &mut p,
            &Tensor::from_vec(vec![4.0], &[1, 1, 1]).unwrap(),
            Wants::Both,
        );
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_reduces_to_channels() {
        let mut p = GlobalAvgPool::new((2, 2, 2));
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], &[2, 2, 2]).unwrap();
        let y = forward_one(&mut p, &x, Mode::Eval);
        assert_eq!(y.data(), &[1.0, 2.0]);
        let dx = backward_one(&mut p, &Tensor::from_slice(&[4.0, 8.0]), Wants::Both);
        assert_eq!(dx.at(&[0, 0, 0]), 1.0);
        assert_eq!(dx.at(&[1, 1, 1]), 2.0);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn maxpool_rejects_nondividing_window() {
        MaxPool2d::new((1, 3, 3), 2);
    }
}
