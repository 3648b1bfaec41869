//! Pooling layers. MaxPool2d's lane loops are the kernels
//! [`maxpool_forward`] and [`maxpool_backward`], compiled at every SIMD
//! level and run at the widest this CPU reports (`remix_tensor::simd_kernel!`).

use super::lanes_of;
use crate::{Layer, Mode, Wants};
use remix_tensor::{simd_kernel, Result, Tensor, TensorError};

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
    /// The lane-major index into the input of each output's maximum.
    argmax: Vec<u32>,
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

simd_kernel! {
    /// MaxPool2d forward of the lane-major `[C, H, W, B]` batch `x`
    /// (`in_shape` is `(C, H, W)`, `B = lanes`) into `out`, `[C, H/win,
    /// W/win, B]`, with each maximum's index into `x` in `argmax`. Each lane
    /// scans its window in row order from the first element and takes a
    /// value only when it is strictly greater: the first maximum wins a tie,
    /// and a NaN is never taken, nor replaced once it starts the scan.
    fn maxpool_forward(
        out: &mut [f32],
        argmax: &mut [u32],
        x: &[f32],
        in_shape: (usize, usize, usize),
        win: usize,
        lanes: usize,
    ) {
        let w = in_shape.2;
        one_lane_const!(lanes, {
            let windows = out.chunks_exact_mut(lanes).zip(argmax.chunks_exact_mut(lanes));
            for ((out, argmax), corner) in windows.zip(window_corners(in_shape, win)) {
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
                        argmax[b0] = best_i as u32;
                    } else {
                        // Selects over the group's lanes, with `u32`
                        // indices so that they vectorise beside the values.
                        let mut best = *lane_group!(x[corner * lanes..], b0, G);
                        let mut best_i: [u32; G] =
                            std::array::from_fn(|l| (corner * lanes + b0 + l) as u32);
                        for ky in 0..win {
                            for kx in 0..win {
                                let base = (corner + ky * w + kx) * lanes;
                                let v = lane_group!(x[base..], b0, G);
                                for l in 0..G {
                                    let greater = v[l] > best[l];
                                    best[l] = if greater { v[l] } else { best[l] };
                                    let i = (base + b0 + l) as u32;
                                    best_i[l] = if greater { i } else { best_i[l] };
                                }
                            }
                        }
                        out[b0..b0 + G].copy_from_slice(&best);
                        argmax[b0..b0 + G].copy_from_slice(&best_i);
                    }
                });
            }
        });
    }
}

simd_kernel! {
    /// MaxPool2d backward: `dx`, the `[C, H, W, B]` input gradient, from
    /// the output gradient `grad` and the forward's `argmax`. Windows tile
    /// the input, so each slot of `dx` is written once: `0.0 + g` at its
    /// window's maximum, `+0.0` elsewhere — the bits of adding every output
    /// gradient onto a zeroed gradient at its maximum.
    fn maxpool_backward(
        dx: &mut [f32],
        argmax: &[u32],
        grad: &[f32],
        in_shape: (usize, usize, usize),
        win: usize,
        lanes: usize,
    ) {
        let w = in_shape.2;
        one_lane_const!(lanes, {
            let windows = grad.chunks_exact(lanes).zip(argmax.chunks_exact(lanes));
            for ((g, am), corner) in windows.zip(window_corners(in_shape, win)) {
                for ky in 0..win {
                    for kx in 0..win {
                        let base = (corner + ky * w + kx) * lanes;
                        let slots = dx[base..base + lanes].iter_mut().zip(am.iter().zip(g));
                        for (i, (d, (&a, &g))) in (base as u32..).zip(slots) {
                            *d = if a == i { 0.0 + g } else { 0.0 };
                        }
                    }
                }
            }
        });
    }
}

impl Layer for MaxPool2d {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_lanes(&mut self, input: Tensor, _mode: Mode) -> Result<Tensor> {
        let (c, h, w) = self.in_shape;
        let lanes = lanes_of(&input, &[c, h, w], "maxpool forward_lanes")?;
        assert!(
            u32::try_from(input.len()).is_ok(),
            "maxpool input of {} floats indexed by u32",
            input.len()
        );
        let (_, oh, ow) = self.out_shape();
        let mut out = vec![0.0f32; c * oh * ow * lanes];
        // Every slot is written by the kernel.
        self.argmax.resize(out.len(), 0);
        maxpool_forward(
            &mut out,
            &mut self.argmax,
            input.data(),
            self.in_shape,
            self.window,
            lanes,
        );
        Tensor::from_vec(out, &[c, oh, ow, lanes])
    }

    /// Routes every output gradient to its window's maximum: windows do
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
        let mut dx = vec![0.0f32; c * h * w * lanes];
        maxpool_backward(
            &mut dx,
            &self.argmax,
            grad_out.data(),
            self.in_shape,
            self.window,
            lanes,
        );
        Tensor::from_vec(dx, &[c, h, w, lanes])
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
    use crate::layers::{assert_levels_agree, backward_one, edge_values, forward_one, TEST_LANES};

    #[test]
    fn maxpool_kernels_agree_bitwise_at_every_simd_level() {
        // Edge values with NaNs, ties (runs of 1.0) and ±0.0 among them.
        let shape = (3, 4, 6);
        for lanes in TEST_LANES {
            let n = 3 * 4 * 6 * lanes;
            let x: Vec<f32> = edge_values(n, lanes as u64)
                .into_iter()
                .enumerate()
                .map(|(i, v)| match i % 11 {
                    0 => f32::NAN,
                    3..=5 => 1.0,
                    7 => -0.0,
                    _ => v,
                })
                .collect();
            let outs = 3 * 2 * 3 * lanes;
            let forward = |level| {
                let (mut out, mut argmax) = (vec![0.0; outs], vec![0; outs]);
                maxpool_forward::at(level, &mut out, &mut argmax, &x, shape, 2, lanes);
                out.extend(argmax.into_iter().map(f32::from_bits));
                out
            };
            assert_levels_agree(&format!("maxpool_forward x{lanes}"), forward);
            let mut argmax = vec![0; outs];
            maxpool_forward(&mut vec![0.0; outs], &mut argmax, &x, shape, 2, lanes);
            let grad = edge_values(outs, 9);
            let backward = |level| {
                let mut dx = vec![f32::NAN; n];
                maxpool_backward::at(level, &mut dx, &argmax, &grad, shape, 2, lanes);
                dx
            };
            assert_levels_agree(&format!("maxpool_backward x{lanes}"), backward);
        }
    }

    #[test]
    fn maxpool_takes_the_first_strict_maximum_and_keeps_a_leading_nan() {
        // One 2×2 window per channel, two lanes (a select group) and one
        // lane (the branchy scan): a tie keeps the first, a later NaN is
        // never taken, a leading NaN is never replaced, -0.0 does not beat
        // +0.0.
        let windows = [
            ([1.0, 3.0, 3.0, 2.0], 3.0, 1),
            ([1.0, f32::NAN, 2.0, 0.5], 2.0, 2),
            ([f32::NAN, 5.0, 1.0, 2.0], f32::NAN, 0),
            ([0.0, -0.0, -1.0, -0.0], 0.0, 0),
        ];
        for lanes in [1, 2] {
            let shape = (windows.len(), 2, 2);
            let x: Vec<f32> = windows
                .iter()
                .flat_map(|(w, _, _)| w.iter().flat_map(|&v| std::iter::repeat_n(v, lanes)))
                .collect();
            let (mut out, mut argmax) = (vec![0.0; 4 * lanes], vec![0; 4 * lanes]);
            maxpool_forward(&mut out, &mut argmax, &x, shape, 2, lanes);
            for (c, (_, max, at)) in windows.iter().enumerate() {
                for b in 0..lanes {
                    let got = out[c * lanes + b];
                    assert_eq!(got.to_bits(), max.to_bits(), "window {c} lane {b}");
                    assert_eq!(argmax[c * lanes + b] as usize, (c * 4 + at) * lanes + b);
                }
            }
        }
    }

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
