//! Depthwise convolution. Its lane loops are the kernels
//! [`depthwise_forward`] and [`depthwise_input_grad`], compiled at every
//! SIMD level and run at the widest this CPU reports
//! (`remix_tensor::simd_kernel!`).

use super::{check_cached, lanes_of};
use crate::{Layer, Mode, Wants};
use rand::Rng;
use remix_tensor::{simd_kernel, Conv2dGeometry, Result, Tensor};

/// Depthwise 2-D convolution: one `k×k` filter per input channel.
///
/// This is the distinguishing layer of MobileNet and of the MBConv blocks in
/// EfficientNetV2. With one filter per channel there is no GEMM to lower to,
/// so the forward pass and the input gradient are direct slice loops, one
/// per kernel tap and output row. In the forward pass the range of output
/// columns whose input column lies inside the image is computed once per
/// tap, outside the column loop, so each loop is a branch-free multiply-add
/// (vectorised at stride 1); the input gradient accumulates in a zero-padded
/// plane instead, which needs no ranges at all. Every output element still
/// sums its taps in `ky`, `kx` order starting from the bias, and every
/// input-gradient element its contributions in ascending output-position
/// order, so the results are bit-identical to per-element loops. The weight
/// gradient, needed only in training, keeps its per-element loop.
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    weight: Tensor, // [C, k*k]
    bias: Tensor,   // [C]
    grad_w: Tensor,
    grad_b: Tensor,
    geo: Conv2dGeometry, // `in_channels` is the channel count
    /// The `[C, H, W, B]` input of a Train/Eval forward, for the weight
    /// gradient.
    cached_input: Tensor,
    /// One zero-padded channel plane of the input gradient, reused from
    /// call to call.
    padded: Vec<f32>,
}

/// `dst[i] += w · src[(ix0 + i·stride)·B + b]` over lane-major rows: one
/// kernel tap over a run of output columns, `B = lanes` lanes each. At
/// stride 1 the run is one contiguous slice-add.
#[inline(always)]
fn gather_mul_add_lanes(
    dst: &mut [f32],
    src: &[f32],
    ix0: usize,
    stride: usize,
    lanes: usize,
    w: f32,
) {
    if stride == 1 {
        let n = dst.len();
        for (d, &x) in dst.iter_mut().zip(&src[ix0 * lanes..][..n]) {
            *d += w * x;
        }
    } else {
        for_lane_groups!(lanes, b0, G, {
            for (i, run) in dst.chunks_exact_mut(lanes).enumerate() {
                let x = lane_group!(src[(ix0 + i * stride) * lanes..], b0, G);
                let d = lane_group!(mut run, b0, G);
                for l in 0..G {
                    d[l] += w * x[l];
                }
            }
        });
    }
}

/// `dst[(i·stride)·B + b] += src[i·B + b] · w`: one kernel tap's
/// input-gradient contributions from a lane-major output row, onto distinct
/// input slots.
#[inline(always)]
fn scatter_mul_add_lanes(dst: &mut [f32], src: &[f32], stride: usize, lanes: usize, w: f32) {
    if stride == 1 {
        for (d, &g) in dst[..src.len()].iter_mut().zip(src) {
            *d += g * w;
        }
    } else {
        for_lane_groups!(lanes, b0, G, {
            for (i, run) in src.chunks_exact(lanes).enumerate() {
                let g = lane_group!(run, b0, G);
                let d = lane_group!(mut dst[i * stride * lanes..], b0, G);
                for l in 0..G {
                    d[l] += g[l] * w;
                }
            }
        });
    }
}

simd_kernel! {
    /// The forward of the lane-major `[C, H, W, B]` batch `x` into `out`,
    /// `[C, out_h, out_w, B]` for `geo` and `B = lanes`, channel `c` with
    /// the `k·k` filter `weight[c·k·k..]` and bias `bias[c]`: each output
    /// lane starts from the bias and adds its in-image taps in `ky`, `kx`
    /// order, one tap and output row at a time.
    fn depthwise_forward(
        out: &mut [f32],
        x: &[f32],
        weight: &[f32],
        bias: &[f32],
        geo: &Conv2dGeometry,
        lanes: usize,
    ) {
        let (oh, ow, k, s) = (geo.out_h(), geo.out_w(), geo.kernel, geo.stride);
        let (h, w) = (geo.in_h, geo.in_w);
        for (c, (oplane, xplane)) in out
            .chunks_exact_mut(oh * ow * lanes)
            .zip(x.chunks_exact(h * w * lanes))
            .enumerate()
        {
            let wk = &weight[c * k * k..(c + 1) * k * k];
            oplane.fill(bias[c]);
            for ky in 0..k {
                let yr = geo.valid_oy(ky);
                for kx in 0..k {
                    let xr = geo.valid_ox(kx);
                    if xr.is_empty() {
                        continue;
                    }
                    let ix0 = xr.start * s + kx - geo.pad;
                    for oy in yr.clone() {
                        let xrow = &xplane[(oy * s + ky - geo.pad) * w * lanes..][..w * lanes];
                        let orow =
                            &mut oplane[(oy * ow + xr.start) * lanes..(oy * ow + xr.end) * lanes];
                        gather_mul_add_lanes(orow, xrow, ix0, s, lanes, wk[ky * k + kx]);
                    }
                }
            }
        }
    }
}

simd_kernel! {
    #[widest(Avx2)]
    /// The input gradient of the lane-major output gradient `grad`
    /// (`[C, out_h, out_w, B]` for `geo` and `B = lanes`), appended to `dx`
    /// as `[C, H, W, B]`. Each channel accumulates in `padded`, one
    /// zero-padded input plane, walking `ky` and then `kx` downwards, one
    /// output row at a time. Capped at AVX2: its AVX-512 variant measured
    /// 1.1–1.3× slower on the served MobileNet shapes.
    fn depthwise_input_grad(
        dx: &mut Vec<f32>,
        grad: &[f32],
        weight: &[f32],
        padded: &mut [f32],
        geo: &Conv2dGeometry,
        lanes: usize,
    ) {
        let (oh, ow, k, s, pad) = (geo.out_h(), geo.out_w(), geo.kernel, geo.stride, geo.pad);
        let (h, w) = (geo.in_h, geo.in_w);
        let wp = (w + 2 * pad) * lanes;
        for (wk, gplane) in weight
            .chunks_exact(k * k)
            .zip(grad.chunks_exact(oh * ow * lanes))
        {
            padded.fill(0.0);
            for ky in (0..k).rev() {
                for kx in (0..k).rev() {
                    for (oy, grow) in gplane.chunks_exact(ow * lanes).enumerate() {
                        let dst = &mut padded[(oy * s + ky) * wp + kx * lanes..];
                        scatter_mul_add_lanes(dst, grow, s, lanes, wk[ky * k + kx]);
                    }
                }
            }
            for prow in padded[pad * wp..][..h * wp].chunks_exact(wp) {
                dx.extend_from_slice(&prow[pad * lanes..][..w * lanes]);
            }
        }
    }
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution over `in_shape = (channels, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn new(
        in_shape: (usize, usize, usize),
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let (c, h, w) = in_shape;
        let geo = Conv2dGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel,
            stride,
            pad,
        };
        assert!(geo.is_valid(), "invalid depthwise geometry {geo:?}");
        let std = (2.0 / (kernel * kernel) as f32).sqrt();
        Self {
            weight: Tensor::randn(&[c, kernel * kernel], std, rng),
            bias: Tensor::zeros(&[c]),
            grad_w: Tensor::zeros(&[c, kernel * kernel]),
            grad_b: Tensor::zeros(&[c]),
            geo,
            cached_input: Tensor::default(),
            padded: Vec::new(),
        }
    }

    /// Output shape `(channels, out_h, out_w)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        (self.geo.in_channels, self.geo.out_h(), self.geo.out_w())
    }

    /// Parameter gradients only for one sample: `dW`/`db` accumulate over
    /// output positions in `(oy, ox)` order.
    fn param_grads_sample(&mut self, grad_out: &Tensor, input: &Tensor) {
        let g = self.geo;
        let (oh, ow, k) = (g.out_h(), g.out_w(), g.kernel);
        debug_assert_eq!(grad_out.shape(), [g.in_channels, oh, ow]);
        let x = input.data();
        let gd = grad_out.data();
        for c in 0..g.in_channels {
            let gw_base = c * k * k;
            let mut db = 0.0;
            for oy in 0..oh {
                for ox in 0..ow {
                    let gv = gd[(c * oh + oy) * ow + ox];
                    if gv == 0.0 {
                        continue;
                    }
                    db += gv;
                    for ky in 0..k {
                        let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                            if ix < 0 || ix >= g.in_w as isize {
                                continue;
                            }
                            let xi = (c * g.in_h + iy as usize) * g.in_w + ix as usize;
                            self.grad_w.data_mut()[gw_base + ky * k + kx] += gv * x[xi];
                        }
                    }
                }
            }
            self.grad_b.data_mut()[c] += db;
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    /// The per-sample forward over lane-major rows; only Train/Eval keep
    /// the input (the input gradient needs only the weights). Each output
    /// lane starts from the bias and adds its in-image taps in `ky`, `kx`
    /// order; taps that would read padding are skipped, not added as zero
    /// products, since `bias + w·0` would turn a -0.0 bias into +0.0.
    fn forward_lanes(&mut self, input: Tensor, mode: Mode) -> Result<Tensor> {
        let g = self.geo;
        let (oh, ow) = (g.out_h(), g.out_w());
        let lanes = lanes_of(
            &input,
            &[g.in_channels, g.in_h, g.in_w],
            "depthwise forward_lanes",
        )?;
        let mut out = vec![0.0f32; g.in_channels * oh * ow * lanes];
        depthwise_forward(
            &mut out,
            input.data(),
            self.weight.data(),
            self.bias.data(),
            &g,
            lanes,
        );
        self.cached_input = if mode == Mode::Inference {
            Tensor::default()
        } else {
            input
        };
        Tensor::from_vec(out, &[g.in_channels, oh, ow, lanes])
    }

    /// The per-sample input gradient over lane-major rows, accumulated per
    /// channel in a zero-padded plane so no tap needs a bounds test (what
    /// lands on the padding is dropped with it). Each lane receives its
    /// contributions in ascending output-position order: walking `ky` and
    /// then `kx` downwards visits, for any one element, its output rows and
    /// then its output columns in ascending order, and each tap adds its
    /// gradient block one output row at a time as a slice loop.
    ///
    /// Zero gradients are added rather than skipped: `0 · w` is ±0.0 for a
    /// finite weight, and adding ±0.0 to an accumulator that starts at +0.0
    /// is the identity — such an accumulator can never become -0.0, since
    /// `+0.0 + -0.0` and exact cancellation both round to +0.0.
    ///
    /// Parameter gradients run lane after lane through the per-element
    /// loop of one sample.
    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        let g = self.geo;
        let (oh, ow, pad) = (g.out_h(), g.out_w(), g.pad);
        let (h, w) = (g.in_h, g.in_w);
        let lanes = lanes_of(
            &grad_out,
            &[g.in_channels, oh, ow],
            "depthwise backward_lanes",
        )?;
        if wants.params() {
            check_cached(&self.cached_input, lanes, "depthwise backward_lanes")?;
            let inputs = std::mem::take(&mut self.cached_input).unstack_lanes();
            for (gs, x) in grad_out.unstack_lanes().iter().zip(&inputs) {
                self.param_grads_sample(gs, x);
            }
        }
        if !wants.input() {
            return Ok(Tensor::default());
        }
        self.padded
            .resize((h + 2 * pad) * (w + 2 * pad) * lanes, 0.0);
        let mut dx = Vec::with_capacity(g.in_channels * h * w * lanes);
        depthwise_input_grad(
            &mut dx,
            grad_out.data(),
            self.weight.data(),
            &mut self.padded,
            &g,
            lanes,
        );
        Tensor::from_vec(dx, &[g.in_channels, h, w, lanes])
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visit(&mut self.weight, &mut self.grad_w);
        visit(&mut self.bias, &mut self.grad_b);
    }

    fn prepare_inference(&mut self) {
        // Deliberate no-op: depthwise convolution never lowers to a GEMM —
        // its per-channel kernels run as direct loops over the input — so
        // there is no packed weight operand to freeze.
    }

    fn name(&self) -> &'static str {
        "DepthwiseConv2d"
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{assert_levels_agree, backward_one, edge_values, forward_one, TEST_LANES};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn kernels_agree_bitwise_at_every_simd_level() {
        for (kernel, stride, pad) in [(3, 1, 1), (3, 2, 1), (3, 2, 0), (1, 1, 0)] {
            let geo = Conv2dGeometry {
                in_channels: 3,
                in_h: 5,
                in_w: 6,
                kernel,
                stride,
                pad,
            };
            let (oh, ow) = (geo.out_h(), geo.out_w());
            let weight = edge_values(3 * kernel * kernel, 1);
            let bias = edge_values(3, 2);
            for lanes in TEST_LANES {
                let what = format!("k{kernel} s{stride} p{pad} x{lanes}");
                let x = edge_values(3 * 5 * 6 * lanes, 3);
                let forward = |level| {
                    let mut out = vec![0.0; 3 * oh * ow * lanes];
                    depthwise_forward::at(level, &mut out, &x, &weight, &bias, &geo, lanes);
                    out
                };
                assert_levels_agree(&format!("depthwise_forward {what}"), forward);
                let grad = edge_values(3 * oh * ow * lanes, 4);
                let backward = |level| {
                    let mut dx = Vec::new();
                    let mut padded = vec![0.0; (5 + 2 * pad) * (6 + 2 * pad) * lanes];
                    depthwise_input_grad::at(
                        level,
                        &mut dx,
                        &grad,
                        &weight,
                        &mut padded,
                        &geo,
                        lanes,
                    );
                    dx
                };
                assert_levels_agree(&format!("depthwise_input_grad {what}"), backward);
            }
        }
    }

    #[test]
    fn lanes_skip_padding_taps_like_one_lane() {
        // A -0.0 bias over -0.0 inputs with positive weights stays -0.0 only
        // if padding taps are skipped: `-0.0 + w·(+0.0)` is +0.0.
        for stride in [1, 2] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut dw = DepthwiseConv2d::new((2, 5, 5), 3, stride, 1, &mut rng);
            dw.weight.map_inplace(f32::abs);
            dw.bias.data_mut().fill(-0.0);
            let (oh, ow) = (dw.geo.out_h(), dw.geo.out_w());
            let mut xs: Vec<Tensor> = (0..3)
                .map(|_| Tensor::randn(&[2, 5, 5], 1.0, &mut rng))
                .collect();
            xs[0].data_mut().fill(-0.0);
            let gs: Vec<Tensor> = (0..3)
                .map(|_| Tensor::randn(&[2, oh, ow], 1.0, &mut rng))
                .collect();
            let y = forward_one(&mut dw, &xs[0], Mode::Inference);
            assert!(y.data().iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
            crate::layers::assert_lanes_match_one_lane(&mut dw, &xs, &gs);
        }
    }

    #[test]
    fn channels_do_not_mix() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut dw = DepthwiseConv2d::new((2, 3, 3), 3, 1, 1, &mut rng);
        // zero out channel 1's filter: its output must be all bias (= 0)
        for v in &mut dw.weight.data_mut()[9..18] {
            *v = 0.0;
        }
        let x = Tensor::ones(&[2, 3, 3]);
        let y = forward_one(&mut dw, &x, Mode::Eval);
        let ch1 = y.index_axis0(1).unwrap();
        assert!(ch1.data().iter().all(|&v| v == 0.0));
        let ch0 = y.index_axis0(0).unwrap();
        assert!(ch0.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut dw = DepthwiseConv2d::new((2, 4, 4), 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 4, 4], 1.0, &mut rng);
        let y = forward_one(&mut dw, &x, Mode::Train);
        dw.zero_grads();
        let dx = backward_one(&mut dw, &Tensor::ones(y.shape()), Wants::Both);
        let eps = 1e-2;
        for &i in &[0usize, 9, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = forward_one(&mut dw, &xp, Mode::Train);
            let num = (yp.sum() - y.sum()) / eps;
            assert!((num - dx.data()[i]).abs() < 5e-2, "input grad at {i}");
        }
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut rng = StdRng::seed_from_u64(3);
        let dw = DepthwiseConv2d::new((4, 8, 8), 3, 2, 1, &mut rng);
        assert_eq!(dw.out_shape(), (4, 4, 4));
    }

    /// The per-element loops the row-sliced kernels replaced: every output
    /// sums its in-image taps in `ky`, `kx` order from the bias, and every
    /// input-gradient element accumulates in `(oy, ox)` order, skipping zero
    /// gradients.
    fn reference(dw: &DepthwiseConv2d, x: &Tensor, g: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let geo = dw.geo;
        let (oh, ow, k) = (geo.out_h(), geo.out_w(), geo.kernel);
        let (h, w) = (geo.in_h as isize, geo.in_w as isize);
        let mut y = vec![0.0f32; geo.in_channels * oh * ow];
        let mut dx = vec![0.0f32; x.len()];
        for c in 0..geo.in_channels {
            let wk = &dw.weight.data()[c * k * k..(c + 1) * k * k];
            for oy in 0..oh {
                for ox in 0..ow {
                    let o = (c * oh + oy) * ow + ox;
                    let mut acc = dw.bias.data()[c];
                    let gv = g.data()[o];
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                            let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                            if iy < 0 || iy >= h || ix < 0 || ix >= w {
                                continue;
                            }
                            let xi = (c as isize * h + iy) * w + ix;
                            acc += wk[ky * k + kx] * x.data()[xi as usize];
                            if gv != 0.0 {
                                dx[xi as usize] += gv * wk[ky * k + kx];
                            }
                        }
                    }
                    y[o] = acc;
                }
            }
        }
        (y, dx)
    }

    #[test]
    fn row_slices_match_the_per_element_reference_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(4);
        for (shape, kernel, stride, pad) in [
            ((3, 7, 6), 3, 1, 1),
            ((2, 8, 8), 3, 2, 1),
            ((4, 5, 9), 3, 2, 0),
            ((2, 6, 5), 2, 2, 1),
            ((1, 3, 3), 1, 1, 0),
            ((2, 1, 4), 3, 1, 1),
        ] {
            let mut dw = DepthwiseConv2d::new(shape, kernel, stride, pad, &mut rng);
            dw.bias = Tensor::randn(&[shape.0], 1.0, &mut rng);
            let x = Tensor::randn(&[shape.0, shape.1, shape.2], 1.0, &mut rng);
            let (c, oh, ow) = dw.out_shape();
            let mut g = Tensor::randn(&[c, oh, ow], 1.0, &mut rng);
            // All-zero gradient rows (of both signs), as a ReLU mask makes.
            for (r, row) in g.data_mut().chunks_exact_mut(ow).enumerate() {
                if r % 3 == 1 {
                    row.fill(if r % 2 == 0 { 0.0 } else { -0.0 });
                }
            }
            let (y_ref, dx_ref) = reference(&dw, &x, &g);
            let y = forward_one(&mut dw, &x, Mode::Inference);
            assert_eq!(
                bits(y.data()),
                bits(&y_ref),
                "forward {shape:?} s{stride} p{pad}"
            );
            let dx = backward_one(&mut dw, &g, Wants::Input);
            assert_eq!(
                bits(dx.data()),
                bits(&dx_ref),
                "input grad {shape:?} s{stride} p{pad}"
            );
        }
    }
}
