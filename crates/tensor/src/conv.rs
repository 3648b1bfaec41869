//! Patch lowering for 2-D convolution: the image-to-panel packer behind the
//! conv GEMM entries, the `col2im` input-gradient fold, and the `im2row` /
//! `im2col` unfolds (rows for the weight gradient, the rest as references).

use crate::linalg::{reset_buf, NR};
use crate::{Result, Tensor, TensorError};
use std::ops::Range;

/// Static geometry of a 2-D convolution over `[C, H, W]` inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Output height after convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output width after convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Number of rows in the im2col matrix (`C * k * k`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Checks the geometry is realizable.
    pub fn is_valid(&self) -> bool {
        self.stride > 0
            && self.kernel > 0
            && self.in_h + 2 * self.pad >= self.kernel
            && self.in_w + 2 * self.pad >= self.kernel
    }

    /// Output rows `oy` whose kernel row `ky` lands inside the image:
    /// `0 <= oy·stride + ky - pad < in_h`. Outside this range the tap reads
    /// padding.
    pub fn valid_oy(&self, ky: usize) -> Range<usize> {
        self.tap_range(ky, self.in_h, self.out_h())
    }

    /// Output columns `ox` whose kernel column `kx` lands inside the image:
    /// `0 <= ox·stride + kx - pad < in_w`.
    pub fn valid_ox(&self, kx: usize) -> Range<usize> {
        self.tap_range(kx, self.in_w, self.out_w())
    }

    fn tap_range(&self, tap: usize, in_len: usize, out_len: usize) -> Range<usize> {
        let lo = self.pad.saturating_sub(tap).div_ceil(self.stride);
        let hi = match (in_len + self.pad).checked_sub(tap + 1) {
            Some(last) => (last / self.stride + 1).min(out_len),
            None => 0,
        };
        lo.min(hi)..hi
    }
}

/// Validates that `input` is a rank-3 tensor matching `geo`.
fn check_geometry(input: &Tensor, geo: &Conv2dGeometry, op: &'static str) -> Result<()> {
    if input.rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            shape: input.shape().to_vec(),
            op,
        });
    }
    let expect = [geo.in_channels, geo.in_h, geo.in_w];
    if input.shape() != expect {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().to_vec(),
            right: expect.to_vec(),
            op,
        });
    }
    Ok(())
}

/// [`check_geometry`] over a batch: the first mismatching input's error.
pub(crate) fn check_batch(inputs: &[Tensor], geo: &Conv2dGeometry, op: &'static str) -> Result<()> {
    inputs.iter().try_for_each(|x| check_geometry(x, geo, op))
}

/// Where the patch windows of a conv GEMM's columns sit in a batch of
/// zero-padded `[C, H+2·pad, W+2·pad]` images. GEMM column `j` is output
/// position `j % (out_h·out_w)` of sample `j / (out_h·out_w)`, and patch
/// element `p = (c, ky, kx)` of column `j` is at `corner(j) + taps[p]` — a
/// fixed offset, with no bounds test, because padding positions are real
/// (zero) slots of the padded image.
struct PaddedLayout {
    /// Offset of patch element `p` from its window corner.
    taps: Vec<usize>,
    /// Padded floats per image, and per padded image row.
    image: usize,
    wp: usize,
    ow: usize,
    stride: usize,
    spatial: usize,
}

/// Where the lanes of one panel (up to `NR` consecutive GEMM columns) sit.
enum Lanes {
    /// `NR / len` runs of `len` lanes, one output row each: lane
    /// `r·len + i` at `corners[r] + i·step`.
    Runs {
        corners: [usize; NR],
        len: usize,
        step: usize,
    },
    /// Lane by lane: ragged tails, and output rows that do not tile a panel.
    Scattered([usize; NR]),
}

impl PaddedLayout {
    fn new(geo: &Conv2dGeometry) -> Self {
        let (k, wp) = (geo.kernel, geo.in_w + 2 * geo.pad);
        let plane = (geo.in_h + 2 * geo.pad) * wp;
        PaddedLayout {
            taps: (0..geo.in_channels)
                .flat_map(|c| {
                    (0..k).flat_map(move |ky| (0..k).map(move |kx| c * plane + ky * wp + kx))
                })
                .collect(),
            image: geo.in_channels * plane,
            wp,
            ow: geo.out_w(),
            stride: geo.stride,
            spatial: geo.out_h() * geo.out_w(),
        }
    }

    /// Window corner of GEMM column `j` in images numbered from sample `b0`.
    fn corner(&self, j: usize, b0: usize) -> usize {
        let pos = j % self.spatial;
        (j / self.spatial - b0) * self.image
            + (pos / self.ow) * self.stride * self.wp
            + (pos % self.ow) * self.stride
    }

    /// Lanes of the `width` columns `j0..`. Lanes past `width` of a ragged
    /// panel point at offset 0: like the GEMM's zero-padded edge lanes they
    /// are computed but never stored or folded, so any in-bounds slot will
    /// do.
    fn lanes(&self, j0: usize, width: usize, b0: usize) -> Lanes {
        let (pos, ow) = (j0 % self.spatial, self.ow);
        // A 1×1, stride-1, unpadded conv has no padding columns, so
        // consecutive output rows are consecutive in the image too.
        let flat = self.stride == 1 && self.wp == ow && pos + NR <= self.spatial;
        let len = if pos % ow + NR <= ow || flat {
            NR
        } else if NR.is_multiple_of(ow) && pos.is_multiple_of(ow) {
            ow
        } else {
            0
        };
        if width == NR && len > 0 {
            let mut corners = [0; NR];
            for (r, c) in corners.iter_mut().enumerate().take(NR / len) {
                *c = self.corner(j0 + r * len, b0);
            }
            return Lanes::Runs {
                corners,
                len,
                step: self.stride,
            };
        }
        let mut corners = [0; NR];
        for (l, c) in corners.iter_mut().enumerate().take(width) {
            *c = self.corner(j0 + l, b0);
        }
        Lanes::Scattered(corners)
    }
}

/// Fills one panel row from runs of `LEN` lanes: run `r` reads
/// `src[corners[r] + i·step]`. Fixed-size runs compile to vector moves at
/// stride 1, where a slice copy of a runtime length would call `memcpy`.
#[inline(always)]
fn gather_runs<const LEN: usize>(dst: &mut [f32], src: &[f32], corners: &[usize], step: usize) {
    for (run, &c) in dst.chunks_exact_mut(LEN).zip(corners) {
        let run: &mut [f32; LEN] = run.try_into().expect("LEN-wide run");
        if step == 1 {
            *run = src[c..][..LEN].try_into().expect("LEN-wide source run");
        } else {
            for (i, v) in run.iter_mut().enumerate() {
                *v = src[c + i * step];
            }
        }
    }
}

/// Adds one tile row onto runs of `LEN` lanes: run `r` lands on
/// `dst[corners[r] + i·step]`, distinct slots.
#[inline(always)]
fn scatter_add_runs<const LEN: usize>(
    dst: &mut [f32],
    src: &[f32],
    corners: &[usize],
    step: usize,
) {
    for (run, &c) in src.chunks_exact(LEN).zip(corners) {
        if step == 1 {
            let d: &mut [f32; LEN] = (&mut dst[c..][..LEN])
                .try_into()
                .expect("LEN-wide destination run");
            for (d, &v) in d.iter_mut().zip(run) {
                *d += v;
            }
        } else {
            for (i, &v) in run.iter().enumerate() {
                dst[c + i * step] += v;
            }
        }
    }
}

/// Runs `$f::<LEN>` for the run length `$len` (a power of two up to `NR`).
macro_rules! with_run_len {
    ($len:expr, $f:ident($($arg:expr),*)) => {
        match $len {
            16 => $f::<16>($($arg),*),
            8 => $f::<8>($($arg),*),
            4 => $f::<4>($($arg),*),
            2 => $f::<2>($($arg),*),
            _ => $f::<1>($($arg),*),
        }
    };
}

/// The B operand of the conv GEMM `W [F, C·k·k] · patchesᵀ`, produced one
/// `[C·k·k][NR]` panel at a time straight from the `[C, H, W]` images.
///
/// Slot `(p, lane)` of the panel for columns `j0..` holds exactly the value
/// the patch-row matrix of [`im2row_batch_into`] has at row `j0 + lane`,
/// column `p` — the panel `pack_bt` would gather from that matrix — so a
/// GEMM over these panels is bit-identical to one over the unfolded rows,
/// without the rows (or the full set of panels) ever being built.
///
/// The images are copied once, zero-padded, into caller scratch. When a
/// panel's lanes tile output rows (one row, several whole rows, or any
/// stretch of a 1×1 unpadded convolution), each panel row is one or a few
/// contiguous (stride 1) or strided runs of padded image rows; otherwise it
/// is gathered lane by lane.
pub(crate) struct ConvPanels<'a> {
    layout: PaddedLayout,
    padded: &'a [f32],
    samples: usize,
}

impl<'a> ConvPanels<'a> {
    /// Scratch floats [`ConvPanels::new`] needs for `samples` images.
    pub(crate) fn scratch_len(geo: &Conv2dGeometry, samples: usize) -> usize {
        samples * PaddedLayout::new(geo).image
    }

    /// Copies `inputs`, zero-padded, into `scratch`
    /// ([`ConvPanels::scratch_len`] floats). Callers validate `inputs`
    /// against `geo`; only their lengths are read as `[C, H, W]`.
    pub(crate) fn new(inputs: &[Tensor], geo: &Conv2dGeometry, scratch: &'a mut [f32]) -> Self {
        let layout = PaddedLayout::new(geo);
        let (pad, h, w, wp) = (geo.pad, geo.in_h, geo.in_w, layout.wp);
        if pad == 0 {
            for (dst, x) in scratch.chunks_exact_mut(layout.image).zip(inputs) {
                dst.copy_from_slice(x.data());
            }
        } else {
            scratch.fill(0.0);
            let plane = layout.image / geo.in_channels;
            for (dst, x) in scratch.chunks_exact_mut(layout.image).zip(inputs) {
                for (dplane, xplane) in dst
                    .chunks_exact_mut(plane)
                    .zip(x.data().chunks_exact(h * w))
                {
                    for (drow, xrow) in dplane[pad * wp..]
                        .chunks_exact_mut(wp)
                        .zip(xplane.chunks_exact(w))
                    {
                        drow[pad..pad + w].copy_from_slice(xrow);
                    }
                }
            }
        }
        ConvPanels {
            layout,
            padded: scratch,
            samples: inputs.len(),
        }
    }

    /// GEMM columns: samples × output positions.
    pub(crate) fn cols(&self) -> usize {
        self.samples * self.layout.spatial
    }

    /// Images the panels are packed from.
    pub(crate) fn samples(&self) -> usize {
        self.samples
    }

    /// Fills `panel` (`[C·k·k][NR]`) with the `width` GEMM columns `j0..`;
    /// lanes past `width` hold values the GEMM computes but never stores.
    pub(crate) fn pack(&self, j0: usize, width: usize, panel: &mut [f32]) {
        let padded = self.padded;
        let rows = panel.chunks_exact_mut(NR).zip(&self.layout.taps);
        match self.layout.lanes(j0, width, 0) {
            Lanes::Runs { corners, len, step } => {
                let corners = &corners[..NR / len];
                for (dst, &tap) in rows {
                    with_run_len!(len, gather_runs(dst, &padded[tap..], corners, step));
                }
            }
            Lanes::Scattered(corners) => {
                for (dst, &tap) in rows {
                    for (v, &o) in dst.iter_mut().zip(&corners) {
                        *v = padded[o + tap];
                    }
                }
            }
        }
    }
}

/// Folds patch-gradient tiles — `[C·k·k][NR]`, one row per patch element,
/// GEMM columns as in [`ConvPanels`] — onto zero-padded
/// `[C, H+2·pad, W+2·pad]` input-gradient images; what lands on the padding
/// is dropped with it when the interiors are extracted.
///
/// Every input element receives its contributions in ascending
/// output-position order, exactly as [`row2im`] adds them, provided tiles
/// are folded in ascending column order: within a tile, rows are added with
/// `(ky, kx)` descending. For one element, the kernel row `ky` reaching it
/// from output row `oy` satisfies `oy·stride + ky = iy`, so descending `ky`
/// means ascending `oy`; for one `ky`, descending `kx` likewise means
/// ascending `ox`. Each (patch element, run of lanes) step is one slice-add
/// whose elements land on distinct input positions.
pub(crate) struct ConvFold {
    layout: PaddedLayout,
    geo: Conv2dGeometry,
    /// Patch elements in fold order: `(ky, kx)` descending, channels
    /// ascending within each. Only the `(ky, kx)` order matters to an
    /// element (its channel is fixed); running the channels between two
    /// taps of one channel keeps a slice-add from re-reading the
    /// overlapping, still-in-flight stores of the previous `kx`.
    order: Vec<usize>,
}

impl ConvFold {
    pub(crate) fn new(geo: &Conv2dGeometry) -> Self {
        let kk = geo.kernel * geo.kernel;
        ConvFold {
            layout: PaddedLayout::new(geo),
            geo: *geo,
            order: (0..kk)
                .rev()
                .flat_map(|t| (0..geo.in_channels).map(move |c| c * kk + t))
                .collect(),
        }
    }

    /// Floats per padded input-gradient image.
    pub(crate) fn image_len(&self) -> usize {
        self.layout.image
    }

    /// Adds the tile rows (patch elements; rows past the patch length are
    /// ignored) for the `width` columns `j0..` onto `dst`, the padded images
    /// of samples `b0..`.
    pub(crate) fn fold(&self, tile: &[f32], j0: usize, width: usize, b0: usize, dst: &mut [f32]) {
        let taps = &self.layout.taps;
        let rows = self
            .order
            .iter()
            .map(|&p| (&tile[p * NR..(p + 1) * NR], &taps[p]));
        match self.layout.lanes(j0, width, b0) {
            Lanes::Runs { corners, len, step } => {
                let corners = &corners[..NR / len];
                for (src, &tap) in rows {
                    with_run_len!(len, scatter_add_runs(&mut dst[tap..], src, corners, step));
                }
            }
            Lanes::Scattered(corners) => {
                for (src, &tap) in rows {
                    for (&o, &v) in corners[..width].iter().zip(src) {
                        dst[o + tap] += v;
                    }
                }
            }
        }
    }

    /// The `[C, H, W]` interior of each padded image in `padded`.
    pub(crate) fn extract(&self, padded: &[f32]) -> Vec<Tensor> {
        let g = &self.geo;
        let (wp, plane) = (self.layout.wp, self.layout.image / g.in_channels);
        padded
            .chunks_exact(self.layout.image)
            .map(|image| {
                let mut out = Vec::with_capacity(g.in_channels * g.in_h * g.in_w);
                for pplane in image.chunks_exact(plane) {
                    for prow in pplane[g.pad * wp..].chunks_exact(wp).take(g.in_h) {
                        out.extend_from_slice(&prow[g.pad..g.pad + g.in_w]);
                    }
                }
                Tensor::from_vec(out, &[g.in_channels, g.in_h, g.in_w]).expect("interior shape")
            })
            .collect()
    }
}

/// Writes one sample's patches into the `[C*k*k, out_h*out_w]` column matrix
/// `out`, which must already be zeroed; padding positions stay untouched.
fn fill_patches(out: &mut [f32], data: &[f32], geo: &Conv2dGeometry) {
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (h, w, k) = (geo.in_h, geo.in_w, geo.kernel);
    let cols = oh * ow;
    for c in 0..geo.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                for oy in 0..oh {
                    let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[row * cols + oy * ow + ox] =
                            data[(c * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
    }
}

/// Unfolds a `[C, H, W]` input into a `[C*k*k, out_h*out_w]` patch matrix.
///
/// Padding positions contribute zeros. Convolution then becomes
/// `weights [F, C*k*k] x patches [C*k*k, out_h*out_w]`. This is the
/// reference layout [`col2im`] is the adjoint of.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` does not match the
/// geometry, or [`TensorError::RankMismatch`] if it is not rank 3.
pub fn im2col(input: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor> {
    check_geometry(input, geo, "im2col")?;
    let cols = geo.out_h() * geo.out_w();
    let mut out = vec![0.0; geo.patch_len() * cols];
    fill_patches(&mut out, input.data(), geo);
    Tensor::from_vec(out, &[geo.patch_len(), cols])
}

/// Writes one sample's patches as *rows* of a `[rows, C*k*k]` matrix
/// starting at `row_offset`: row `oy*out_w + ox` holds the full patch seen by
/// that output position. Every slot is written (padding positions as 0.0), so
/// the destination needs no pre-zeroing and the writes are one sequential
/// sweep.
fn fill_patch_rows(out: &mut [f32], row_offset: usize, data: &[f32], geo: &Conv2dGeometry) {
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (h, w, k) = (geo.in_h, geo.in_w, geo.kernel);
    let patch = geo.patch_len();
    for oy in 0..oh {
        for ox in 0..ow {
            let dst = &mut out[(row_offset + oy * ow + ox) * patch..][..patch];
            let mut p = 0;
            for c in 0..geo.in_channels {
                for ky in 0..k {
                    let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                    for kx in 0..k {
                        let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                        dst[p] = if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            data[(c * h + iy as usize) * w + ix as usize]
                        };
                        p += 1;
                    }
                }
            }
        }
    }
}

/// Row-major [`im2col`]: unfolds a `[C, H, W]` input into a
/// `[out_h*out_w, C*k*k]` patch matrix — the transpose of the `im2col`
/// layout. Convolution becomes `weights [F, C*k*k] ·ᵃᵇᵗ patches`, with
/// bit-identical per-element accumulation chains.
///
/// # Errors
///
/// Same conditions as [`im2col`].
pub fn im2row(input: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor> {
    let mut out = Vec::new();
    im2row_batch_into(std::slice::from_ref(input), geo, &mut out)?;
    Tensor::from_vec(out, &[geo.out_h() * geo.out_w(), geo.patch_len()])
}

/// Batched [`im2row`]: unfolds `B` same-geometry inputs into one
/// `[B*out_h*out_w, C*k*k]` patch matrix, sample `b` occupying the contiguous
/// *row* block `b*out_h*out_w .. (b+1)*out_h*out_w`.
///
/// `Conv2d` unfolds only in training: the per-sample weight gradients read
/// contiguous row windows of this matrix. It is also the reference the
/// conv GEMM entries, which pack their panels straight from the images, are
/// pinned against.
///
/// # Errors
///
/// Returns the first per-sample validation error (same conditions as
/// [`im2col`]).
pub fn im2row_batch_into(
    inputs: &[Tensor],
    geo: &Conv2dGeometry,
    buf: &mut Vec<f32>,
) -> Result<()> {
    check_batch(inputs, geo, "im2row")?;
    let spatial = geo.out_h() * geo.out_w();
    reset_buf(buf, geo.patch_len() * spatial * inputs.len());
    for (b, input) in inputs.iter().enumerate() {
        fill_patch_rows(buf, b * spatial, input.data(), geo);
    }
    Ok(())
}

/// Accumulates one sample's `[out_h*out_w, C*k*k]` patch-gradient rows into a
/// `[C, H, W]` gradient buffer. Contributions to each input element arrive in
/// ascending output-position order (`oy`, `ox` major).
fn fold_patch_rows(dst: &mut [f32], rows: &[f32], geo: &Conv2dGeometry) {
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (h, w, k) = (geo.in_h, geo.in_w, geo.kernel);
    let patch = geo.patch_len();
    for oy in 0..oh {
        for ox in 0..ow {
            let src = &rows[(oy * ow + ox) * patch..][..patch];
            let mut p = 0;
            for c in 0..geo.in_channels {
                for ky in 0..k {
                    let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        p += k;
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                        if ix >= 0 && ix < w as isize {
                            dst[(c * h + iy as usize) * w + ix as usize] += src[p];
                        }
                        p += 1;
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2row`]: folds a `[out_h*out_w, C*k*k]` patch-gradient
/// matrix back into a `[C, H, W]` input gradient.
///
/// Overlapping contributions accumulate in ascending output-position order.
/// Kept as the per-element reference for [`col2im`], which folds the
/// transposed matrix in the same order and is bitwise equal to it.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `rows_mat` does not match the
/// geometry.
pub fn row2im(rows_mat: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor> {
    Ok(row2im_batch(rows_mat, geo, 1)?.remove(0))
}

/// Batched [`row2im`]: folds a `[B*out_h*out_w, C*k*k]` patch-gradient matrix
/// (the layout produced by [`im2row_batch_into`]) back into `B` per-sample
/// `[C, H, W]` input gradients. Each sample reads only its own contiguous
/// row block, in the order of [`row2im`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `rows_mat` does not match the
/// geometry for `batch` samples.
pub fn row2im_batch(rows_mat: &Tensor, geo: &Conv2dGeometry, batch: usize) -> Result<Vec<Tensor>> {
    let spatial = geo.out_h() * geo.out_w();
    let patch = geo.patch_len();
    let expect = [batch * spatial, patch];
    if rows_mat.shape() != expect {
        return Err(TensorError::ShapeMismatch {
            left: rows_mat.shape().to_vec(),
            right: expect.to_vec(),
            op: "row2im",
        });
    }
    let data = rows_mat.data();
    Ok((0..batch)
        .map(|b| {
            let mut out = Tensor::zeros(&[geo.in_channels, geo.in_h, geo.in_w]);
            fold_patch_rows(
                out.data_mut(),
                &data[b * spatial * patch..][..spatial * patch],
                geo,
            );
            out
        })
        .collect())
}

/// Folds a `[C*k*k, out_h*out_w]` patch-gradient matrix back into a
/// `[C, H, W]` input gradient, accumulating overlapping contributions.
///
/// This is the adjoint of [`im2col`] and the convolution input-gradient
/// fold (which is how XAI input gradients reach the image). Contributions
/// accumulate in ascending output-position order, so the result is bitwise
/// equal to [`row2im`] on the transposed matrix.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not match the
/// geometry.
pub fn col2im(cols_mat: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor> {
    Ok(col2im_batch(cols_mat, geo, 1)?.remove(0))
}

/// Batched [`col2im`]: folds a `[C*k*k, B*out_h*out_w]` patch-gradient matrix
/// (sample `b` in columns `b*out_h*out_w .. (b+1)*out_h*out_w`, the layout of
/// `Wᵀ · G` for concatenated output gradients) back into `B` per-sample
/// `[C, H, W]` input gradients, each bitwise equal to [`col2im`] on its own
/// column block.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols_mat` does not match the
/// geometry for `batch` samples.
pub fn col2im_batch(cols_mat: &Tensor, geo: &Conv2dGeometry, batch: usize) -> Result<Vec<Tensor>> {
    let spatial = geo.out_h() * geo.out_w();
    let expect = [geo.patch_len(), batch * spatial];
    if cols_mat.shape() != expect {
        return Err(TensorError::ShapeMismatch {
            left: cols_mat.shape().to_vec(),
            right: expect.to_vec(),
            op: "col2im",
        });
    }
    let fold = ConvFold::new(geo);
    let n = batch * spatial;
    let patch = geo.patch_len();
    let mut padded = vec![0.0; batch * fold.image_len()];
    let mut tile = vec![0.0; patch * NR];
    for j0 in (0..n).step_by(NR) {
        let width = NR.min(n - j0);
        for (row, src) in tile
            .chunks_exact_mut(NR)
            .zip(cols_mat.data().chunks_exact(n))
        {
            row[..width].copy_from_slice(&src[j0..j0 + width]);
        }
        fold.fold(&tile, j0, width, 0, &mut padded);
    }
    Ok(fold.extract(&padded))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            kernel: 2,
            stride: 1,
            pad: 0,
        }
    }

    #[test]
    fn geometry_dims() {
        let g = geo();
        assert_eq!(g.out_h(), 2);
        assert_eq!(g.out_w(), 2);
        assert_eq!(g.patch_len(), 4);
        assert!(g.is_valid());
    }

    #[test]
    fn im2col_extracts_patches() {
        let input = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let cols = im2col(&input, &geo()).unwrap();
        assert_eq!(cols.shape(), &[4, 4]);
        // first output position sees the top-left 2x2 patch [1,2,4,5]
        assert_eq!(cols.at(&[0, 0]), 1.0);
        assert_eq!(cols.at(&[1, 0]), 2.0);
        assert_eq!(cols.at(&[2, 0]), 4.0);
        assert_eq!(cols.at(&[3, 0]), 5.0);
    }

    #[test]
    fn im2col_padding_is_zero() {
        let g = Conv2dGeometry { pad: 1, ..geo() };
        let input = Tensor::ones(&[1, 3, 3]);
        let cols = im2col(&input, &g).unwrap();
        // padded corner patch has zeros at padding positions
        assert_eq!(cols.at(&[0, 0]), 0.0);
        assert_eq!(cols.shape(), &[4, 16]);
    }

    #[test]
    fn conv_via_matmul_matches_manual() {
        // 1-channel 3x3 input, single 2x2 filter of all ones = patch sums
        let input = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let cols = im2col(&input, &geo()).unwrap();
        let w = Tensor::ones(&[1, 4]);
        let out = w.matmul(&cols).unwrap();
        assert_eq!(out.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn col2im_is_adjoint_accumulation() {
        // all-ones gradient on cols accumulates overlap counts in the image
        let g = geo();
        let grad_cols = Tensor::ones(&[4, 4]);
        let grad_in = col2im(&grad_cols, &g).unwrap();
        // centre pixel participates in all 4 patches
        assert_eq!(grad_in.at(&[0, 1, 1]), 4.0);
        // corners participate in exactly 1
        assert_eq!(grad_in.at(&[0, 0, 0]), 1.0);
    }

    #[test]
    fn shape_validation() {
        assert!(im2col(&Tensor::zeros(&[3, 3]), &geo()).is_err());
        assert!(im2col(&Tensor::zeros(&[2, 3, 3]), &geo()).is_err());
        assert!(col2im(&Tensor::zeros(&[4, 5]), &geo()).is_err());
    }

    #[test]
    fn batched_col2im_matches_per_sample() {
        let g = Conv2dGeometry {
            in_channels: 1,
            in_h: 4,
            in_w: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let cols = g.out_h() * g.out_w();
        let batch = 2;
        let data: Vec<f32> = (0..g.patch_len() * cols * batch)
            .map(|v| v as f32 * 0.25 - 3.0)
            .collect();
        let big = Tensor::from_vec(data.clone(), &[g.patch_len(), batch * cols]).unwrap();
        let folded = col2im_batch(&big, &g, batch).unwrap();
        assert_eq!(folded.len(), batch);
        for b in 0..batch {
            let mut sample = vec![0.0f32; g.patch_len() * cols];
            for row in 0..g.patch_len() {
                for col in 0..cols {
                    sample[row * cols + col] = data[row * batch * cols + b * cols + col];
                }
            }
            let single = col2im(
                &Tensor::from_vec(sample, &[g.patch_len(), cols]).unwrap(),
                &g,
            )
            .unwrap();
            assert_eq!(folded[b].data(), single.data(), "sample {b}");
        }
        assert!(col2im_batch(&big, &g, 3).is_err());
    }

    #[test]
    fn im2row_is_the_transpose_of_im2col() {
        let g = Conv2dGeometry {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let input =
            Tensor::from_vec((0..50).map(|v| v as f32 * 0.5 - 7.0).collect(), &[2, 5, 5]).unwrap();
        let cols = im2col(&input, &g).unwrap();
        let rows = im2row(&input, &g).unwrap();
        let spatial = g.out_h() * g.out_w();
        assert_eq!(rows.shape(), &[spatial, g.patch_len()]);
        for sp in 0..spatial {
            for p in 0..g.patch_len() {
                assert_eq!(
                    rows.at(&[sp, p]).to_bits(),
                    cols.at(&[p, sp]).to_bits(),
                    "position {sp} patch element {p}"
                );
            }
        }
    }

    #[test]
    fn batched_im2row_overwrites_stale_buffer() {
        let input = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let reference = im2row(&input, &geo()).unwrap();
        let mut buf = vec![9.9; reference.len()]; // right size, stale contents
        let inputs = [input];
        im2row_batch_into(&inputs, &geo(), &mut buf).unwrap();
        assert_eq!(&buf[..], reference.data());
        assert!(im2row_batch_into(&[Tensor::zeros(&[2, 3, 3])], &geo(), &mut buf).is_err());
    }

    #[test]
    fn batched_im2row_concatenates_per_sample_rows() {
        let g = Conv2dGeometry {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let inputs: Vec<Tensor> = (0..3)
            .map(|b| {
                Tensor::from_vec(
                    (0..50).map(|v| (v as f32) + 100.0 * b as f32).collect(),
                    &[2, 5, 5],
                )
                .unwrap()
            })
            .collect();
        let mut buf = vec![7.0; 3]; // stale contents must be discarded
        im2row_batch_into(&inputs, &g, &mut buf).unwrap();
        let spatial = g.out_h() * g.out_w();
        let patch = g.patch_len();
        assert_eq!(buf.len(), patch * spatial * 3);
        for (b, input) in inputs.iter().enumerate() {
            let single = im2row(input, &g).unwrap();
            assert_eq!(
                &buf[b * spatial * patch..(b + 1) * spatial * patch],
                single.data(),
                "sample {b}"
            );
        }
    }

    #[test]
    fn row2im_accumulates_overlap_counts() {
        // all-ones gradient on rows accumulates overlap counts in the image,
        // the same adjoint property col2im satisfies
        let g = geo();
        let grad_rows = Tensor::ones(&[4, 4]);
        let grad_in = row2im(&grad_rows, &g).unwrap();
        assert_eq!(grad_in.at(&[0, 1, 1]), 4.0);
        assert_eq!(grad_in.at(&[0, 0, 0]), 1.0);
        assert!(row2im(&Tensor::zeros(&[5, 4]), &g).is_err());
    }

    #[test]
    fn batched_row2im_matches_per_sample() {
        let g = Conv2dGeometry {
            in_channels: 1,
            in_h: 4,
            in_w: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let spatial = g.out_h() * g.out_w();
        let patch = g.patch_len();
        let batch = 2;
        let data: Vec<f32> = (0..batch * spatial * patch)
            .map(|v| v as f32 * 0.25 - 3.0)
            .collect();
        let big = Tensor::from_vec(data.clone(), &[batch * spatial, patch]).unwrap();
        let folded = row2im_batch(&big, &g, batch).unwrap();
        assert_eq!(folded.len(), batch);
        for b in 0..batch {
            let sample = Tensor::from_vec(
                data[b * spatial * patch..(b + 1) * spatial * patch].to_vec(),
                &[spatial, patch],
            )
            .unwrap();
            let single = row2im(&sample, &g).unwrap();
            assert_eq!(folded[b].data(), single.data(), "sample {b}");
        }
        assert!(row2im_batch(&big, &g, 3).is_err());
    }

    #[test]
    fn tap_ranges_match_the_bounds_checks() {
        for (h, k, stride, pad) in [
            (1, 1, 1, 0),
            (1, 3, 1, 1),
            (5, 3, 2, 1),
            (6, 2, 2, 0),
            (4, 3, 1, 2),
            (7, 1, 2, 0),
        ] {
            let g = Conv2dGeometry {
                in_channels: 1,
                in_h: h,
                in_w: h + 1,
                kernel: k,
                stride,
                pad,
            };
            for tap in 0..k {
                let inside = |o: usize, len: usize| {
                    let i = (o * stride + tap) as isize - pad as isize;
                    i >= 0 && i < len as isize
                };
                let ys: Vec<usize> = (0..g.out_h()).filter(|&o| inside(o, g.in_h)).collect();
                let xs: Vec<usize> = (0..g.out_w()).filter(|&o| inside(o, g.in_w)).collect();
                assert_eq!(g.valid_oy(tap).collect::<Vec<_>>(), ys, "{g:?} ky {tap}");
                assert_eq!(g.valid_ox(tap).collect::<Vec<_>>(), xs, "{g:?} kx {tap}");
            }
        }
    }

    #[test]
    fn stride_two_geometry() {
        let g = Conv2dGeometry {
            in_channels: 2,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        assert_eq!(g.out_h(), 4);
        assert_eq!(g.out_w(), 4);
        let input = Tensor::ones(&[2, 8, 8]);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.shape(), &[18, 16]);
    }
}
