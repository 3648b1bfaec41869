//! Patch lowering for 2-D convolution over lane-major batches: where the
//! conv GEMM entries find their B panels (read in place from the padded
//! batch, or packed from it), where their input gradients fold, and the
//! `im2row` / `row2im` / `im2col` per-sample unfolds and folds (rows for the
//! weight gradient, the rest as references).

use crate::linalg::{reset_buf, NR};
use crate::{simd_kernel, Result, Tensor, TensorError};
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
fn check_batch(inputs: &[Tensor], geo: &Conv2dGeometry, op: &'static str) -> Result<()> {
    inputs.iter().try_for_each(|x| check_geometry(x, geo, op))
}

/// Validates a lane-major batch `[d0, d1, d2, B]` against the per-sample
/// shape `sample` and returns its lane count `B`. A single sample `sample`
/// has the memory layout of a one-lane batch and passes as one.
pub(crate) fn check_lanes(batch: &Tensor, sample: [usize; 3], op: &'static str) -> Result<usize> {
    if batch.shape() == sample {
        return Ok(1);
    }
    if batch.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            shape: batch.shape().to_vec(),
            op,
        });
    }
    if batch.shape()[..3] != sample {
        return Err(TensorError::ShapeMismatch {
            left: batch.shape().to_vec(),
            right: sample.to_vec(),
            op,
        });
    }
    Ok(batch.shape()[3])
}

/// Where the patch windows of a conv GEMM's columns sit in a zero-padded
/// lane-major batch `[C, H+2·pad, W+2·pad, L]` of `L` lanes. GEMM column
/// `j` is lane `j % L` of output position `j / L`, so the product is the
/// lane-major output `[F, out_h, out_w, L]`. Patch element `p = (c, ky, kx)`
/// of column `j` is at `corner(j) + taps[p]` — a fixed offset, with no
/// bounds test, because padding positions are real (zero) slots of the
/// padded batch.
struct PaddedLayout {
    /// Offset of patch element `p` from its window corner.
    taps: Vec<usize>,
    /// Padded floats per channel, `(H+2·pad)·(W+2·pad)·L`, and in all.
    plane: usize,
    image: usize,
    wp: usize,
    ow: usize,
    stride: usize,
    lanes: usize,
    /// GEMM columns, `out_h·out_w·L`.
    cols: usize,
}

/// Where the columns of one panel (up to `NR` consecutive GEMM columns) sit.
enum Lanes {
    /// A full panel as `NR / len` runs of `len` columns: column `r·len + i`
    /// at `corners[r] + i·step`.
    Runs {
        corners: [usize; NR],
        len: usize,
        step: usize,
    },
    /// The ragged last panel, column by column.
    Ragged([usize; NR]),
}

impl PaddedLayout {
    fn new(geo: &Conv2dGeometry, lanes: usize) -> Self {
        let (k, wp) = (geo.kernel, geo.in_w + 2 * geo.pad);
        let plane = (geo.in_h + 2 * geo.pad) * wp * lanes;
        PaddedLayout {
            taps: (0..geo.in_channels)
                .flat_map(|c| {
                    (0..k).flat_map(move |ky| {
                        (0..k).map(move |kx| c * plane + (ky * wp + kx) * lanes)
                    })
                })
                .collect(),
            plane,
            image: geo.in_channels * plane,
            wp,
            ow: geo.out_w(),
            stride: geo.stride,
            lanes,
            cols: geo.out_h() * geo.out_w() * lanes,
        }
    }

    /// Copies the `[C, H, W, L]` batch into its zero-padded layout `dst`,
    /// whose padding the caller has zeroed.
    fn copy_padded(&self, dst: &mut [f32], src: &[f32], geo: &Conv2dGeometry) {
        let (row, padded_row) = (geo.in_w * self.lanes, self.wp * self.lanes);
        for (dplane, xplane) in dst
            .chunks_exact_mut(self.plane)
            .zip(src.chunks_exact(geo.in_h * row))
        {
            for (drow, xrow) in dplane[geo.pad * padded_row..]
                .chunks_exact_mut(padded_row)
                .zip(xplane.chunks_exact(row))
            {
                drow[geo.pad * self.lanes..][..row].copy_from_slice(xrow);
            }
        }
    }

    /// Appends the `[C, H, W, L]` interior of the padded batch `padded`.
    fn interior(&self, padded: &[f32], geo: &Conv2dGeometry, out: &mut Vec<f32>) {
        let (row, padded_row) = (geo.in_w * self.lanes, self.wp * self.lanes);
        for pplane in padded.chunks_exact(self.plane) {
            for prow in pplane[geo.pad * padded_row..]
                .chunks_exact(padded_row)
                .take(geo.in_h)
            {
                out.extend_from_slice(&prow[geo.pad * self.lanes..][..row]);
            }
        }
    }

    /// Offset of lane `b` of output position `(oy, ox)`'s window corner.
    fn corner(&self, oy: usize, ox: usize, b: usize) -> usize {
        (oy * self.stride * self.wp + ox * self.stride) * self.lanes + b
    }

    /// The corner of the `width` columns `j0..` when they are one
    /// contiguous run of `NR` lanes: a full panel that stays within one
    /// output position, or, unless `one_position`, within one output row
    /// at stride 1. Patch element `p` of the panel is then the run
    /// `corner + taps[p]..` of `NR` floats.
    fn run(&self, j0: usize, width: usize, one_position: bool) -> Option<usize> {
        let (pos, b) = (j0 / self.lanes, j0 % self.lanes);
        let (oy, ox) = (pos / self.ow, pos % self.ow);
        let end = if self.stride == 1 && !one_position {
            self.ow
        } else {
            ox + 1
        };
        (width == NR && ox * self.lanes + b + NR <= end * self.lanes)
            .then(|| self.corner(oy, ox, b))
    }

    /// Where the `width` columns `j0..` sit. The lanes of one output
    /// position are contiguous, and at stride 1 so are the positions of one
    /// output row: a panel of a 16-lane batch is a single run at any
    /// stride, one that stays within an output row at stride 1 is too, and
    /// a one-lane batch gets strided runs.
    /// Lanes past `width` of a ragged panel point at offset 0: like the
    /// GEMM's zero-padded edge lanes they are computed but never stored or
    /// folded, so any in-bounds slot will do.
    fn lanes(&self, j0: usize, width: usize) -> Lanes {
        let mut corners = [0; NR];
        if let Some(corner) = self.run(j0, width, false) {
            corners[0] = corner;
            return Lanes::Runs {
                corners,
                len: NR,
                step: 1,
            };
        }
        let (pos, mut b) = (j0 / self.lanes, j0 % self.lanes);
        let (mut oy, mut ox) = (pos / self.ow, pos % self.ow);
        for c in corners.iter_mut().take(width) {
            *c = self.corner(oy, ox, b);
            b += 1;
            if b == self.lanes {
                b = 0;
                ox += 1;
                if ox == self.ow {
                    ox = 0;
                    oy += 1;
                }
            }
        }
        if width < NR {
            return Lanes::Ragged(corners);
        }
        // Offsets grow with the column. Runs are the longest power-of-two
        // chunks that advance by the first step throughout: `breaks` ORs
        // the columns that do not, and its lowest set bit caps the length.
        let step = corners[1] - corners[0];
        let breaks = (1..NR)
            .filter(|&l| corners[l] != corners[l - 1] + step)
            .fold(0usize, |acc, l| acc | l);
        let len = if breaks == 0 {
            NR
        } else {
            1 << breaks.trailing_zeros()
        };
        for r in 1..NR / len {
            corners[r] = corners[r * len];
        }
        Lanes::Runs { corners, len, step }
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
/// `[C·k·k][NR]` panel at a time straight from a lane-major `[C, H, W, B]`
/// batch.
///
/// Slot `(p, lane)` of the panel for columns `j0..` holds patch element `p`
/// of the output position and lane of column `j0 + lane` (see
/// [`PaddedLayout`]) — exactly what that lane's [`im2row_batch_into`] row
/// for that position holds in column `p` — so every element of a GEMM over
/// these panels is the product one over the unfolded rows computes, and
/// neither the rows nor the full set of panels is ever built.
///
/// A padded batch is copied once, zero-padded, into caller scratch, and a
/// panel whose columns are one contiguous run of that copy is read where it
/// lies ([`ConvPanels::rows_in_place`]): row `p` is the very slice
/// [`ConvPanels::pack`] would copy. Other panels are packed. An unpadded
/// batch always packs, from the batch itself: its channel planes sit a
/// multiple of 4 KiB apart at the served sizes, and read in place the
/// 1×1 convs over them measured up to 59 % slower.
pub(crate) struct ConvPanels<'a> {
    layout: PaddedLayout,
    padded: &'a [f32],
    /// Whether `padded` is the zero-padded copy, whose runs are read in
    /// place.
    in_place: bool,
}

impl<'a> ConvPanels<'a> {
    /// Lays out the lane-major `batch` of `lanes` lanes (validated against
    /// `geo` by the caller) for packing.
    pub(crate) fn new(
        batch: &'a Tensor,
        lanes: usize,
        geo: &Conv2dGeometry,
        scratch: &'a mut Vec<f32>,
    ) -> Self {
        let layout = PaddedLayout::new(geo, lanes);
        if geo.pad == 0 {
            return ConvPanels {
                layout,
                padded: batch.data(),
                in_place: false,
            };
        }
        reset_buf(scratch, layout.image);
        scratch.fill(0.0);
        layout.copy_padded(scratch, batch.data(), geo);
        ConvPanels {
            layout,
            padded: scratch,
            in_place: true,
        }
    }

    /// GEMM columns: output positions × lanes.
    pub(crate) fn cols(&self) -> usize {
        self.layout.cols
    }

    /// The rows of the panel of the `width` columns `j0..`, in order of
    /// `p`, read in place from the padded copy when they are one
    /// contiguous run of it (see [`PaddedLayout::run`]); `None` when the
    /// panel must be packed.
    #[inline(always)]
    pub(crate) fn rows_in_place(
        &self,
        j0: usize,
        width: usize,
    ) -> Option<impl Iterator<Item = &[f32]> + Clone> {
        if !self.in_place {
            return None;
        }
        let corner = self.layout.run(j0, width, false)?;
        let padded = &self.padded[corner..];
        Some(self.layout.taps.iter().map(move |&t| &padded[t..][..NR]))
    }

    /// Fills `panel` (`[C·k·k][NR]`) with the `width` GEMM columns `j0..`;
    /// lanes past `width` hold values the GEMM computes but never stores.
    /// Inlined into the GEMM kernel that calls it, it runs at that kernel's
    /// SIMD level.
    #[inline(always)]
    pub(crate) fn pack(&self, j0: usize, width: usize, panel: &mut [f32]) {
        let padded = self.padded;
        let rows = panel.chunks_exact_mut(NR).zip(&self.layout.taps);
        match self.layout.lanes(j0, width) {
            Lanes::Runs { corners, len, step } => {
                let corners = &corners[..NR / len];
                for (dst, &tap) in rows {
                    with_run_len!(len, gather_runs(dst, &padded[tap..], corners, step));
                }
            }
            Lanes::Ragged(corners) => {
                for (dst, &tap) in rows {
                    for (v, &o) in dst.iter_mut().zip(&corners) {
                        *v = padded[o + tap];
                    }
                }
            }
        }
    }
}

/// Folds patch-gradient tiles — one `[NR]` row per patch element, GEMM
/// columns as in [`ConvPanels`] — onto a zero-padded `[C, H+2·pad,
/// W+2·pad, L]` input gradient laid out as in [`PaddedLayout`]; what lands
/// on the padding is dropped with it when the interior is extracted.
///
/// Every input element receives its contributions in ascending
/// output-position order, exactly as [`row2im`] adds them for its lane,
/// provided tiles are folded in ascending column order (a lane's columns
/// ascend with the output position): within a tile, rows are added with
/// `(ky, kx)` descending. For one element, the kernel row `ky` reaching it
/// from output row `oy` satisfies `oy·stride + ky = iy`, so descending `ky`
/// means ascending `oy`; for one `ky`, descending `kx` likewise means
/// ascending `ox`. Channels run innermost: an element's channel is fixed,
/// so their order is free, and running them between two taps of one
/// channel keeps a slice-add from re-reading the overlapping, still
/// in-flight stores of the previous `kx`. Each (patch element, run of
/// lanes) step is one slice-add whose elements land on distinct input
/// slots.
///
/// A panel whose columns are `NR` lanes of one output position needs no
/// tile ([`ConvFold::position_slots`]): its patch elements land on
/// distinct slots, so each register tile is added straight onto them after
/// its k-loop, in any order of the A blocks, and every element still
/// receives its contributions in ascending output-position order, panel by
/// panel. [`fold_tile`] folds the panels that span several positions.
///
/// A fold covers a range of input channels, whose padded planes it owns
/// outright, so disjoint ranges fold in parallel.
pub(crate) struct ConvFold {
    layout: PaddedLayout,
    geo: Conv2dGeometry,
}

impl ConvFold {
    pub(crate) fn new(geo: &Conv2dGeometry, lanes: usize) -> Self {
        ConvFold {
            layout: PaddedLayout::new(geo, lanes),
            geo: *geo,
        }
    }

    /// When the `width` columns `j0..` are `NR` lanes of one output
    /// position, where each patch element's gradient lands in the padded
    /// planes of channels `c0..`: row `p` (a patch element of those
    /// channels) adds onto the `NR` floats from `slot(p)`, and no two rows
    /// share a slot. `None` for a panel that spans several positions.
    #[inline(always)]
    pub(crate) fn position_slots(
        &self,
        j0: usize,
        width: usize,
        c0: usize,
    ) -> Option<impl Fn(usize) -> usize + '_> {
        let corner = self.layout.run(j0, width, true)?;
        let base = c0 * self.layout.plane;
        Some(move |p: usize| self.layout.taps[p] - base + corner)
    }

    /// Floats per padded input-gradient channel plane, and in all.
    pub(crate) fn plane_len(&self) -> usize {
        self.layout.plane
    }

    pub(crate) fn image_len(&self) -> usize {
        self.layout.image
    }

    /// The lane-major `[C, H, W, L]` interior of the padded input gradient
    /// `padded`, shaped `shape`.
    pub(crate) fn extract(&self, padded: &[f32], shape: &[usize]) -> Tensor {
        let mut out = Vec::with_capacity(shape.iter().product());
        self.layout.interior(padded, &self.geo, &mut out);
        Tensor::from_vec(out, shape).expect("interior shape")
    }
}

simd_kernel! {
    #[widest(Avx2)]
    /// Adds the tile rows of the patch elements of channels `chans` — row
    /// `(c − chans.start)·k·k + (ky·k + kx)`, rows past them ignored — for
    /// the `width` columns `j0..` onto `dst`, the padded planes of `chans`,
    /// as [`ConvFold`] lays them out. The fused input gradient calls it
    /// for the panels that span several output positions, and for ragged
    /// ones; the others fold from registers.
    ///
    /// It is its own kernel, not inlined into the GEMM kernel that calls
    /// it: inlined there, the fused input gradient of 16-lane batches
    /// measured 1.4× slower. It is capped at AVX2: its AVX-512 variant
    /// measured 1–7 % slower on the served conv shapes.
    pub(crate) fn fold_tile(
        fold: &ConvFold,
        tile: &[f32],
        chans: Range<usize>,
        j0: usize,
        width: usize,
        dst: &mut [f32],
    ) {
        let kk = fold.geo.kernel * fold.geo.kernel;
        let taps = &fold.layout.taps;
        let base = chans.start * fold.layout.plane;
        // Plain nested loops: an iterator adaptor chain here costs as much
        // as the adds themselves.
        let lanes = fold.layout.lanes(j0, width);
        for t in (0..kk).rev() {
            for c in chans.clone() {
                let src = &tile[((c - chans.start) * kk + t) * NR..][..NR];
                let tap = taps[c * kk + t] - base;
                match &lanes {
                    Lanes::Runs { corners, len, step } => {
                        let corners = &corners[..NR / len];
                        with_run_len!(*len, scatter_add_runs(&mut dst[tap..], src, corners, *step));
                    }
                    Lanes::Ragged(corners) => {
                        for (&o, &v) in corners[..width].iter().zip(src) {
                            dst[o + tap] += v;
                        }
                    }
                }
            }
        }
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
/// `weights [F, C*k*k] x patches [C*k*k, out_h*out_w]`.
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
/// `Conv2d` unfolds only for its weight gradient, one sample (lane) at a
/// time. It is also the reference the conv GEMM entries, which pack their
/// panels straight from the images, are pinned against.
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
/// Kept as the per-element reference for the fused input-gradient fold of
/// the conv GEMM entries, which adds them in the same order.
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
    fn shape_validation() {
        assert!(im2col(&Tensor::zeros(&[3, 3]), &geo()).is_err());
        assert!(im2col(&Tensor::zeros(&[2, 3, 3]), &geo()).is_err());
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
        // all-ones gradient on rows accumulates overlap counts in the image
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
