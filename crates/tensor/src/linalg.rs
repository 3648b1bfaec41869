//! Matrix products and transposes.
//!
//! The GEMM here is a packed, register-blocked kernel: output is tiled into
//! `MR x NR` register blocks, the B operand is packed once into column panels
//! reused across every row block, and the A rows of each block are packed into
//! an interleaved layout so the inner loop is a dense, branch-free
//! multiply-add over `MR * NR` accumulators that the compiler can keep in
//! vector registers.
//!
//! Determinism contract: every output element accumulates its k-products in
//! ascending-p order as a single chain starting from 0.0 — exactly the chain
//! of the retained reference kernel ([`matmul_row_reference`]). Tiling only
//! reorders *which* output elements are computed when, never the order of
//! additions within one element, so blocked, serial, and row-parallel paths
//! are all bit-identical. See DESIGN.md §6f.

use crate::conv::{check_lanes, fold_tile, ConvFold, ConvPanels};
use crate::{simd_kernel, Conv2dGeometry, Result, Tensor, TensorError};
use std::ops::Range;

/// Register-block height: rows of A handled per micro-kernel call.
const MR: usize = 4;
/// Register-block width: columns of B handled per micro-kernel call.
/// `MR × NR` accumulators fill 8 YMM (AVX2) or 4 ZMM (AVX-512) registers,
/// leaving room for the B loads and the A broadcast.
pub(crate) const NR: usize = 16;

/// One output row of the pre-blocking ikj matmul kernel: `orow += arow · B`.
///
/// Retained as the bit-exactness reference for the blocked kernel (proptests
/// and the `bench_gemm` gate compare against it). Note the `av == 0.0` skip:
/// it predates the blocked kernel and is *not* replicated there — skipping a
/// zero product is bit-identical to adding it for finite data, because an
/// accumulator that starts at +0.0 can never become -0.0 through sums (IEEE
/// 754: `+0.0 + -0.0 == +0.0` and exact cancellation rounds to +0.0), and
/// adding ±0.0 to any value returns that value unchanged. The
/// `zero_products_do_not_change_bits` test pins this down.
#[inline]
pub(crate) fn matmul_row_reference(arow: &[f32], b: &[f32], orow: &mut [f32], n: usize) {
    for (p, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = &b[p * n..(p + 1) * n];
        for (o, &bv) in orow.iter_mut().zip(brow) {
            *o += av * bv;
        }
    }
}

/// Below this many multiply-adds (`m·k·n`) a matmul runs sequentially.
///
/// The pooled dispatch in `remix-parallel` costs ~2 µs (one mutex post plus a
/// condvar wake of already-running workers), versus ~10 µs per *spawned*
/// thread before the persistent pool. The blocked kernel runs at 30–100
/// GMAC/s per core on the served shapes (a 2-vCPU AVX-512 host), so 2^16
/// MACs are about 0.7–2 µs of work: no more than the dispatch itself. The
/// threshold was sized for roughly 1 GMAC/s per core, and stays until the
/// GEMM's share of the process's threads is budgeted as a whole.
const PARALLEL_MATMUL_MACS: usize = 1 << 16;

/// Packs columns `j0..j0+w` (`w <= NR`) of row-major `b` (`[k, n]`) into a
/// `[k][NR]` panel; lanes past `w` are zero so the micro-kernel can run a
/// full-width NR loop on ragged edges (padded lanes are computed but never
/// stored).
fn pack_b_panel(b: &[f32], k: usize, n: usize, j0: usize, dst: &mut [f32]) {
    let w = NR.min(n - j0);
    for p in 0..k {
        let src = &b[p * n + j0..p * n + j0 + w];
        let d = &mut dst[p * NR..p * NR + NR];
        d[..w].copy_from_slice(src);
        d[w..].fill(0.0);
    }
}

/// Sizes a pack/output buffer without the zero-fill `resize` implies: every
/// caller overwrites all `len` slots, and on the hot path the buffer is
/// reused at a stable size, making the reset free.
pub(crate) fn reset_buf(buf: &mut Vec<f32>, len: usize) {
    if buf.len() != len {
        buf.clear();
        buf.resize(len, 0.0);
    }
}

/// Packs all of row-major `b` (`[k, n]`) into `n.div_ceil(NR)` panels of
/// `[k][NR]` each, reusing `packed`'s allocation.
fn pack_b(b: &[f32], k: usize, n: usize, packed: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    reset_buf(packed, panels * k * NR);
    for pj in 0..panels {
        pack_b_panel(
            b,
            k,
            n,
            pj * NR,
            &mut packed[pj * k * NR..(pj + 1) * k * NR],
        );
    }
    trace_pack_bytes(packed.len());
}

/// Packs the *transpose* of `b` into panels: `b` is stored row-major
/// `[n, row_len]` and the logical right operand is `B[p][j] = b[j][window.start + p]`,
/// i.e. `A · Bᵀ` restricted to the `window` columns of `b`'s rows.
fn pack_bt(b: &[f32], n: usize, row_len: usize, window: &Range<usize>, packed: &mut Vec<f32>) {
    let k = window.len();
    let panels = n.div_ceil(NR);
    reset_buf(packed, panels * k * NR);
    for pj in 0..panels {
        let j0 = pj * NR;
        let w = NR.min(n - j0);
        let dst = &mut packed[pj * k * NR..(pj + 1) * k * NR];
        for (d, p) in dst.chunks_exact_mut(NR).zip(window.clone()) {
            for (lane, slot) in d.iter_mut().enumerate() {
                *slot = if lane < w {
                    b[(j0 + lane) * row_len + p]
                } else {
                    0.0
                };
            }
        }
    }
    trace_pack_bytes(packed.len());
}

/// Records `floats` freshly packed slots on the `gemm_pack_bytes` counter.
/// Kept out of the per-block inner loops: callers tally whole pack buffers
/// (B panels on entry, the A side once per dispatch).
#[inline]
pub(crate) fn trace_pack_bytes(floats: usize) {
    remix_trace::add(
        remix_trace::Counter::GemmPackBytes,
        (floats * std::mem::size_of::<f32>()) as u64,
    );
}

/// A-side pack traffic of one non-prepacked GEMM: every `MR`-row block packs
/// `kc * MR` slots regardless of raggedness.
#[inline]
fn trace_pack_a_bytes(m: usize, kc: usize) {
    trace_pack_bytes(m.div_ceil(MR) * kc * MR);
}

/// Packs rows `i0..i0+h` (`h <= MR`) of row-major `a` (`[_, row_len]`),
/// columns `window`, into an interleaved `[k][MR]` layout
/// (`dst[p*MR + r] = a[(i0+r)][window.start + p]`); rows past `h` are zero.
fn pack_a_rows(
    a: &[f32],
    row_len: usize,
    window: &Range<usize>,
    i0: usize,
    h: usize,
    dst: &mut [f32],
) {
    for (p_local, p) in window.clone().enumerate() {
        let d = &mut dst[p_local * MR..p_local * MR + MR];
        for (r, slot) in d.iter_mut().enumerate() {
            *slot = if r < h {
                a[(i0 + r) * row_len + p]
            } else {
                0.0
            };
        }
    }
}

/// Packs rows `i0..i0+h` of the transpose of row-major `a` (`[k, m]`) into
/// the same interleaved `[k][MR]` layout: `dst[p*MR + r] = a[p*m + i0 + r]`.
/// This is how `matmul_at_b` reads `Aᵀ` without materializing a transpose —
/// the source rows are contiguous, so it's a straight copy per p.
fn pack_at_rows(a: &[f32], m: usize, k: usize, i0: usize, h: usize, dst: &mut [f32]) {
    for p in 0..k {
        let d = &mut dst[p * MR..p * MR + MR];
        d[..h].copy_from_slice(&a[p * m + i0..p * m + i0 + h]);
        d[h..].fill(0.0);
    }
}

/// The register-blocked micro-kernel: multiplies a packed `[kc][MR]` A block
/// by the `kc` rows of `NR` floats of a B panel, row `p` the `p`-th item of
/// `brows`, into an `MR x NR` accumulator tile. The rows are those of a
/// packed `[kc][NR]` panel (`panel.chunks_exact(NR)`) or, for the conv
/// forward, runs of the padded batch read in place
/// ([`ConvPanels::rows_in_place`]); the body is the same.
///
/// The inner loops have fixed trip counts (MR, NR) and no branches, so the
/// compiler unrolls and vectorizes them; each accumulator element's additions
/// run in ascending-p order from 0.0, preserving the reference chain. It
/// inlines into the GEMM row loops below, which are [`simd_kernel!`]s, so it
/// runs at their SIMD level.
#[inline(always)]
fn micro_tile<'b>(
    apack: &[f32],
    brows: impl Iterator<Item = &'b [f32]>,
    kc: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (av, bv) in apack.chunks_exact(MR).zip(brows).take(kc) {
        for (r, accr) in acc.iter_mut().enumerate() {
            let ar = av[r];
            for (c, &b) in accr.iter_mut().zip(bv) {
                *c += ar * b;
            }
        }
    }
    acc
}

/// Writes (with `ACCUM`, adds) the top `h` rows and first `w` columns of a
/// register tile into row-major `out`, tile corner at `corner`, rows `n`
/// apart.
#[inline(always)]
fn store_tile<const ACCUM: bool>(
    acc: &[[f32; NR]; MR],
    h: usize,
    w: usize,
    out: &mut [f32],
    corner: usize,
    n: usize,
) {
    for (r, accr) in acc.iter().enumerate().take(h) {
        let dst = &mut out[corner + r * n..][..w];
        if ACCUM {
            for (d, &s) in dst.iter_mut().zip(accr.iter()) {
                *d += s;
            }
        } else if let Ok(full) = <&mut [f32; NR]>::try_from(&mut *dst) {
            // A fixed-size copy compiles to vector moves; a slice copy of
            // `w` floats would call `memcpy` per row.
            *full = *accr;
        } else {
            dst.copy_from_slice(&accr[..w]);
        }
    }
}

/// Fills an interleaved `[kc][MR]` A block for source rows `i0..i0+h`:
/// `(i0, h, dst)`.
type PackAFn<'a> = dyn Fn(usize, usize, &mut [f32]) + Sync + 'a;

/// The loop of [`gemm_rows`] for one `ACCUM`.
#[inline(always)]
fn gemm_rows_tiles<const ACCUM: bool>(
    pack_a: &PackAFn<'_>,
    rows: Range<usize>,
    kc: usize,
    n: usize,
    packed_b: &[f32],
    out: &mut [f32],
) {
    let mut apack = vec![0.0f32; kc * MR];
    let panels = n.div_ceil(NR);
    let mut i = rows.start;
    while i < rows.end {
        let h = MR.min(rows.end - i);
        pack_a(i, h, &mut apack);
        for pj in 0..panels {
            let j0 = pj * NR;
            let w = NR.min(n - j0);
            let panel = &packed_b[pj * kc * NR..(pj + 1) * kc * NR];
            let acc = micro_tile(&apack, panel.chunks_exact(NR), kc);
            store_tile::<ACCUM>(&acc, h, w, out, (i - rows.start) * n + j0, n);
        }
        i += h;
    }
}

simd_kernel! {
    /// Computes output rows `rows` of a GEMM against pre-packed B panels.
    ///
    /// `pack_a(i0, h, dst)` fills an interleaved `[kc][MR]` block for source
    /// rows `i0..i0+h`. `out` holds `rows.len() * n` elements (row
    /// `rows.start` first). With `accum` the tile is added into `out` (`+=`
    /// of a register-complete chain, for windowed accumulation); otherwise it
    /// overwrites.
    fn gemm_rows(
        pack_a: &PackAFn<'_>,
        rows: Range<usize>,
        kc: usize,
        n: usize,
        packed_b: &[f32],
        out: &mut [f32],
        accum: bool,
    ) {
        if accum {
            gemm_rows_tiles::<true>(pack_a, rows, kc, n, packed_b, out);
        } else {
            gemm_rows_tiles::<false>(pack_a, rows, kc, n, packed_b, out);
        }
    }
}

/// Shared dispatch: serial for small products, row-partitioned over the
/// persistent pool otherwise. The span partitioning matches the pre-pool
/// version exactly (rows_per_span · n elements per span), and every span runs
/// the same `gemm_rows` kernel, so parallel and serial results are
/// bit-identical.
fn gemm_dispatch(
    pack_a: &PackAFn<'_>,
    m: usize,
    kc: usize,
    n: usize,
    packed_b: &[f32],
    out: &mut [f32],
) {
    remix_trace::incr(remix_trace::Counter::GemmCalls);
    remix_trace::add(remix_trace::Counter::GemmMacs, (m * kc * n) as u64);
    trace_pack_a_bytes(m, kc);
    let _span = remix_trace::span("gemm");
    let threads = remix_parallel::num_threads();
    if threads > 1 && m > 1 && m * kc * n >= PARALLEL_MATMUL_MACS {
        let rows_per_span = m.div_ceil(threads.min(m));
        remix_parallel::for_each_span_mut(out, rows_per_span * n, |span, orows| {
            let row0 = span * rows_per_span;
            gemm_rows(
                pack_a,
                row0..row0 + orows.len() / n,
                kc,
                n,
                packed_b,
                orows,
                false,
            );
        });
    } else {
        gemm_rows(pack_a, 0..m, kc, n, packed_b, out, false);
    }
}

simd_kernel! {
    /// Computes output rows `rows` of a GEMM whose A blocks were packed ahead
    /// of time: `ablocks` holds `m.div_ceil(MR)` interleaved `[kc][MR]` blocks
    /// (the exact buffers the per-call `pack_a` closure would produce, tail
    /// rows zero-padded), so the micro-kernel consumes identical inputs and
    /// the outputs are bit-identical to [`gemm_rows`] by construction.
    ///
    /// `rows.start` must sit on an `MR` boundary so the span reads whole
    /// blocks.
    fn gemm_rows_prepacked(
        ablocks: &[f32],
        rows: Range<usize>,
        kc: usize,
        n: usize,
        packed_b: &[f32],
        out: &mut [f32],
    ) {
        debug_assert!(
            rows.start.is_multiple_of(MR),
            "prepacked spans must start on an MR boundary"
        );
        let panels = n.div_ceil(NR);
        let block_len = kc * MR;
        let mut i = rows.start;
        while i < rows.end {
            let h = MR.min(rows.end - i);
            let apack = &ablocks[(i / MR) * block_len..(i / MR) * block_len + block_len];
            for pj in 0..panels {
                let j0 = pj * NR;
                let w = NR.min(n - j0);
                let panel = &packed_b[pj * kc * NR..(pj + 1) * kc * NR];
                let acc = micro_tile(apack, panel.chunks_exact(NR), kc);
                store_tile::<false>(&acc, h, w, out, (i - rows.start) * n + j0, n);
            }
            i += h;
        }
    }
}

/// [`gemm_dispatch`] over stored A blocks. Parallel spans are rounded up to
/// `MR`-row multiples so every span starts on a block boundary — a different
/// row partition than the fresh path, which is irrelevant to the result:
/// partitioning only reorders *which* output elements compute when, never the
/// additions within one element (module determinism contract).
fn gemm_dispatch_prepacked(
    ablocks: &[f32],
    m: usize,
    kc: usize,
    n: usize,
    packed_b: &[f32],
    out: &mut [f32],
) {
    remix_trace::incr(remix_trace::Counter::GemmCalls);
    remix_trace::incr(remix_trace::Counter::PrepackHits);
    remix_trace::add(remix_trace::Counter::GemmMacs, (m * kc * n) as u64);
    let _span = remix_trace::span("gemm");
    let threads = remix_parallel::num_threads();
    if threads > 1 && m > 1 && m * kc * n >= PARALLEL_MATMUL_MACS {
        let rows_per_span = m.div_ceil(threads.min(m)).next_multiple_of(MR);
        remix_parallel::for_each_span_mut(out, rows_per_span * n, |span, orows| {
            let row0 = span * rows_per_span;
            gemm_rows_prepacked(
                ablocks,
                row0..row0 + orows.len() / n,
                kc,
                n,
                packed_b,
                orows,
            );
        });
    } else {
        gemm_rows_prepacked(ablocks, 0..m, kc, n, packed_b, out);
    }
}

/// Every A block of rows `rows` (as in [`gemm_rows_prepacked`]) times one B
/// panel, whose rows `brows` yields, into columns `cols` of `out`, rows `n`
/// apart.
#[inline(always)]
fn panel_tiles<'b>(
    ablocks: &[f32],
    rows: &Range<usize>,
    kc: usize,
    brows: impl Iterator<Item = &'b [f32]> + Clone,
    cols: Range<usize>,
    n: usize,
    out: &mut [f32],
) {
    let block_len = kc * MR;
    let mut i = rows.start;
    while i < rows.end {
        let h = MR.min(rows.end - i);
        let apack = &ablocks[(i / MR) * block_len..][..block_len];
        let acc = micro_tile(apack, brows.clone(), kc);
        store_tile::<false>(
            &acc,
            h,
            cols.len(),
            out,
            (i - rows.start) * n + cols.start,
            n,
        );
        i += h;
    }
}

simd_kernel! {
    /// Computes output rows `rows` of a conv GEMM against stored A blocks
    /// (as in [`gemm_rows_prepacked`]) whose B panels `panels` produces one
    /// at a time, and every A block of the span multiplies each panel while
    /// it is still in L1, so the B operand is never materialized as a
    /// whole. A panel that is one contiguous run of the padded batch is
    /// read in place; any other is packed into an `[kc][NR]` buffer. The
    /// micro-kernel sees the same blocks and the same panel rows as over a
    /// fully packed operand — only the order in which tiles are computed
    /// changes — so the results are bit-identical.
    ///
    /// With `tally`, the bytes packed are counted on `gemm_pack_bytes`.
    fn gemm_rows_panelwise(
        ablocks: &[f32],
        rows: Range<usize>,
        kc: usize,
        panels: &ConvPanels<'_>,
        out: &mut [f32],
        tally: bool,
    ) {
        debug_assert!(
            rows.start.is_multiple_of(MR),
            "prepacked spans must start on an MR boundary"
        );
        let n = panels.cols();
        let mut panel = Vec::new();
        let mut packed = 0;
        for j0 in (0..n).step_by(NR) {
            let cols = j0..(j0 + NR).min(n);
            if let Some(brows) = panels.rows_in_place(j0, cols.len()) {
                panel_tiles(ablocks, &rows, kc, brows, cols, n, out);
            } else {
                reset_buf(&mut panel, kc * NR);
                panels.pack(j0, cols.len(), &mut panel);
                packed += panel.len();
                panel_tiles(ablocks, &rows, kc, panel.chunks_exact(NR), cols, n, out);
            }
        }
        if tally {
            trace_pack_bytes(packed);
        }
    }
}

/// The conv GEMM `W · patchesᵀ` of the A blocks `ablocks` (`m` rows, inner
/// dimension `kc`) with the B panels `panels` produces, into `out`:
/// `[m, panels.cols()]`. As [`gemm_dispatch_prepacked`], with B panels
/// produced per span (see [`gemm_rows_panelwise`]): parallel spans each
/// produce every panel for their own rows, and the first span's packs are
/// counted, so the count is the serial run's at any thread count. Callers
/// count their A-side traffic: a prepack hit, or the A blocks they packed.
fn conv_gemm_panels(
    ablocks: &[f32],
    m: usize,
    kc: usize,
    panels: &ConvPanels<'_>,
    out: &mut Vec<f32>,
) {
    let n = panels.cols();
    reset_buf(out, m * n);
    remix_trace::incr(remix_trace::Counter::GemmCalls);
    remix_trace::add(remix_trace::Counter::GemmMacs, (m * kc * n) as u64);
    let _span = remix_trace::span("gemm");
    let threads = remix_parallel::num_threads();
    if threads > 1 && m > 1 && m * kc * n >= PARALLEL_MATMUL_MACS {
        let rows_per_span = m.div_ceil(threads.min(m)).next_multiple_of(MR);
        remix_parallel::for_each_span_mut(out, rows_per_span * n, |span, orows| {
            let row0 = span * rows_per_span;
            let rows = row0..row0 + orows.len() / n;
            gemm_rows_panelwise(ablocks, rows, kc, panels, orows, span == 0);
        });
    } else {
        gemm_rows_panelwise(ablocks, 0..m, kc, panels, out, true);
    }
}

/// Convolution input gradients, fused: the `[C·k·k, n]` product `Wᵀ · G`
/// of the `Wᵀ` A blocks `ablocks` (`m = C·k·k` rows, inner dimension
/// `kc = F`) with the output gradients whose B panels `grads` packs is never
/// materialized. For each `NR`-column panel of `G`, every row block's
/// register tile is added onto `images`, the zeroed padded input gradient,
/// before the next panel: straight from registers when the panel's columns
/// are lanes of one output position, otherwise through an L1-sized
/// `[C·k·k][NR]` tile that `fold` adds (see [`conv_grad_block`]).
///
/// Each tile element is the exact value `matmul_at_b` computes (same A
/// blocks, same panels, same kernel), and panels fold in ascending column
/// order, so each lane's gradient is bit-identical to `row2im(gᵀ · W)`. A
/// channel's padded plane only receives the tile rows of its own patch
/// elements, so the work splits into independent blocks of channels:
/// parallel spans take whole blocks, and the serial loop runs channel
/// blocks small enough for their active rows to stay in L1. Every part
/// starts on an A block and computes its rows for each of its panels,
/// which moves no element's chain. Each panel is packed, and counted as
/// packed, once.
fn conv_input_grads_dispatch(
    ablocks: &[f32],
    kc: usize,
    grads: &ConvPanels<'_>,
    fold: &ConvFold,
    geo: &Conv2dGeometry,
    images: &mut [f32],
) {
    let m = geo.patch_len();
    let n = grads.cols();
    remix_trace::incr(remix_trace::Counter::GemmCalls);
    remix_trace::add(remix_trace::Counter::GemmMacs, (m * kc * n) as u64);
    let _span = remix_trace::span("gemm");
    if n == 0 {
        return;
    }
    let channels = geo.in_channels;
    // Channel blocks fill whole A blocks, and their active padded rows —
    // `k` rows of every channel of the block — fit comfortably in L1: a
    // lane-major row holds every lane.
    let kk = geo.kernel * geo.kernel;
    let unit = MR / gcd(kk, MR);
    let padded_row = fold.plane_len() / (geo.in_h + 2 * geo.pad);
    let row_bytes = geo.kernel * padded_row * std::mem::size_of::<f32>();
    let block = (FOLD_WINDOW_BYTES / row_bytes)
        .max(1)
        .next_multiple_of(unit);
    let threads = remix_parallel::num_threads();
    let parallel = threads > 1 && m * kc * n >= PARALLEL_MATMUL_MACS;
    let per_span = channels
        .div_ceil(threads.min(channels))
        .next_multiple_of(unit);
    let split = parallel && per_span < channels;
    // Every part — a parallel span or a serial block of channels — reads
    // every panel: with more than one part, the panels are packed once, up
    // front.
    let mut packed = Vec::new();
    if split || channels > block {
        packed = vec![0.0f32; n.div_ceil(NR) * kc * NR];
        trace_pack_bytes(packed.len());
        for (j0, panel) in (0..n).step_by(NR).zip(packed.chunks_exact_mut(kc * NR)) {
            grads.pack(j0, NR.min(n - j0), panel);
        }
    }
    let span = ConvGradSpan {
        ablocks,
        kc,
        kk,
        block,
        grads,
        packed: &packed,
        fold,
    };
    if split {
        let plane = fold.plane_len();
        remix_parallel::for_each_span_mut(images, per_span * plane, |i, dst| {
            let c0 = i * per_span;
            span.run(c0..c0 + dst.len() / plane, dst)
        });
    } else {
        span.run(0..channels, images);
    }
}

/// Bytes of padded input-gradient rows one fold block keeps active.
const FOLD_WINDOW_BYTES: usize = 16 << 10;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The fused input-gradient loop of [`conv_input_grads_dispatch`].
struct ConvGradSpan<'a> {
    ablocks: &'a [f32],
    kc: usize,
    /// Patch elements per channel, `k·k`.
    kk: usize,
    /// Channels per fold block.
    block: usize,
    grads: &'a ConvPanels<'a>,
    /// Every panel of `grads`, packed, or empty to pack them as they come.
    packed: &'a [f32],
    fold: &'a ConvFold,
}

impl ConvGradSpan<'_> {
    /// Folds the input gradient of channels `chans` onto `dst`, their
    /// padded planes, block by block. `chans.start·k·k` sits on an A block
    /// boundary.
    fn run(&self, chans: Range<usize>, dst: &mut [f32]) {
        let plane = self.fold.plane_len();
        for (i, dst) in dst.chunks_mut(self.block * plane).enumerate() {
            let c0 = chans.start + i * self.block;
            conv_grad_block(self, c0..c0 + dst.len() / plane, dst);
        }
    }
}

simd_kernel! {
    /// Every panel of `span`, its tile rows of the patch elements of
    /// channels `chans` folded onto `dst`, their padded planes, in ascending
    /// panel order. Blocks own disjoint planes, so their order is free.
    ///
    /// A panel of `NR` lanes of one output position folds from registers:
    /// each A block's tile rows are added onto their distinct slots right
    /// after its k-loop. Any other panel's rows go through a tile buffer
    /// and [`fold_tile`], which orders the adds of the slots it shares.
    fn conv_grad_block(span: &ConvGradSpan<'_>, chans: Range<usize>, dst: &mut [f32]) {
        let kc = span.kc;
        let rows = chans.start * span.kk..chans.end * span.kk;
        let blocks = &span.ablocks[rows.start / MR * kc * MR..rows.end.div_ceil(MR) * kc * MR];
        let cols = span.grads.cols();
        if span.packed.is_empty() {
            trace_pack_bytes(cols.div_ceil(NR) * kc * NR);
        }
        let (mut own, mut tile) = (Vec::new(), Vec::new());
        for j0 in (0..cols).step_by(NR) {
            let width = NR.min(cols - j0);
            let panel = if span.packed.is_empty() {
                reset_buf(&mut own, kc * NR);
                span.grads.pack(j0, width, &mut own);
                &own[..]
            } else {
                &span.packed[j0 / NR * kc * NR..][..kc * NR]
            };
            if let Some(slot) = span.fold.position_slots(j0, width, chans.start) {
                for (row0, ablock) in rows.clone().step_by(MR).zip(blocks.chunks_exact(kc * MR)) {
                    let acc = micro_tile(ablock, panel.chunks_exact(NR), kc);
                    for (p, accr) in (row0..rows.end).zip(&acc) {
                        let run: &mut [f32; NR] =
                            (&mut dst[slot(p)..][..NR]).try_into().expect("NR-wide slot run");
                        for (d, &v) in run.iter_mut().zip(accr) {
                            *d += v;
                        }
                    }
                }
                continue;
            }
            reset_buf(&mut tile, blocks.len() / kc * NR);
            for (ablock, rows) in blocks
                .chunks_exact(kc * MR)
                .zip(tile.chunks_exact_mut(MR * NR))
            {
                let acc = micro_tile(ablock, panel.chunks_exact(NR), kc);
                for (row, accr) in rows.chunks_exact_mut(NR).zip(&acc) {
                    let row: &mut [f32; NR] = row.try_into().expect("NR-wide tile row");
                    *row = *accr;
                }
            }
            fold_tile(span.fold, &tile, chans.clone(), j0, width, dst);
        }
    }
}

/// The geometry under which output gradients `[F, out_h, out_w]` are the
/// images of a 1×1 convolution whose patch element `f` is filter `f`: their
/// [`ConvPanels`] are the B panels of `G`.
fn grad_geometry(filters: usize, geo: &Conv2dGeometry) -> Conv2dGeometry {
    Conv2dGeometry {
        in_channels: filters,
        in_h: geo.out_h(),
        in_w: geo.out_w(),
        kernel: 1,
        stride: 1,
        pad: 0,
    }
}

/// The fused conv input gradient of the lane-major output gradient `grads`
/// of `lanes` lanes: a lane-major `[C, H, W, B]` gradient, or `[C, H, W]`
/// for a single `[F, out_h, out_w]` sample. `scratch` holds the padded
/// input gradient.
fn fused_input_grads_lanes(
    ablocks: &[f32],
    kc: usize,
    grads: &Tensor,
    lanes: usize,
    geo: &Conv2dGeometry,
    scratch: &mut Vec<f32>,
) -> Tensor {
    // Unpadded, the gradient panels pack from `grads` in place and never
    // touch their scratch.
    let mut no_padding = Vec::new();
    let panels = ConvPanels::new(grads, lanes, &grad_geometry(kc, geo), &mut no_padding);
    let fold = ConvFold::new(geo, lanes);
    reset_buf(scratch, fold.image_len());
    scratch.fill(0.0);
    conv_input_grads_dispatch(ablocks, kc, &panels, &fold, geo, scratch);
    let mut shape = vec![geo.in_channels, geo.in_h, geo.in_w];
    if grads.rank() == 4 {
        shape.push(lanes);
    }
    fold.extract(scratch, &shape)
}

/// Validates the conv input-gradient operands — a `[F, C·k·k]` filter
/// matrix (`weight_shape`) for `geo` and lane-major `[F, out_h, out_w, B]`
/// gradients — and returns `B`.
fn check_conv_grads(
    weight_shape: [usize; 2],
    grads: &Tensor,
    geo: &Conv2dGeometry,
) -> Result<usize> {
    check_filters(weight_shape, geo)?;
    check_lanes(
        grads,
        [weight_shape[0], geo.out_h(), geo.out_w()],
        "conv input gradient",
    )
}

/// Packs all of row-major `a` (`[m, k]`) into the interleaved
/// `[m.div_ceil(MR)][k][MR]` A blocks, tail rows zero-padded — what
/// [`Tensor::prepack_a`] stores and the per-call `pack_a_rows` closure
/// rebuilds block by block.
fn pack_a_blocks(a: &[f32], m: usize, k: usize) -> Vec<f32> {
    let blocks = m.div_ceil(MR);
    let mut data = vec![0.0f32; blocks * k * MR];
    let window = 0..k;
    for (bi, dst) in data.chunks_exact_mut(k * MR).enumerate() {
        pack_a_rows(a, k, &window, bi * MR, MR.min(m - bi * MR), dst);
    }
    data
}

/// Packs the transpose of row-major `a` (`[k, m]`) into the same
/// `[m.div_ceil(MR)][k][MR]` A blocks — what [`Tensor::prepack_at`] stores.
fn pack_at_blocks(a: &[f32], k: usize, m: usize) -> Vec<f32> {
    let mut data = vec![0.0f32; m.div_ceil(MR) * k * MR];
    for (bi, dst) in data.chunks_exact_mut(k * MR).enumerate() {
        pack_at_rows(a, m, k, bi * MR, MR.min(m - bi * MR), dst);
    }
    data
}

/// Accumulates `out[i][j] += Σ_p a[i][p] · b[p][j]` for row-major
/// `a: [m, kc]` and `b: [kc, n]` (a plain `A · B` product), through the
/// blocked micro-kernel.
///
/// Each `(i, j)` contribution is a complete ascending-p register chain from
/// 0.0 that is then added to `out[i][j]` — bitwise the same as materializing
/// `a.matmul(b)` and calling `add_assign`. `remix-nn` uses this for the
/// conv weight gradient, one GEMM per lane against that lane's
/// `[spatial, patch]` patch rows; `packed` is caller-provided scratch so
/// the per-lane loop doesn't reallocate.
pub fn gemm_accum_ab(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    kc: usize,
    n: usize,
    packed: &mut Vec<f32>,
) {
    debug_assert_eq!(a.len(), m * kc);
    debug_assert_eq!(b.len(), kc * n);
    debug_assert_eq!(out.len(), m * n);
    remix_trace::incr(remix_trace::Counter::GemmCalls);
    remix_trace::add(remix_trace::Counter::GemmMacs, (m * kc * n) as u64);
    trace_pack_a_bytes(m, kc);
    pack_b(b, kc, n, packed);
    let window = 0..kc;
    gemm_rows(
        &|i0, h, dst| pack_a_rows(a, kc, &window, i0, h, dst),
        0..m,
        kc,
        n,
        packed,
        out,
        true,
    );
}

/// Which operand slot and read orientation a [`PackedOperand`] was built for.
///
/// The lhs roles (`A`, `At`) store interleaved `[m.div_ceil(MR)][kc][MR]`
/// A blocks; the rhs role (`B`) stores `[n.div_ceil(NR)][kc][NR]` B panels.
/// The two lhs orientations differ only in how the *source* tensor was read
/// during packing — the stored layout (and therefore the kernel consuming
/// it) is identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedRole {
    /// Left operand read row-major: source `[m, k]`, serves
    /// [`PackedOperand::matmul_prepacked_into`] and
    /// [`PackedOperand::matmul_a_bt_prepacked_into`].
    A,
    /// Left operand read transposed: source `[k, m]`, serves
    /// [`PackedOperand::matmul_at_b_prepacked_into`].
    At,
    /// Right operand read row-major: source `[k, n]`, serves
    /// [`PackedOperand::matmul_at_b_rhs_prepacked_into`].
    B,
}

/// A persistent prepacked GEMM operand: the weight side of a weight-static
/// product, relaid out once by the `Tensor::prepack_*` family and reused
/// across every subsequent call.
///
/// Packing is a pure relayout — the stored blocks/panels are byte-identical
/// to what the per-call pack stage would produce, and every output element
/// keeps its existing ascending-k accumulation chain — so the prepacked entry
/// points are bit-identical to their fresh counterparts by construction. The
/// varying (activation) operand still packs per call; what a `PackedOperand`
/// eliminates is the *weight-side* pack traffic, which on a frozen serving
/// replica is every repeat pack after the first.
///
/// Holders are responsible for invalidation: a pack is a snapshot of the
/// source tensor, so any mutation of the weights must drop it (`remix-nn`
/// layers do this inside `visit_params`, the single chokepoint through which
/// optimizer steps and state loads mutate parameters).
#[derive(Debug, Clone)]
pub struct PackedOperand {
    role: PackedRole,
    /// Output-facing dimension of the logical operand: `m` for lhs roles,
    /// `n` for rhs roles.
    dim: usize,
    /// Shared inner dimension.
    kc: usize,
    /// Source tensor shape, for error reporting.
    src: [usize; 2],
    data: Vec<f32>,
}

impl PackedOperand {
    /// The role this operand was packed for.
    pub fn role(&self) -> PackedRole {
        self.role
    }

    /// Number of packed `f32` slots (block/panel padding included).
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    fn expect_role(&self, want: PackedRole, op: &str) {
        assert_eq!(
            self.role, want,
            "{op} needs a {want:?}-role pack, got {:?} (packed from {:?})",
            self.role, self.src
        );
    }

    fn check_inner_dim(&self, other: &Tensor, inner: usize) -> Result<()> {
        if inner != self.kc {
            return Err(TensorError::MatmulDimMismatch {
                left: self.src.to_vec(),
                right: other.shape().to_vec(),
            });
        }
        Ok(())
    }

    /// `P · other` for a pack built by [`Tensor::prepack_a`] from `[m, k]`
    /// and `other: [k, n]` → `out: [m, n]`; bit-identical to
    /// [`Tensor::matmul_into`] on the source tensor. `packed` is scratch for
    /// the per-call B panels of `other`.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Tensor::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if the pack's role is not [`PackedRole::A`].
    pub fn matmul_prepacked_into(
        &self,
        other: &Tensor,
        out: &mut Vec<f32>,
        packed: &mut Vec<f32>,
    ) -> Result<()> {
        self.expect_role(PackedRole::A, "matmul_prepacked_into");
        check_rank2(other, "matmul")?;
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        self.check_inner_dim(other, k2)?;
        pack_b(other.data(), self.kc, n, packed);
        reset_buf(out, self.dim * n);
        gemm_dispatch_prepacked(&self.data, self.dim, self.kc, n, packed, out);
        Ok(())
    }

    /// `Pᵀ · other` for a pack built by [`Tensor::prepack_at`] from `[k, m]`
    /// and `other: [k, n]` → `out: [m, n]`; bit-identical to
    /// [`Tensor::matmul_at_b_into`] on the source tensor.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Tensor::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if the pack's role is not [`PackedRole::At`].
    pub fn matmul_at_b_prepacked_into(
        &self,
        other: &Tensor,
        out: &mut Vec<f32>,
        packed: &mut Vec<f32>,
    ) -> Result<()> {
        self.expect_role(PackedRole::At, "matmul_at_b_prepacked_into");
        check_rank2(other, "matmul_at_b")?;
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        self.check_inner_dim(other, k2)?;
        pack_b(other.data(), self.kc, n, packed);
        reset_buf(out, self.dim * n);
        gemm_dispatch_prepacked(&self.data, self.dim, self.kc, n, packed, out);
        Ok(())
    }

    /// `P · otherᵀ` for a pack built by [`Tensor::prepack_a`] from `[m, k]`
    /// and `other: [n, k]` → `out: [m, n]`; bit-identical to
    /// [`Tensor::matmul_a_bt_into`] on the source tensor.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Tensor::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if the pack's role is not [`PackedRole::A`].
    pub fn matmul_a_bt_prepacked_into(
        &self,
        other: &Tensor,
        out: &mut Vec<f32>,
        packed: &mut Vec<f32>,
    ) -> Result<()> {
        self.expect_role(PackedRole::A, "matmul_a_bt_prepacked_into");
        check_rank2(other, "matmul_a_bt")?;
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        self.check_inner_dim(other, k2)?;
        let window = 0..self.kc;
        pack_bt(other.data(), n, self.kc, &window, packed);
        reset_buf(out, self.dim * n);
        gemm_dispatch_prepacked(&self.data, self.dim, self.kc, n, packed, out);
        Ok(())
    }

    /// Convolution forward `P · patchesᵀ` for a pack built by
    /// [`Tensor::prepack_a`] from the `[F, C·k·k]` filter matrix, over a
    /// lane-major batch `[C, H, W, B]` → `out: [F, out_h·out_w·B]`, the
    /// lane-major output `[F, out_h, out_w, B]`. Every element is
    /// bit-identical to [`PackedOperand::matmul_a_bt_prepacked_into`] on its
    /// sample's [`im2row_batch_into`](crate::im2row_batch_into) patch rows,
    /// but the B panels are packed straight from the batch, so no patch
    /// matrix is built. `padded` is scratch for the zero-padded batch.
    ///
    /// # Errors
    ///
    /// Returns a rank or shape error unless `batch` is `[C, H, W, B]` for
    /// `geo`, or [`TensorError::MatmulDimMismatch`] if the pack's inner
    /// dimension is not `geo.patch_len()`.
    ///
    /// # Panics
    ///
    /// Panics if the pack's role is not [`PackedRole::A`].
    pub fn conv_gemm_prepacked_into(
        &self,
        batch: &Tensor,
        geo: &Conv2dGeometry,
        out: &mut Vec<f32>,
        padded: &mut Vec<f32>,
    ) -> Result<()> {
        self.expect_role(PackedRole::A, "conv_gemm_prepacked_into");
        let lanes = check_lanes(batch, [geo.in_channels, geo.in_h, geo.in_w], "conv_gemm")?;
        check_filters(self.src, geo)?;
        let panels = ConvPanels::new(batch, lanes, geo, padded);
        remix_trace::incr(remix_trace::Counter::PrepackHits);
        conv_gemm_panels(&self.data, self.dim, self.kc, &panels, out);
        Ok(())
    }

    /// Convolution input gradients for a pack built by
    /// [`Tensor::prepack_at`] from the `[F, C·k·k]` filter matrix: the
    /// lane-major `[C, H, W, B]` gradient of the lane-major
    /// `[F, out_h, out_w, B]` output gradient `grads`. Each sample's
    /// gradient is bit-identical to [`row2im`](crate::row2im) of its
    /// [`PackedOperand::matmul_at_b_prepacked_into`] patch gradient, but the
    /// `[C·k·k, out_h·out_w·B]` product is folded onto the padded gradient
    /// panel by panel instead of being built. `scratch` holds the padded
    /// input gradient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulDimMismatch`] if the pack's output
    /// dimension is not `geo.patch_len()`, or a rank or shape error unless
    /// `grads` is `[F, out_h, out_w, B]`.
    ///
    /// # Panics
    ///
    /// Panics if the pack's role is not [`PackedRole::At`].
    pub fn conv_input_grads_prepacked(
        &self,
        grads: &Tensor,
        geo: &Conv2dGeometry,
        scratch: &mut Vec<f32>,
    ) -> Result<Tensor> {
        self.expect_role(PackedRole::At, "conv_input_grads_prepacked");
        let lanes = check_conv_grads([self.kc, self.dim], grads, geo)?;
        remix_trace::incr(remix_trace::Counter::PrepackHits);
        Ok(fused_input_grads_lanes(
            &self.data, self.kc, grads, lanes, geo, scratch,
        ))
    }

    /// `lhsᵀ · P` for a pack built by [`Tensor::prepack_b`] from `[k, n]`
    /// and `lhs: [k, m]` → `out: [m, n]`; bit-identical to
    /// `lhs.matmul_at_b_into(source, ..)`. The varying `lhs` packs per
    /// `MR`-block inside the kernel (no scratch buffer needed); only the
    /// stored B panels are reused.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Tensor::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if the pack's role is not [`PackedRole::B`].
    pub fn matmul_at_b_rhs_prepacked_into(&self, lhs: &Tensor, out: &mut Vec<f32>) -> Result<()> {
        self.expect_role(PackedRole::B, "matmul_at_b_rhs_prepacked_into");
        check_rank2(lhs, "matmul_at_b")?;
        let (k2, m) = (lhs.shape()[0], lhs.shape()[1]);
        self.check_inner_dim(lhs, k2)?;
        remix_trace::incr(remix_trace::Counter::PrepackHits);
        let a = lhs.data();
        let (k, n) = (self.kc, self.dim);
        reset_buf(out, m * n);
        gemm_dispatch(
            &|i0, h, dst| pack_at_rows(a, m, k, i0, h, dst),
            m,
            k,
            n,
            &self.data,
            out,
        );
        Ok(())
    }
}

/// Checks that the `[F, C·k·k]` filter matrix `weight_shape` has `geo`'s
/// patch length as its inner dimension.
fn check_filters(weight_shape: [usize; 2], geo: &Conv2dGeometry) -> Result<()> {
    if weight_shape[1] != geo.patch_len() {
        return Err(TensorError::MatmulDimMismatch {
            left: weight_shape.to_vec(),
            right: vec![geo.in_channels, geo.in_h, geo.in_w],
        });
    }
    Ok(())
}

fn check_rank2(t: &Tensor, op: &'static str) -> Result<()> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            shape: t.shape().to_vec(),
            op,
        });
    }
    Ok(())
}

impl Tensor {
    /// Matrix product of two rank-2 tensors (`[m, k] x [k, n] -> [m, n]`).
    ///
    /// This is the hot path of every dense layer and of the im2col
    /// convolution in `remix-nn`; see the module docs for the kernel design
    /// and determinism contract. Sufficiently large products (2¹⁶
    /// multiply-adds and up) are partitioned by output row across the
    /// persistent worker pool with bit-identical results.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2,
    /// and [`TensorError::MatmulDimMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let mut out = Vec::new();
        let mut packed = Vec::new();
        self.matmul_into(other, &mut out, &mut packed)?;
        Tensor::from_vec(out, &[self.shape()[0], other.shape()[1]])
    }

    /// [`Tensor::matmul`] writing into caller-owned buffers: `out` receives
    /// the `m·n` result and `packed` is scratch for the packed B panels.
    /// Reusing both across calls eliminates the per-product allocations on
    /// the training/inference hot path.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Tensor::matmul`].
    pub fn matmul_into(
        &self,
        other: &Tensor,
        out: &mut Vec<f32>,
        packed: &mut Vec<f32>,
    ) -> Result<()> {
        check_rank2(self, "matmul")?;
        check_rank2(other, "matmul")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
            });
        }
        let a = self.data();
        let b = other.data();
        pack_b(b, k, n, packed);
        if out.len() != m * n {
            out.clear();
            out.resize(m * n, 0.0);
        }
        let window = 0..k;
        gemm_dispatch(
            &|i0, h, dst| pack_a_rows(a, k, &window, i0, h, dst),
            m,
            k,
            n,
            packed,
            out,
        );
        Ok(())
    }

    /// `selfᵀ · other` for `self: [k, m]`, `other: [k, n]` → `[m, n]`,
    /// without materializing the transpose: the packing stage reads `self`
    /// column-block-wise directly (contiguous per-p copies). Accumulation
    /// order per output element is identical to
    /// `self.transpose()?.matmul(other)`.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Tensor::matmul`] (the shared `k` must match).
    pub fn matmul_at_b(&self, other: &Tensor) -> Result<Tensor> {
        let mut out = Vec::new();
        let mut packed = Vec::new();
        self.matmul_at_b_into(other, &mut out, &mut packed)?;
        Tensor::from_vec(out, &[self.shape()[1], other.shape()[1]])
    }

    /// [`Tensor::matmul_at_b`] writing into caller-owned buffers, mirroring
    /// [`Tensor::matmul_into`]: `out` receives the `m·n` result and `packed`
    /// is scratch for the packed B panels. Reusing both across calls
    /// eliminates the per-product allocations (and their zero-fills) on the
    /// batched training hot path, where these buffers reach megabytes.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Tensor::matmul`].
    pub fn matmul_at_b_into(
        &self,
        other: &Tensor,
        out: &mut Vec<f32>,
        packed: &mut Vec<f32>,
    ) -> Result<()> {
        check_rank2(self, "matmul_at_b")?;
        check_rank2(other, "matmul_at_b")?;
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
            });
        }
        let a = self.data();
        let b = other.data();
        pack_b(b, k, n, packed);
        reset_buf(out, m * n);
        gemm_dispatch(
            &|i0, h, dst| pack_at_rows(a, m, k, i0, h, dst),
            m,
            k,
            n,
            packed,
            out,
        );
        Ok(())
    }

    /// `self · otherᵀ` for `self: [m, k]`, `other: [n, k]` → `[m, n]`,
    /// without materializing the transpose: the B-panel packing gathers
    /// strided columns from `other`'s rows. Accumulation order per output
    /// element is identical to `self.matmul(&other.transpose()?)`.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Tensor::matmul`] (the shared `k` must match).
    pub fn matmul_a_bt(&self, other: &Tensor) -> Result<Tensor> {
        let mut out = Vec::new();
        let mut packed = Vec::new();
        self.matmul_a_bt_into(other, &mut out, &mut packed)?;
        Tensor::from_vec(out, &[self.shape()[0], other.shape()[0]])
    }

    /// [`Tensor::matmul_a_bt`] writing into caller-owned buffers, mirroring
    /// [`Tensor::matmul_into`]: `out` receives the `m·n` result and `packed`
    /// is scratch for the packed B panels. Reusing both across calls
    /// eliminates the per-product allocations (and their zero-fills) on the
    /// batched training hot path, where these buffers reach megabytes.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Tensor::matmul`].
    pub fn matmul_a_bt_into(
        &self,
        other: &Tensor,
        out: &mut Vec<f32>,
        packed: &mut Vec<f32>,
    ) -> Result<()> {
        check_rank2(self, "matmul_a_bt")?;
        check_rank2(other, "matmul_a_bt")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
            });
        }
        let a = self.data();
        let b = other.data();
        let window = 0..k;
        pack_bt(b, n, k, &window, packed);
        reset_buf(out, m * n);
        gemm_dispatch(
            &|i0, h, dst| pack_a_rows(a, k, &window, i0, h, dst),
            m,
            k,
            n,
            packed,
            out,
        );
        Ok(())
    }

    /// Convolution forward `self · patchesᵀ` for the `[F, C·k·k]` filter
    /// matrix `self` over a lane-major batch `[C, H, W, B]` →
    /// `out: [F, out_h·out_w·B]`, the lane-major output — the fresh-A twin
    /// of [`PackedOperand::conv_gemm_prepacked_into`], every element
    /// bit-identical to [`Tensor::matmul_a_bt_into`] on its sample's
    /// [`im2row_batch_into`](crate::im2row_batch_into) patch rows without
    /// building them. `padded` is scratch for the zero-padded batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2, a rank
    /// or shape error unless `batch` is `[C, H, W, B]` for `geo`, or
    /// [`TensorError::MatmulDimMismatch`] if `self`'s inner dimension is
    /// not `geo.patch_len()`.
    pub fn conv_gemm_into(
        &self,
        batch: &Tensor,
        geo: &Conv2dGeometry,
        out: &mut Vec<f32>,
        padded: &mut Vec<f32>,
    ) -> Result<()> {
        check_rank2(self, "conv_gemm")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let lanes = check_lanes(batch, [geo.in_channels, geo.in_h, geo.in_w], "conv_gemm")?;
        check_filters([m, k], geo)?;
        let ablocks = pack_a_blocks(self.data(), m, k);
        trace_pack_a_bytes(m, k);
        let panels = ConvPanels::new(batch, lanes, geo, padded);
        conv_gemm_panels(&ablocks, m, k, &panels, out);
        Ok(())
    }

    /// Convolution input gradients for the `[F, C·k·k]` filter matrix
    /// `self` — the fresh-A twin of
    /// [`PackedOperand::conv_input_grads_prepacked`]: the lane-major
    /// `[C, H, W, B]` gradient of the lane-major `[F, out_h, out_w, B]`
    /// output gradient, each sample's bit-identical to
    /// [`row2im`](crate::row2im) of its [`Tensor::matmul_at_b`] patch
    /// gradient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2, and
    /// otherwise the errors of
    /// [`PackedOperand::conv_input_grads_prepacked`].
    pub fn conv_input_grads(
        &self,
        grads: &Tensor,
        geo: &Conv2dGeometry,
        scratch: &mut Vec<f32>,
    ) -> Result<Tensor> {
        check_rank2(self, "conv_input_grads")?;
        let (f, patch) = (self.shape()[0], self.shape()[1]);
        let lanes = check_conv_grads([f, patch], grads, geo)?;
        let ablocks = pack_at_blocks(self.data(), f, patch);
        trace_pack_a_bytes(patch, f);
        Ok(fused_input_grads_lanes(
            &ablocks, f, grads, lanes, geo, scratch,
        ))
    }

    /// Packs `self: [m, k]` once as the left operand of [`Tensor::matmul`] /
    /// [`Tensor::matmul_a_bt`] products ([`PackedRole::A`]): the interleaved
    /// `[m.div_ceil(MR)][k][MR]` A blocks the kernel would otherwise rebuild
    /// per call. Consume via [`PackedOperand::matmul_prepacked_into`] or
    /// [`PackedOperand::matmul_a_bt_prepacked_into`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2.
    pub fn prepack_a(&self) -> Result<PackedOperand> {
        check_rank2(self, "prepack_a")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let data = pack_a_blocks(self.data(), m, k);
        trace_pack_bytes(data.len());
        Ok(PackedOperand {
            role: PackedRole::A,
            dim: m,
            kc: k,
            src: [m, k],
            data,
        })
    }

    /// Packs `self: [k, m]` once as the transpose-read left operand of
    /// [`Tensor::matmul_at_b`] products ([`PackedRole::At`]). The stored
    /// layout is the same `[m.div_ceil(MR)][k][MR]` block family as
    /// [`Tensor::prepack_a`] — only the source read orientation differs.
    /// Consume via [`PackedOperand::matmul_at_b_prepacked_into`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2.
    pub fn prepack_at(&self) -> Result<PackedOperand> {
        check_rank2(self, "prepack_at")?;
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let data = pack_at_blocks(self.data(), k, m);
        trace_pack_bytes(data.len());
        Ok(PackedOperand {
            role: PackedRole::At,
            dim: m,
            kc: k,
            src: [k, m],
            data,
        })
    }

    /// Packs `self: [k, n]` once as the right operand of
    /// [`Tensor::matmul_at_b`] products ([`PackedRole::B`]): the
    /// `[n.div_ceil(NR)][k][NR]` column panels. Consume via
    /// [`PackedOperand::matmul_at_b_rhs_prepacked_into`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `self` is rank 2.
    pub fn prepack_b(&self) -> Result<PackedOperand> {
        check_rank2(self, "prepack_b")?;
        let (k, n) = (self.shape()[0], self.shape()[1]);
        let mut data = Vec::new();
        pack_b(self.data(), k, n, &mut data);
        Ok(PackedOperand {
            role: PackedRole::B,
            dim: n,
            kc: k,
            src: [k, n],
            data,
        })
    }

    /// Pre-blocking reference matmul (the PR 1 ikj kernel, zero-skip
    /// included), kept public so proptests and `bench_gemm` can pin the
    /// blocked kernel's bit-exactness and speedup against it.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`Tensor::matmul`].
    pub fn matmul_reference(&self, other: &Tensor) -> Result<Tensor> {
        check_rank2(self, "matmul")?;
        check_rank2(other, "matmul")?;
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
            });
        }
        let a = self.data();
        let b = other.data();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            matmul_row_reference(&a[i * k..(i + 1) * k], b, &mut out[i * n..(i + 1) * n], n);
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor, cache-blocked in 32×32 tiles so both
    /// the strided reads and the strided writes stay within a few cache
    /// lines per tile.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        check_rank2(self, "transpose")?;
        const TILE: usize = 32;
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let src = self.data();
        let mut out = vec![0.0f32; m * n];
        for i0 in (0..m).step_by(TILE) {
            for j0 in (0..n).step_by(TILE) {
                for i in i0..(i0 + TILE).min(m) {
                    for j in j0..(j0 + TILE).min(n) {
                        out[j * m + i] = src[i * n + j];
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Matrix-vector product (`[m, n] x [n] -> [m]`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::MatmulDimMismatch`]
    /// on shape violations.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        check_rank2(self, "matvec")?;
        let (m, n) = (self.shape()[0], self.shape()[1]);
        if v.len() != n {
            return Err(TensorError::MatmulDimMismatch {
                left: self.shape().to_vec(),
                right: v.shape().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data()[i * n..(i + 1) * n]
                .iter()
                .zip(v.data())
                .map(|(&a, &b)| a * b)
                .sum();
        }
        Ok(Tensor::from_slice(&out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::testing::{assert_levels_agree, edge_values, TEST_LANES};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[3, 3]).unwrap();
        let c = a.matmul(&Tensor::eye(3)).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
        assert!(Tensor::zeros(&[3]).matmul(&a).is_err());
        assert!(a.matmul_at_b(&Tensor::zeros(&[3, 2])).is_err());
        assert!(a.matmul_a_bt(&Tensor::zeros(&[2, 4])).is_err());
    }

    #[test]
    fn blocked_matmul_matches_reference_on_ragged_shapes() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (13, 31, 29),
            (64, 1, 64),
            (1, 64, 1),
        ] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            let blocked = a.matmul(&b).unwrap();
            let reference = a.matmul_reference(&b).unwrap();
            assert_eq!(blocked.data(), reference.data(), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(8);
        for &(k, m, n) in &[(5, 3, 7), (16, 9, 11), (33, 12, 4)] {
            let at = Tensor::rand_uniform(&[k, m], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            let fused = at.matmul_at_b(&b).unwrap();
            let explicit = at.transpose().unwrap().matmul(&b).unwrap();
            assert_eq!(fused.shape(), &[m, n]);
            assert_eq!(fused.data(), explicit.data(), "shape t{k}x{m} · {k}x{n}");
        }
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(9);
        for &(m, k, n) in &[(5, 3, 7), (16, 9, 11), (4, 33, 12)] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let bt = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
            let fused = a.matmul_a_bt(&bt).unwrap();
            let explicit = a.matmul(&bt.transpose().unwrap()).unwrap();
            assert_eq!(fused.shape(), &[m, n]);
            assert_eq!(fused.data(), explicit.data(), "shape {m}x{k} · t{n}x{k}");
        }
    }

    #[test]
    fn matmul_into_reuses_buffers_bitwise() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Tensor::rand_uniform(&[7, 13], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[13, 9], -1.0, 1.0, &mut rng);
        let expect = a.matmul(&b).unwrap();
        let mut out = Vec::new();
        let mut packed = Vec::new();
        for _ in 0..3 {
            a.matmul_into(&b, &mut out, &mut packed).unwrap();
            assert_eq!(&out[..], expect.data());
        }
    }

    #[test]
    fn zero_products_do_not_change_bits() {
        // The blocked kernel dropped the reference kernel's `av == 0.0` skip;
        // with ±0.0 sprinkled through both operands (so products like
        // `+0.0 · -3.0 = -0.0` occur) the results must still agree bitwise.
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let (m, k, n) = (
                rng.gen_range(1..12),
                rng.gen_range(1..12),
                rng.gen_range(1..12),
            );
            let sample = |rng: &mut StdRng| -> f32 {
                match rng.gen_range(0..4u32) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0..2.0),
                }
            };
            let a =
                Tensor::from_vec((0..m * k).map(|_| sample(&mut rng)).collect(), &[m, k]).unwrap();
            let b =
                Tensor::from_vec((0..k * n).map(|_| sample(&mut rng)).collect(), &[k, n]).unwrap();
            let blocked = a.matmul(&b).unwrap();
            let reference = a.matmul_reference(&b).unwrap();
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&blocked), bits(&reference), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_accum_ab_matches_matmul_add_assign() {
        let mut rng = StdRng::seed_from_u64(17);
        let (m, kc, n) = (5, 13, 27);
        let a = Tensor::rand_uniform(&[m, kc], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[kc, n], -1.0, 1.0, &mut rng);
        let mut got = vec![0.5f32; m * n];
        let mut expect = got.clone();
        let mut packed = Vec::new();
        gemm_accum_ab(a.data(), b.data(), &mut got, m, kc, n, &mut packed);
        let prod = a.matmul(&b).unwrap();
        for (e, p) in expect.iter_mut().zip(prod.data()) {
            *e += p;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expect));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let at = a.transpose().unwrap();
        assert_eq!(at.shape(), &[3, 2]);
        assert_eq!(at.at(&[2, 1]), a.at(&[1, 2]));
        assert_eq!(at.transpose().unwrap(), a);
    }

    #[test]
    fn blocked_transpose_known_values_and_roundtrip() {
        // Shapes straddling the 32-tile boundary exercise ragged tiles.
        let mut rng = StdRng::seed_from_u64(14);
        for &(m, n) in &[(1, 1), (31, 33), (32, 32), (40, 70), (65, 3)] {
            let a = Tensor::rand_uniform(&[m, n], -1.0, 1.0, &mut rng);
            let at = a.transpose().unwrap();
            assert_eq!(at.shape(), &[n, m]);
            for i in 0..m.min(5) {
                for j in 0..n.min(5) {
                    assert_eq!(at.at(&[j, i]), a.at(&[i, j]));
                }
            }
            assert_eq!(at.transpose().unwrap(), a);
        }
    }

    #[test]
    fn parallel_matmul_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(11);
        // 96·96·96 ≈ 885k multiply-adds: above the parallel cutoff
        let a = Tensor::rand_uniform(&[96, 96], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[96, 96], -1.0, 1.0, &mut rng);
        let parallel = a.matmul(&b).unwrap();
        // reference: sequential kernel over the same rows
        let (m, k, n) = (96, 96, 96);
        let mut reference = vec![0.0f32; m * n];
        for i in 0..m {
            matmul_row_reference(
                &a.data()[i * k..(i + 1) * k],
                b.data(),
                &mut reference[i * n..(i + 1) * n],
                n,
            );
        }
        assert_eq!(parallel.data(), &reference[..]);
    }

    #[test]
    fn prepacked_matches_fresh_on_zoo_shapes() {
        // The bench zoo shapes plus a product big enough to cross the
        // parallel-dispatch threshold, whose prepacked spans are MR-aligned
        // (unlike the fresh path's) — partitioning must not change bits.
        let mut rng = StdRng::seed_from_u64(42);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for &(m, k, n) in &[
            (8, 27, 8192),
            (16, 72, 2048),
            (24, 144, 512),
            (48, 256, 32),
            (96, 96, 96),
            (5, 9, 17),
        ] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            let mut out = Vec::new();
            let mut scratch = Vec::new();
            let pa = a.prepack_a().unwrap();
            pa.matmul_prepacked_into(&b, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(
                bits(&out),
                bits(a.matmul(&b).unwrap().data()),
                "matmul {m}x{k}x{n}"
            );
            let at = a.transpose().unwrap();
            let pat = at.prepack_at().unwrap();
            pat.matmul_at_b_prepacked_into(&b, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(
                bits(&out),
                bits(at.matmul_at_b(&b).unwrap().data()),
                "matmul_at_b {m}x{k}x{n}"
            );
            let bt = b.transpose().unwrap();
            pa.matmul_a_bt_prepacked_into(&bt, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(
                bits(&out),
                bits(a.matmul_a_bt(&bt).unwrap().data()),
                "matmul_a_bt {m}x{k}x{n}"
            );
            let pb = b.prepack_b().unwrap();
            pb.matmul_at_b_rhs_prepacked_into(&at, &mut out).unwrap();
            assert_eq!(
                bits(&out),
                bits(at.matmul_at_b(&b).unwrap().data()),
                "matmul_at_b rhs {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn prepacked_reuse_is_stable_across_calls() {
        let mut rng = StdRng::seed_from_u64(43);
        let a = Tensor::rand_uniform(&[7, 13], -1.0, 1.0, &mut rng);
        let pa = a.prepack_a().unwrap();
        assert_eq!(pa.role(), PackedRole::A);
        assert_eq!(pa.packed_len(), 7usize.div_ceil(MR) * MR * 13);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let b = Tensor::rand_uniform(&[13, 9], -1.0, 1.0, &mut rng);
            pa.matmul_prepacked_into(&b, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(&out[..], a.matmul(&b).unwrap().data());
        }
    }

    #[test]
    fn prepacked_rejects_mismatched_inner_dim() {
        let a = Tensor::zeros(&[4, 6]);
        let pa = a.prepack_a().unwrap();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        assert!(pa
            .matmul_prepacked_into(&Tensor::zeros(&[5, 3]), &mut out, &mut scratch)
            .is_err());
        assert!(pa
            .matmul_a_bt_prepacked_into(&Tensor::zeros(&[3, 5]), &mut out, &mut scratch)
            .is_err());
        assert!(Tensor::zeros(&[3]).prepack_a().is_err());
    }

    #[test]
    #[should_panic(expected = "needs a At-role pack")]
    fn prepacked_role_misuse_panics() {
        let a = Tensor::zeros(&[4, 6]);
        let pa = a.prepack_a().unwrap();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let _ = pa.matmul_at_b_prepacked_into(&Tensor::zeros(&[4, 3]), &mut out, &mut scratch);
    }

    #[test]
    fn gemm_row_loops_agree_bitwise_at_every_simd_level() {
        let (m, kc) = (7, 13);
        let a = edge_values(m * kc, 1);
        let ablocks = pack_a_blocks(&a, m, kc);
        let window = 0..kc;
        let pack_a = |i0, h, dst: &mut [f32]| pack_a_rows(&a, kc, &window, i0, h, dst);
        for n in TEST_LANES {
            let mut packed = Vec::new();
            pack_b(&edge_values(kc * n, 2), kc, n, &mut packed);
            for accum in [false, true] {
                let run = |level| {
                    let mut out = edge_values(m * n, 3);
                    gemm_rows::at(level, &pack_a, 0..m, kc, n, &packed, &mut out, accum);
                    out
                };
                assert_levels_agree(&format!("gemm_rows n{n} accum {accum}"), run);
            }
            let run = |level| {
                let mut out = vec![0.0; m * n];
                gemm_rows_prepacked::at(level, &ablocks, 0..m, kc, n, &packed, &mut out);
                out
            };
            assert_levels_agree(&format!("gemm_rows_prepacked n{n}"), run);
        }
    }

    #[test]
    fn conv_gemm_loops_agree_bitwise_at_every_simd_level() {
        let filters = 5;
        for (kernel, stride, pad) in [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)] {
            let geo = Conv2dGeometry {
                in_channels: 3,
                in_h: 5,
                in_w: 6,
                kernel,
                stride,
                pad,
            };
            let (patch, kk) = (geo.patch_len(), kernel * kernel);
            let weight = edge_values(filters * patch, 1);
            let (fwd_blocks, bwd_blocks) = (
                pack_a_blocks(&weight, filters, patch),
                pack_at_blocks(&weight, filters, patch),
            );
            for lanes in TEST_LANES {
                let what = format!("k{kernel} s{stride} p{pad} x{lanes}");
                let shape = [3, 5, 6, lanes];
                let batch = Tensor::from_vec(edge_values(90 * lanes, 2), &shape).unwrap();
                let mut padded = Vec::new();
                let panels = ConvPanels::new(&batch, lanes, &geo, &mut padded);
                let run = |level| {
                    let mut out = vec![0.0; filters * panels.cols()];
                    gemm_rows_panelwise::at(
                        level,
                        &fwd_blocks,
                        0..filters,
                        patch,
                        &panels,
                        &mut out,
                        false,
                    );
                    out
                };
                assert_levels_agree(&format!("gemm_rows_panelwise {what}"), run);

                let gshape = [filters, geo.out_h(), geo.out_w(), lanes];
                let len = gshape.iter().product();
                let grads = Tensor::from_vec(edge_values(len, 3), &gshape).unwrap();
                let mut unpadded = Vec::new();
                let gpanels =
                    ConvPanels::new(&grads, lanes, &grad_geometry(filters, &geo), &mut unpadded);
                let fold = ConvFold::new(&geo, lanes);
                let span = ConvGradSpan {
                    ablocks: &bwd_blocks,
                    kc: filters,
                    kk,
                    block: 3,
                    grads: &gpanels,
                    packed: &[],
                    fold: &fold,
                };
                let run = |level| {
                    let mut dst = vec![0.0; fold.image_len()];
                    conv_grad_block::at(level, &span, 0..3, &mut dst);
                    dst
                };
                assert_levels_agree(&format!("conv_grad_block {what}"), run);
                let tile = edge_values(patch.next_multiple_of(MR) * NR, 4);
                let run = |level| {
                    let mut dst = edge_values(fold.image_len(), 5);
                    for j0 in (0..gpanels.cols()).step_by(NR) {
                        let width = NR.min(gpanels.cols() - j0);
                        fold_tile::at(level, &fold, &tile, 0..3, j0, width, &mut dst);
                    }
                    dst
                };
                assert_levels_agree(&format!("fold_tile {what}"), run);
            }
        }
    }

    #[test]
    fn matvec_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let v = Tensor::from_slice(&[1.0, -1.0]);
        assert_eq!(a.matvec(&v).unwrap().data(), &[-1.0, -1.0]);
        assert!(a.matvec(&Tensor::zeros(&[3])).is_err());
    }
}
