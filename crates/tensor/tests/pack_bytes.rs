//! `gemm_pack_bytes` counts the bytes the conv GEMMs copy into packed
//! panels: a forward panel read in place from the padded batch adds 0, and
//! so does a frozen input gradient at 16 lanes, which reads its gradient
//! in place and its filters from the tap-major copy built with the pack.
//! This file is its own test binary, so the trace counters are its alone.

use rand::{rngs::StdRng, SeedableRng};
use remix_tensor::{Conv2dGeometry, Tensor};

/// Bytes of one packed panel of `rows` rows of 16 floats.
fn panel_bytes(rows: usize) -> u64 {
    (rows * 16 * 4) as u64
}

#[test]
fn conv_gemms_count_only_the_panels_they_pack() {
    let mut rng = StdRng::seed_from_u64(5);
    let geo = |size, kernel, stride, pad| Conv2dGeometry {
        in_channels: 2,
        in_h: size,
        in_w: size,
        kernel,
        stride,
        pad,
    };
    let filters = 8;
    // Bytes packed by the forward and by each of two input gradients
    // through the same packs, and by one input gradient through a bare
    // `prepack_at` pack.
    let count = |geo: Conv2dGeometry, lanes: usize, rng: &mut StdRng| {
        let weight = Tensor::rand_uniform(&[filters, geo.patch_len()], -1.0, 1.0, rng);
        let forward = weight.prepack_a().unwrap();
        let input_grads = weight.prepack_conv_grads(&geo).unwrap();
        let batch = Tensor::rand_uniform(&[2, geo.in_h, geo.in_w, lanes], -1.0, 1.0, rng);
        let grads =
            Tensor::rand_uniform(&[filters, geo.out_h(), geo.out_w(), lanes], -1.0, 1.0, rng);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        remix_trace::set_enabled(true);
        remix_trace::reset();
        forward
            .conv_gemm_prepacked_into(&batch, &geo, &mut out, &mut scratch)
            .unwrap();
        let fwd = remix_trace::counter(remix_trace::Counter::GemmPackBytes);
        let mut dx = [0; 2];
        for dx in &mut dx {
            remix_trace::reset();
            input_grads.conv_input_grads(&grads, &mut scratch).unwrap();
            *dx = remix_trace::counter(remix_trace::Counter::GemmPackBytes);
        }
        let at = weight.prepack_at().unwrap();
        remix_trace::reset();
        at.conv_input_grads_prepacked(&grads, &geo, &mut scratch)
            .unwrap();
        let dx_at = remix_trace::counter(remix_trace::Counter::GemmPackBytes);
        remix_trace::set_enabled(false);
        (fwd, dx, dx_at)
    };

    // 16 lanes, padded: every forward panel is one run of the padded copy,
    // and the input gradient packs nothing, where it packed 36 gradient
    // panels. A bare `At` pack copies the filters tap-major on each call:
    // 9 taps × 8 filters × 4 channel slots (2 of them zero).
    let (fwd, dx, dx_at) = count(geo(6, 3, 1, 1), 16, &mut rng);
    assert_eq!((fwd, dx, dx_at), (0, [0, 0], (9 * 8 * 4 * 4) as u64));

    // 8 lanes: each of the 18 gradient panels is packed once, on every call.
    let (_, dx, dx_at) = count(geo(6, 3, 1, 1), 8, &mut rng);
    assert_eq!(dx, [18 * panel_bytes(filters); 2]);
    assert_eq!(dx_at, 18 * panel_bytes(filters));

    // One lane at stride 2: 9 columns, one ragged panel, packed.
    let (fwd, ..) = count(geo(6, 3, 2, 1), 1, &mut rng);
    assert_eq!(fwd, panel_bytes(18));

    // Unpadded 1×1: every panel packs from the batch itself.
    let (fwd, ..) = count(geo(6, 1, 1, 0), 16, &mut rng);
    assert_eq!(fwd, 36 * panel_bytes(2));

    // One lane over 24-wide output rows: of each row pair's three panels,
    // the one straddling two rows is packed.
    let (fwd, ..) = count(geo(24, 3, 1, 1), 1, &mut rng);
    assert_eq!(fwd, 12 * panel_bytes(18));
}
