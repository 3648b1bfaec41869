//! `gemm_pack_bytes` counts the bytes the conv GEMMs copy into packed
//! panels: a forward panel read in place from the padded batch adds 0, and
//! the count is the serial run's at any thread count. This file is its own
//! test binary, so the trace counters are its alone and it can pin
//! `REMIX_THREADS` before the thread count is first read.

use rand::{rngs::StdRng, SeedableRng};
use remix_tensor::{Conv2dGeometry, Tensor};

/// Bytes of one packed panel of `rows` rows of 16 floats.
fn panel_bytes(rows: usize) -> u64 {
    (rows * 16 * 4) as u64
}

#[test]
fn conv_gemms_count_only_the_panels_they_pack() {
    // More than one thread, so that large enough products split.
    std::env::set_var("REMIX_THREADS", "4");
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
    let count = |geo: Conv2dGeometry, lanes: usize, rng: &mut StdRng| {
        let weight = Tensor::rand_uniform(&[filters, geo.patch_len()], -1.0, 1.0, rng);
        let (forward, input_grads) = (weight.prepack_a().unwrap(), weight.prepack_at().unwrap());
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
        remix_trace::reset();
        input_grads
            .conv_input_grads_prepacked(&grads, &geo, &mut scratch)
            .unwrap();
        let dx = remix_trace::counter(remix_trace::Counter::GemmPackBytes);
        remix_trace::set_enabled(false);
        (fwd, dx)
    };

    // 16 lanes, padded: every forward panel is one run of the padded copy.
    // Each of the 36 gradient panels is packed once.
    let (fwd, dx) = count(geo(6, 3, 1, 1), 16, &mut rng);
    assert_eq!((fwd, dx), (0, 36 * panel_bytes(filters)));

    // One lane at stride 2: 9 columns, one ragged panel, packed.
    let (fwd, _) = count(geo(6, 3, 2, 1), 1, &mut rng);
    assert_eq!(fwd, panel_bytes(18));

    // Unpadded 1×1: every panel packs from the batch itself.
    let (fwd, _) = count(geo(6, 1, 1, 0), 16, &mut rng);
    assert_eq!(fwd, 36 * panel_bytes(2));

    // One lane over 24-wide output rows: of each row pair's three panels,
    // the one straddling two rows is packed. 8·18·576 MACs split the rows
    // over parallel spans, which all pack it; it counts once.
    let (fwd, _) = count(geo(24, 3, 1, 1), 1, &mut rng);
    assert_eq!(fwd, 12 * panel_bytes(18));
}
