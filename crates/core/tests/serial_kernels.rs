//! A one-thread `Remix::predict` posts nothing to the worker pool, however
//! many threads the process has: the tensor kernels run on their caller's
//! thread, so `Remix::threads` is the only thing that fans work out. This
//! file is its own test binary, so it can pin `REMIX_THREADS` before the
//! thread count is first read, and the trace counters are its alone.

use rand::{rngs::StdRng, SeedableRng};
use remix_core::Remix;
use remix_ensemble::TrainedEnsemble;
use remix_nn::{zoo, Arch, InputSpec, Model};
use remix_tensor::Tensor;
use remix_trace::Counter;
use remix_xai::XaiLevel;

const SPEC: InputSpec = InputSpec {
    channels: 3,
    size: 16,
    num_classes: 7,
};

/// `gemm_macs` and `gemm_pack_bytes` of the traced verdict below, recorded
/// at `REMIX_THREADS=1` before the kernels lost their parallel spans: at 4
/// threads those spans posted 60 pool jobs for the same counts.
const GEMM_MACS: u64 = 34_749_056;
const GEMM_PACK_BYTES: u64 = 1_705_280;

#[test]
fn a_one_thread_full_rung_verdict_posts_no_pool_job() {
    // Four threads, so that a kernel that still split its work would post.
    std::env::set_var("REMIX_THREADS", "4");
    let models = [Arch::ConvNet, Arch::MobileNet, Arch::ResNet18].map(|arch| {
        let mut rng = StdRng::seed_from_u64(0x5eed ^ arch as u64);
        let mut model = Model::named(zoo::build(arch, SPEC, &mut rng), SPEC, arch.name());
        model.freeze_for_inference();
        model
    });
    let mut ensemble = TrainedEnsemble::new(models.into());
    let remix = Remix::builder().seed(17).threads(1).build();
    let mut rng = StdRng::seed_from_u64(0xd15a);
    let image = std::iter::repeat_with(|| {
        Tensor::rand_uniform(&[SPEC.channels, SPEC.size, SPEC.size], 0.0, 1.0, &mut rng)
    })
    .take(12)
    .find(|image| !remix.predict(&mut ensemble, image).unanimous)
    .expect("the members disagree on one of 12 inputs");

    remix_trace::reset();
    remix_trace::set_enabled(true);
    let verdict = remix.predict(&mut ensemble, &image);
    remix_trace::set_enabled(false);
    assert!(!verdict.unanimous);
    assert_eq!(verdict.xai_level, XaiLevel::Full);
    let counts =
        [Counter::PoolJobs, Counter::GemmMacs, Counter::GemmPackBytes].map(remix_trace::counter);
    assert_eq!(counts, [0, GEMM_MACS, GEMM_PACK_BYTES]);
}
