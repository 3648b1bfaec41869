//! Runtime SIMD dispatch: one kernel body, compiled at every SIMD level,
//! run at the widest level this CPU reports.
//!
//! The build targets baseline x86-64 (SSE2). A kernel declared with
//! [`simd_kernel!`](crate::simd_kernel) is compiled three times — as
//! written, under `#[target_feature(enable = "avx2")]` and under
//! `#[target_feature(enable = "avx512f")]` — and each call runs the variant
//! of [`simd_level`], which is detected once per process. The variants
//! share one body, so every element is computed by the same operations in
//! the same order from the same start: Rust never contracts `mul` + `add`
//! into FMA, and LLVM only widens loops whose lanes are independent, so the
//! levels differ only in vector width, never in a bit. See DESIGN.md §6f.

use std::sync::OnceLock;

/// A vector instruction set that kernels are compiled for, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// The baseline build: SSE2 on x86-64, the target default elsewhere.
    Portable,
    /// AVX2: 256-bit vectors.
    Avx2,
    /// AVX-512F: 512-bit vectors.
    Avx512,
}

impl SimdLevel {
    /// Every level, narrowest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512];

    /// The level's name as bench records carry it: `portable`, `avx2` or
    /// `avx512`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// The widest [`SimdLevel`] this CPU supports, detected on the first call.
/// Every dispatched kernel runs at this level; every narrower level is
/// supported too.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx512f") {
        SimdLevel::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdLevel {
    SimdLevel::Portable
}

/// Declares a kernel — a free function over slices and plain values —
/// compiled at every [`SimdLevel`] and run at [`simd_level`].
///
/// ```
/// remix_tensor::simd_kernel! {
///     /// `a += b`, element by element.
///     pub fn add_into(a: &mut [f32], b: &[f32]) {
///         for (a, &b) in a.iter_mut().zip(b) {
///             *a += b;
///         }
///     }
/// }
/// let mut a = [1.0, 2.0];
/// add_into(&mut a, &[0.5, -2.0]);
/// assert_eq!(a, [1.5, 0.0]);
/// ```
///
/// The body is written once; it becomes an `#[inline(always)]` function
/// that each variant inlines, together with the `#[inline(always)]`
/// helpers it calls, so all of it compiles at the variant's level. The
/// only `unsafe` is the call into a `target_feature` variant, made only
/// for a level the CPU reports.
///
/// A kernel whose AVX-512 variant measures slower than its AVX2 one is
/// capped in code by a leading `#[widest(Avx2)]`: it then runs at most at
/// AVX2.
///
/// In the declaring crate's unit tests, `name::at(level, args..)` runs the
/// variant of any level up to [`simd_level`], so a test can compare the
/// levels bit for bit; no other build has a way to pick a level.
#[macro_export]
macro_rules! simd_kernel {
    (
        #[widest($widest:ident)]
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $crate::simd_kernel!(@kernel $widest, $(#[$attr])* $vis fn $name($($arg: $ty),*) $(-> $ret)? $body);
    };
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $crate::simd_kernel!(@kernel Avx512, $(#[$attr])* $vis fn $name($($arg: $ty),*) $(-> $ret)? $body);
    };
    (
        @kernel $widest:ident,
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            let level = $crate::simd_level().min($crate::SimdLevel::$widest);
            $crate::simd_kernel!(@run level, ($($arg: $ty),*) $(-> $ret)? $body)
        }

        /// The kernel's variants, one per level, for tests.
        #[cfg(test)]
        $vis mod $name {
            #[allow(unused_imports)]
            use super::*;

            /// Runs the kernel's variant for `level`: the variant of
            /// `level` or of the kernel's widest level, whichever is
            /// narrower.
            ///
            /// # Panics
            ///
            /// Panics if this CPU does not support `level`.
            #[allow(clippy::too_many_arguments, dead_code)]
            pub(crate) fn at(level: $crate::SimdLevel, $($arg: $ty),*) $(-> $ret)? {
                assert!(level <= $crate::simd_level(), "this CPU does not run {level:?}");
                let level = level.min($crate::SimdLevel::$widest);
                $crate::simd_kernel!(@run level, ($($arg: $ty),*) $(-> $ret)? $body)
            }
        }
    };
    (@run $level:expr, ($($arg:ident: $ty:ty),*) $(-> $ret:ty)? $body:block) => {{
        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        fn body($($arg: $ty),*) $(-> $ret)? $body

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        fn avx512($($arg: $ty),*) $(-> $ret)? {
            body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        fn avx2($($arg: $ty),*) $(-> $ret)? {
            body($($arg),*)
        }

        match $level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the level is at most `simd_level()`, so this CPU
            // reports AVX-512F.
            $crate::SimdLevel::Avx512 => unsafe { avx512($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the level is at most `simd_level()`, so this CPU
            // reports AVX2.
            $crate::SimdLevel::Avx2 => unsafe { avx2($($arg),*) },
            _ => body($($arg),*),
        }
    }};
}

/// The cross-level kernel tests' inputs and check.
#[cfg(test)]
pub(crate) mod testing {
    use super::{simd_level, SimdLevel};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Lane counts the cross-level kernel tests run at: one sample, a
    /// pair, odd counts, and a full 16-lane group with and without a
    /// remainder.
    pub(crate) const TEST_LANES: [usize; 6] = [1, 2, 3, 8, 16, 17];

    /// `len` values from `seed` that stress a kernel's bits — ±0.0,
    /// subnormals and large magnitudes — among ordinary ones.
    pub(crate) fn edge_values(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(
                    rng.gen_range(1..0x0080_0000u32) | (rng.gen_range(0..2u32) << 31),
                ),
                3 => rng.gen_range(-1.0f32..1.0) * 1e15,
                _ => rng.gen_range(-2.0..2.0),
            })
            .collect()
    }

    /// Runs `run` at every SIMD level this CPU supports and asserts that
    /// each level's output has the portable level's bits.
    pub(crate) fn assert_levels_agree(what: &str, run: impl Fn(SimdLevel) -> Vec<f32>) {
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let portable = bits(run(SimdLevel::Portable));
        for level in SimdLevel::ALL.into_iter().filter(|&l| l <= simd_level()) {
            assert_eq!(bits(run(level)), portable, "{what} at {level:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_named() {
        assert!(SimdLevel::Portable < SimdLevel::Avx2 && SimdLevel::Avx2 < SimdLevel::Avx512);
        let names: Vec<_> = SimdLevel::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(names, ["portable", "avx2", "avx512"]);
        assert_eq!(simd_level(), simd_level());
    }
}
