//! Runtime SIMD kernel dispatch shared by the whole pipeline.
//!
//! Two hot-path stages ship both a scalar implementation and a faster
//! kernel: mdz-core's fused predict/quantize, portable lane loops compiled
//! once per instruction set, and the batched Huffman decode in
//! [`crate::huffman`], a portable wide-window table decode. Which
//! instruction set the lane loops run on is decided here, once, from
//! runtime CPU-feature detection — never from compile-time flags — so a
//! single binary is correct everywhere and fast where the hardware allows.
//! The batched decode needs no instruction set and runs unless the scalar
//! oracle is pinned.
//!
//! Two invariants govern every kernel behind this dispatcher:
//!
//! 1. **Format-invisible:** the vector path produces byte-identical output
//!    to the scalar path, including escape decisions and reconstruction
//!    values. The scalar path is the *differential oracle*, not a fallback
//!    of convenience.
//! 2. **Switchable:** setting the `MDZ_FORCE_SCALAR` environment variable
//!    (to anything but `0` or the empty string) — or calling
//!    [`set_force_scalar`] — pins every stage to the scalar oracle, so
//!    tests and fuzz campaigns can replay both paths and compare.
//!
//! The selection is cached in an atomic after first use; [`set_force_scalar`]
//! updates it for subsequent kernel invocations. Kernels read the level once
//! per call, so a concurrent toggle never changes strategy mid-buffer.

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction-set level a kernel dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar code — the differential oracle.
    Scalar,
    /// x86_64 SSE4.1 (128-bit lanes).
    Sse41,
    /// x86_64 AVX2 (256-bit lanes).
    Avx2,
    /// aarch64 NEON (128-bit lanes).
    Neon,
}

impl SimdLevel {
    /// Short lowercase name, stable for logs and benchmark JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse41 => "sse4.1",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

/// Cached dispatch state: 0 = uninitialized, 1 = forced scalar, 2 = auto.
static FORCE_STATE: AtomicU8 = AtomicU8::new(0);

const STATE_UNINIT: u8 = 0;
const STATE_FORCED: u8 = 1;
const STATE_AUTO: u8 = 2;

fn force_state() -> u8 {
    let s = FORCE_STATE.load(Ordering::Acquire);
    if s != STATE_UNINIT {
        return s;
    }
    let forced = match std::env::var("MDZ_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    };
    let s = if forced { STATE_FORCED } else { STATE_AUTO };
    // Racing initializers compute the same value; last store wins harmlessly.
    FORCE_STATE.store(s, Ordering::Release);
    s
}

/// Programmatically pins (or unpins) every kernel to the scalar oracle.
///
/// Overrides whatever `MDZ_FORCE_SCALAR` said at first use. Takes effect for
/// kernel invocations that *begin* after the call; an in-flight kernel keeps
/// the level it read at entry.
pub fn set_force_scalar(force: bool) {
    FORCE_STATE.store(if force { STATE_FORCED } else { STATE_AUTO }, Ordering::Release);
}

/// True when the scalar oracle is pinned (via env var or [`set_force_scalar`]).
pub fn force_scalar() -> bool {
    force_state() == STATE_FORCED
}

/// The best instruction-set level this host supports, ignoring any
/// force-scalar override.
pub fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse4.1") {
            return SimdLevel::Sse41;
        }
        SimdLevel::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the aarch64 baseline.
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// The level kernels should dispatch to right now: [`detected_level`] unless
/// the scalar oracle is pinned.
///
/// Kernels must call this once per invocation and branch on the captured
/// value, so a concurrent [`set_force_scalar`] cannot split one buffer
/// across strategies.
pub fn active_level() -> SimdLevel {
    if force_scalar() {
        SimdLevel::Scalar
    } else {
        detected_level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_round_trip() {
        // Capture whatever state the process started in and restore it, so
        // this test composes with differential tests in the same binary.
        let was_forced = force_scalar();
        set_force_scalar(true);
        assert_eq!(active_level(), SimdLevel::Scalar);
        set_force_scalar(false);
        assert_eq!(active_level(), detected_level());
        set_force_scalar(was_forced);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Sse41.name(), "sse4.1");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(SimdLevel::Neon.name(), "neon");
    }

    #[test]
    fn detection_is_consistent() {
        // detected_level is a pure function of the host; two calls agree.
        assert_eq!(detected_level(), detected_level());
    }
}
