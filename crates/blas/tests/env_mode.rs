//! End-to-end test of the paper's headline workflow: the compute mode is
//! picked up from `MKL_BLAS_COMPUTE_MODE` with **no code changes** at the
//! call sites.
//!
//! This lives in its own integration-test binary so the environment
//! variable is set before any thread makes its first BLAS call — exactly
//! how the artifact's `export MKL_BLAS_COMPUTE_MODE=...` workflow behaves
//! for a fresh process.

use dcmesh_numerics::{c32, C32};
use mkl_lite::{cgemm, ComputeMode, Op};

#[test]
fn mode_read_from_environment_on_first_use() {
    // SAFETY: set before any other thread can call into mkl-lite (this is
    // the first and only test in this binary, and the lazy init has not
    // run yet).
    unsafe { std::env::set_var(mkl_lite::COMPUTE_MODE_ENV, "FLOAT_TO_TF32") };

    assert_eq!(mkl_lite::compute_mode(), ComputeMode::FloatToTf32);

    // A value that TF32 rounds but FP32 keeps: 1 + 2^-12.
    let x = 1.0 + 2f32.powi(-12);
    let a = [c32(x, 0.0)];
    let b = [c32(1.0, 0.0)];
    let mut c = [C32::zero()];
    cgemm(Op::None, Op::None, 1, 1, 1, C32::one(), &a, 1, &b, 1, C32::zero(), &mut c, 1);
    assert_eq!(c[0].re, 1.0, "TF32 mode from the environment must round the input");

    // Runtime override still wins afterwards (the library API the paper's
    // env-var method wraps).
    mkl_lite::set_compute_mode(ComputeMode::Standard);
    cgemm(Op::None, Op::None, 1, 1, 1, C32::one(), &a, 1, &b, 1, C32::zero(), &mut c, 1);
    assert_eq!(c[0].re, x, "standard mode must keep full FP32 input precision");
}
