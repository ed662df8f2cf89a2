//! Library configuration and per-thread run state.
//!
//! oneMKL's controls are environment variables affecting the library as a
//! whole, which limited the paper to one compute mode per process. Here
//! every piece of per-run BLAS state — the compute mode, the installed
//! fault plan and ABFT sampler with their counters, the call-record ring
//! and the device model — lives in one [`BlasState`] value per thread.
//! A thread's compute mode is initialised from `MKL_BLAS_COMPUTE_MODE` on
//! its first BLAS call and can be overridden at runtime (oneMKL's
//! dedicated APIs); [`with_compute_mode`] provides scoped overrides for
//! experiments that sweep all modes in one process. Two runs on two
//! threads cannot see each other's settings. Only deployment settings
//! read from the environment (`MKL_VERBOSE`, the record-ring capacity)
//! are process-wide.

use crate::abft::{AbftInstalled, AbftViolation};
use crate::device::DeviceTimeModel;
use crate::fault::FaultInstalled;
use crate::mode::{ComputeMode, ParseModeError};
use crate::verbose::CallRecord;
use crate::{COMPUTE_MODE_ENV, VERBOSE_ENV};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

static VERBOSE: OnceLock<u8> = OnceLock::new();

/// Everything one thread's BLAS calls read or update.
#[derive(Default)]
pub(crate) struct BlasState {
    /// `None` until read from the environment.
    mode: Option<ComputeMode>,
    /// GEMM calls made on this thread; never reset.
    pub(crate) gemm_calls: u64,
    pub(crate) fault: Option<FaultInstalled>,
    pub(crate) injected_faults: u64,
    pub(crate) abft: Option<AbftInstalled>,
    pub(crate) abft_checks: u64,
    pub(crate) abft_violations: u64,
    pub(crate) abft_pending: Option<AbftViolation>,
    pub(crate) recording: bool,
    pub(crate) records: VecDeque<CallRecord>,
    pub(crate) dropped_records: u64,
    pub(crate) device_model: Option<Arc<dyn DeviceTimeModel>>,
}

impl BlasState {
    fn try_mode(&mut self) -> Result<ComputeMode, ParseModeError> {
        if let Some(mode) = self.mode {
            return Ok(mode);
        }
        let mode = match std::env::var(COMPUTE_MODE_ENV) {
            Ok(s) => ComputeMode::from_env_value(&s)?,
            Err(_) => ComputeMode::Standard,
        };
        self.mode = Some(mode);
        Ok(mode)
    }

    /// The thread's compute mode (see [`compute_mode`]).
    pub(crate) fn mode(&mut self) -> ComputeMode {
        self.try_mode().unwrap_or_else(|e| panic!("invalid {COMPUTE_MODE_ENV}: {e}"))
    }
}

thread_local! {
    static STATE: RefCell<BlasState> = RefCell::new(BlasState::default());
}

/// Runs `f` on the calling thread's state. `f` must not call back into
/// a function that borrows the state again.
pub(crate) fn with_state<R>(f: impl FnOnce(&mut BlasState) -> R) -> R {
    STATE.with_borrow_mut(f)
}

/// Returns the calling thread's compute mode, initialising it from
/// `MKL_BLAS_COMPUTE_MODE` on first use.
///
/// An unparsable environment value panics: silently computing at the wrong
/// precision is the worst possible failure mode for a precision study.
/// Runners that want to surface the problem as a structured error instead
/// (so a supervisor can report it without killing the process) should call
/// [`try_compute_mode`] up front.
pub fn compute_mode() -> ComputeMode {
    with_state(BlasState::mode)
}

/// Fallible variant of [`compute_mode`]: returns the parse error (which
/// lists the valid values) instead of panicking when the environment holds
/// an unrecognised `MKL_BLAS_COMPUTE_MODE`. The mode is **not** cached on
/// failure, so a corrected environment or an explicit
/// [`set_compute_mode`] recovers.
pub fn try_compute_mode() -> Result<ComputeMode, ParseModeError> {
    with_state(BlasState::try_mode)
}

/// Sets the calling thread's compute mode (overrides the environment).
pub fn set_compute_mode(mode: ComputeMode) {
    with_state(|s| s.mode = Some(mode));
}

/// Runs `f` with the calling thread's compute mode temporarily set to
/// `mode`, restoring the previous mode afterwards (also on panic).
/// Overrides may nest; other threads never see them.
pub fn with_compute_mode<R>(mode: ComputeMode, f: impl FnOnce() -> R) -> R {
    let previous = compute_mode();
    set_compute_mode(mode);
    struct Restore(ComputeMode);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_compute_mode(self.0);
        }
    }
    let _restore = Restore(previous);
    f()
}

/// The `MKL_VERBOSE` level: 0 = off, 1 = log calls, 2 = log calls with
/// timing detail (the paper uses `MKL_VERBOSE=2`).
pub fn verbose_level() -> u8 {
    *VERBOSE.get_or_init(|| {
        std::env::var(VERBOSE_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<u8>().ok())
            .unwrap_or(0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_roundtrip() {
        for m in ComputeMode::ALL {
            set_compute_mode(m);
            assert_eq!(compute_mode(), m);
        }
    }

    #[test]
    fn try_compute_mode_reports_the_set_mode() {
        set_compute_mode(ComputeMode::FloatToBf16x2);
        assert_eq!(try_compute_mode(), Ok(ComputeMode::FloatToBf16x2));
    }

    #[test]
    fn scoped_override_restores() {
        set_compute_mode(ComputeMode::Standard);
        let inside = with_compute_mode(ComputeMode::FloatToTf32, compute_mode);
        assert_eq!(inside, ComputeMode::FloatToTf32);
        assert_eq!(compute_mode(), ComputeMode::Standard);
    }

    #[test]
    fn scoped_override_restores_on_panic() {
        set_compute_mode(ComputeMode::Standard);
        let r = std::panic::catch_unwind(|| {
            with_compute_mode(ComputeMode::FloatToBf16, || panic!("boom"))
        });
        assert!(r.is_err());
        assert_eq!(compute_mode(), ComputeMode::Standard);
    }

    #[test]
    fn nested_scoped_overrides() {
        set_compute_mode(ComputeMode::Standard);
        with_compute_mode(ComputeMode::FloatToBf16, || {
            assert_eq!(compute_mode(), ComputeMode::FloatToBf16);
            with_compute_mode(ComputeMode::Complex3m, || {
                assert_eq!(compute_mode(), ComputeMode::Complex3m);
            });
            assert_eq!(compute_mode(), ComputeMode::FloatToBf16);
        });
        assert_eq!(compute_mode(), ComputeMode::Standard);
    }

    #[test]
    fn run_state_is_scoped_to_the_calling_thread() {
        use crate::device::{install_device_model, modelled_gemm_time, Domain, GemmDesc};
        use crate::fault::{gemm_call_count, injected_fault_count};
        use crate::{abft, install_abft, install_fault_plan, sgemm, verbose};
        use crate::{FaultKind, FaultPlan, FaultSite, Op};
        use std::sync::Barrier;

        struct FlatModel;
        impl DeviceTimeModel for FlatModel {
            fn gemm_time(&self, _: &GemmDesc) -> f64 {
                1.0
            }
        }
        // Two GEMMs per thread, with entries exact in every mode.
        fn two_gemms() -> Vec<f32> {
            let a = [1.0f32, 2.0, 3.0, 4.0];
            let mut c = [0.0f32; 4];
            for _ in 0..2 {
                sgemm(Op::None, Op::None, 2, 2, 2, 1.0, &a, 2, &a, 2, 0.0, &mut c, 2);
            }
            c.to_vec()
        }
        let desc =
            GemmDesc { domain: Domain::Real32, m: 2, n: 2, k: 2, mode: ComputeMode::Standard };
        // A installs its state before B starts and keeps it until B has
        // made its calls and read its state; both assert only after that,
        // so a failure cannot leave the other thread waiting.
        let installed = Barrier::new(2);
        let b_done = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                with_compute_mode(ComputeMode::FloatToBf16, || {
                    install_fault_plan(
                        FaultPlan::new(1).with_site(FaultSite::every(1, FaultKind::Nan)),
                    );
                    install_abft(1);
                    verbose::set_recording(true);
                    install_device_model(Arc::new(FlatModel));
                    installed.wait();
                    let c = two_gemms();
                    b_done.wait();
                    assert!(c.iter().any(|x| x.is_nan()), "A's fault plan did not fire");
                    assert_eq!(gemm_call_count(), 2);
                    assert_eq!(injected_fault_count(), 2);
                    assert_eq!(abft::abft_check_count(), 2);
                    assert_eq!(abft::abft_violation_count(), 2);
                    assert!(abft::take_abft_violation().is_some());
                    let records = verbose::drain();
                    assert_eq!(records.len(), 2, "A records exactly its own calls");
                    for r in &records {
                        assert_eq!(r.mode, ComputeMode::FloatToBf16);
                        assert_eq!(r.device_seconds, Some(1.0));
                    }
                });
            });
            scope.spawn(|| {
                installed.wait();
                let seen = (
                    compute_mode(),
                    two_gemms(),
                    (gemm_call_count(), injected_fault_count(), abft::abft_check_count()),
                    abft::take_abft_violation().is_none(),
                    (verbose::recording(), verbose::drain().len()),
                    modelled_gemm_time(&desc),
                );
                b_done.wait();
                let expected = (
                    ComputeMode::Standard,
                    vec![7.0, 10.0, 15.0, 22.0],
                    (2, 0, 0),
                    true,
                    (false, 0),
                    None,
                );
                assert_eq!(seen, expected, "B must see none of A's run state");
            });
        });
    }
}
