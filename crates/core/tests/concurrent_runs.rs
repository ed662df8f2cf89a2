//! Two supervised runs on two threads of one process do not interfere.
//!
//! The compute mode, fault plan and ABFT sampler belong to the thread
//! that sets them, so a BF16 run with an injected silent bit flip and a
//! clean FP32 run made at the same time must each reproduce, bit for
//! bit, the same run made alone.

use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::supervisor::{run_supervised, SupervisedRun, SupervisorConfig};
use mkl_lite::{install_bit_flip_plan, BitFlipPlan, ComputeMode};
use std::sync::Barrier;

fn tiny() -> RunConfig {
    let mut cfg = RunConfig::preset(SystemPreset::Pto40Small);
    cfg.mesh_points = 10;
    cfg.n_orb = 8;
    cfg.n_occ = 4;
    cfg.total_qd_steps = 60;
    cfg.qd_steps_per_md = 20;
    cfg
}

/// What a run leaves behind: the bit patterns of every recorded
/// observable, and the escalation trail.
#[derive(Debug, PartialEq)]
struct Outcome {
    bits: Vec<u64>,
    escalations: String,
    sdc_recoveries: u64,
}

fn outcome(run: &SupervisedRun) -> Outcome {
    let mut bits = Vec::new();
    for r in &run.result.records {
        bits.extend([r.ekin, r.epot, r.etot, r.eexc, r.nexc, r.javg].map(f64::to_bits));
    }
    Outcome {
        bits,
        escalations: format!("{:?}", run.escalations),
        sdc_recoveries: run.sdc_recoveries,
    }
}

/// BF16 with sampled ABFT and one exponent flip the checksum catches
/// (GEMM call 197 of the run, found by scanning like `tests/repro.rs`).
fn flipped_bf16_run(start: &Barrier) -> Outcome {
    install_bit_flip_plan(&BitFlipPlan::new(7).with_flip(197, 61));
    let sup = SupervisorConfig { abft_check_period: Some(1), ..SupervisorConfig::default() };
    start.wait();
    let run = run_supervised::<f32>(&tiny(), ComputeMode::FloatToBf16, &sup).expect("bf16 run");
    outcome(&run)
}

fn clean_standard_run(start: &Barrier) -> Outcome {
    start.wait();
    let run = run_supervised::<f32>(&tiny(), ComputeMode::Standard, &SupervisorConfig::default())
        .expect("standard run");
    outcome(&run)
}

/// Runs `f` on a fresh thread, so it starts from default BLAS state.
fn alone(f: fn(&Barrier) -> Outcome) -> Outcome {
    std::thread::scope(|s| s.spawn(|| f(&Barrier::new(1))).join().expect("solo run"))
}

#[test]
fn concurrent_supervised_runs_match_their_solo_runs() {
    let flipped_solo = alone(flipped_bf16_run);
    let clean_solo = alone(clean_standard_run);
    assert_eq!(flipped_solo.sdc_recoveries, 1, "the flip must be caught and rolled back");
    assert_eq!(clean_solo.sdc_recoveries, 0);
    assert_ne!(flipped_solo.bits, clean_solo.bits, "BF16 and FP32 runs must differ");

    let start = Barrier::new(2);
    let (flipped, clean) = std::thread::scope(|s| {
        let flipped = s.spawn(|| flipped_bf16_run(&start));
        let clean = s.spawn(|| clean_standard_run(&start));
        (flipped.join().expect("bf16 run"), clean.join().expect("standard run"))
    });
    assert_eq!(flipped, flipped_solo, "the BF16 run changed when run beside the FP32 run");
    assert_eq!(clean, clean_solo, "the FP32 run changed when run beside the BF16 run");
}
