//! Child process of the end-to-end DCMESH benchmark.
//!
//! `perfbench/run.py` spawns one of these per measured run, so every run
//! starts from a fresh process whose BLAS compute mode and telemetry
//! level are set here, at the entry point, and nowhere else. Two
//! commands:
//!
//! * `entry` — the untraced run: times one call of the public entry
//!   point (`dcmesh::runner::run_simulation_with_policy`, or
//!   `dcmesh::supervisor::run_supervised` with `--supervised`), then the
//!   deck-to-ground-state set-up on its own through the public qxmd/lfd
//!   calls.
//! * `trace` — the traced run: a benchmark-side stepper that issues
//!   `run_burst`'s public call sequence itself and times every call into
//!   a layer. BLAS calls are attributed to the nine `lfd::CallSite`s by
//!   their order inside each lfd call, from the `mkl_lite::verbose`
//!   records; the `xe_gpu` device model is installed only here.
//!
//! Both print one JSON object on stdout; both carry an FNV-1a digest of
//! every observable's bits, which the orchestrator compares (the stepper
//! fidelity gate).

mod json;
mod stepper;

use dcmesh::config::RunConfig;
use dcmesh::supervisor::{
    burst_verification_counter, rollback_counter, run_supervised, SupervisorConfig,
};
use dcmesh::RunError;
use dcmesh_lfd::{LfdState, PrecisionPolicy, StepObservables};
use dcmesh_qxmd::{initial_scf, pto_supercell};
use dcmesh_telemetry::TelemetryLevel;
use json::Obj;
use mkl_lite::ComputeMode;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Sampled ABFT period of the supervised workload: every 16th GEMM.
const ABFT_PERIOD: u64 = 16;
/// `verify_bursts` period of the supervised workload: bursts 0, 3, 6, …
/// are replayed from their snapshot and bit-compared.
const VERIFY_EVERY: u64 = 3;

/// Parsed command line. Everything the run depends on besides the deck
/// text comes in here.
pub struct Args {
    command: String,
    deck: PathBuf,
    pub mode: ComputeMode,
    telemetry: TelemetryLevel,
    pub supervised: bool,
    pub ckdir: Option<PathBuf>,
    trajectory: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it
        .next()
        .ok_or("usage: dcmesh-perfbench entry|trace --deck F ...")?;
    if command != "entry" && command != "trace" {
        return Err(format!("unknown command {command:?}"));
    }
    let mut args = Args {
        command,
        deck: PathBuf::new(),
        mode: ComputeMode::Standard,
        telemetry: TelemetryLevel::Off,
        supervised: false,
        ckdir: None,
        trajectory: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--deck" => args.deck = PathBuf::from(value()?),
            "--mode" => {
                args.mode = ComputeMode::from_env_value(&value()?).map_err(|e| e.to_string())?;
            }
            "--telemetry" => {
                let v = value()?;
                args.telemetry = TelemetryLevel::from_env_value(&v)
                    .ok_or(format!("bad telemetry level {v:?}"))?;
            }
            "--ckdir" => args.ckdir = Some(PathBuf::from(value()?)),
            "--supervised" => args.supervised = true,
            "--trajectory" => args.trajectory = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.deck.as_os_str().is_empty() {
        return Err("--deck is required".into());
    }
    if args.supervised && args.ckdir.is_none() {
        return Err("--supervised needs --ckdir".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcmesh-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The process-global configuration, set once at the entry point.
    mkl_lite::set_compute_mode(args.mode);
    dcmesh_telemetry::set_level(args.telemetry);

    let text = match std::fs::read_to_string(&args.deck) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dcmesh-perfbench: reading {}: {e}", args.deck.display());
            return ExitCode::from(2);
        }
    };
    let cfg = match RunConfig::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dcmesh-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.command == "entry" {
        run_entry(&args, &cfg)
    } else {
        stepper::run_traced(&args, &cfg)
    };
    match out {
        Ok(obj) => {
            println!("{}", obj.finish());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dcmesh-perfbench: run failed: {e}");
            ExitCode::from(3)
        }
    }
}

/// The supervisor settings of the supervised workload: checkpoints at
/// every boundary, sampled ABFT and periodic burst replay, default
/// escalation ladder and health bounds.
pub fn supervisor_config(args: &Args) -> SupervisorConfig {
    SupervisorConfig {
        checkpoint_dir: args.ckdir.clone(),
        abft_check_period: Some(ABFT_PERIOD),
        verify_bursts: Some(VERIFY_EVERY),
        ..SupervisorConfig::default()
    }
}

/// Ground state from the deck — `pto_supercell` → `LfdState::initialize`
/// → `initial_scf`, exactly as the entry points build it. Returns the
/// state and the seconds spent in `initial_scf`.
pub fn ground_state(
    cfg: &RunConfig,
    params: &dcmesh_lfd::LfdParams,
) -> Result<(dcmesh_qxmd::AtomicSystem, LfdState<f32>, f64), String> {
    let system = pto_supercell(cfg.supercell);
    let vloc: Vec<f32> = system.local_potential(&params.mesh, cfg.vloc_depth);
    let mut state = LfdState::<f32>::initialize(params, vloc);
    let t = Instant::now();
    initial_scf(params, &mut state, 3, 1e-10).map_err(|e| format!("initial SCF: {e}"))?;
    Ok((system, state, t.elapsed().as_secs_f64()))
}

fn run_entry(args: &Args, cfg: &RunConfig) -> Result<Obj, String> {
    let rollbacks0 = rollback_counter().get();
    let replays0 = burst_verification_counter().get();
    let t = Instant::now();
    let (records, escalations) = if args.supervised {
        let run = run_supervised::<f32>(cfg, args.mode, &supervisor_config(args))
            .map_err(|e: RunError| e.to_string())?;
        (run.result.records, run.escalations.len())
    } else {
        let run = dcmesh::runner::run_simulation_with_policy::<f32>(cfg, &PrecisionPolicy::Ambient)
            .map_err(|e: RunError| e.to_string())?;
        (run.records, 0)
    };
    let entry_s = t.elapsed().as_secs_f64();
    check_finite(&records)?;
    let (events, dropped) = telemetry_counts();

    // Set-up on its own, after the entry point so that the timed run is
    // cold, as a user's run is.
    let t = Instant::now();
    ground_state(cfg, &cfg.lfd_params())?;
    let setup_s = t.elapsed().as_secs_f64();

    let mut o = Obj::new();
    o.num("setup_s", setup_s)
        .num("entry_s", entry_s)
        .num("peak_rss_mb", peak_rss_mb())
        .str("digest", &digest(&records))
        .int(
            "bursts",
            if args.supervised {
                cfg.md_steps() as u64
            } else {
                0
            },
        )
        .int(
            "rerun_bursts",
            rollback_counter().get() - rollbacks0 + burst_verification_counter().get() - replays0,
        )
        .int("escalations", escalations as u64)
        .int("telemetry_events", events)
        .int("telemetry_dropped", dropped);
    if args.trajectory {
        o.arr("nexc", records.iter().map(|r| r.nexc))
            .arr("ekin", records.iter().map(|r| r.ekin))
            .arr("javg", records.iter().map(|r| r.javg));
    }
    Ok(o)
}

/// Events the telemetry sink holds plus those it dropped, and the
/// dropped count alone.
pub fn telemetry_counts() -> (u64, u64) {
    let dropped = dcmesh_telemetry::sink::dropped_events();
    (
        dcmesh_telemetry::sink::drain().len() as u64 + dropped,
        dropped,
    )
}

/// Fails on any non-finite observable.
pub fn check_finite(records: &[StepObservables]) -> Result<(), String> {
    for r in records {
        let fields = [
            r.time_fs, r.ekin, r.epot, r.etot, r.eexc, r.nexc, r.aext, r.javg,
        ];
        if fields.iter().any(|v| !v.is_finite()) {
            return Err(format!("non-finite observable at step {}", r.step));
        }
    }
    Ok(())
}

/// FNV-1a/64 over the bits of every field of every record, in order.
pub fn digest(records: &[StepObservables]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        let words = [
            r.step,
            r.time_fs.to_bits(),
            r.ekin.to_bits(),
            r.epot.to_bits(),
            r.etot.to_bits(),
            r.eexc.to_bits(),
            r.nexc.to_bits(),
            r.aext.to_bits(),
            r.javg.to_bits(),
        ];
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

/// The process's peak resident set (`VmHWM`) in MB, 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(step: u64, nexc: f64) -> StepObservables {
        StepObservables {
            step,
            time_fs: 0.0,
            ekin: 1.0,
            epot: 0.0,
            etot: 1.0,
            eexc: 0.0,
            nexc,
            aext: 0.0,
            javg: 0.0,
        }
    }

    #[test]
    fn digest_sees_a_single_bit() {
        let a = [obs(1, 0.5), obs(2, 0.25)];
        let mut b = a;
        b[1].nexc = f64::from_bits(b[1].nexc.to_bits() ^ 1);
        assert_eq!(digest(&a), digest(&a));
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn non_finite_observable_is_an_error() {
        assert!(check_finite(&[obs(1, 0.5)]).is_ok());
        assert!(check_finite(&[obs(1, f64::NAN)]).is_err());
    }
}
