//! The traced stepper: `run_burst`'s public call sequence, timed call by
//! call from outside the program.
//!
//! Every QD step issues the same public lfd calls, in the same order, as
//! `dcmesh_lfd::propagator::qd_step_with_policy`; every burst boundary
//! the same qxmd calls as `dcmesh::runner::run_burst`. For the
//! supervised workload it adds what `run_supervised` adds around a
//! burst: the pre-burst snapshot, health and ABFT polling, the sampled
//! `verify_bursts` replay and `Checkpoint::save`. The orchestrator
//! compares this stepper's observable digest with the entry point's, so
//! any drift between the two loops fails the run instead of skewing the
//! attribution.

use crate::json::Obj;
use crate::{check_finite, ABFT_PERIOD, VERIFY_EVERY};
use crate::{digest, ground_state, supervisor_config, Args};
use dcmesh::config::RunConfig;
use dcmesh::{Checkpoint, HealthMonitor};
use dcmesh_lfd::energy::calc_energy_with_policy;
use dcmesh_lfd::field::advance_induced_field;
use dcmesh_lfd::laser::AU_PER_FS;
use dcmesh_lfd::nonlocal::{nlp_prop_with_scratch, NlpScratch};
use dcmesh_lfd::observables::current_density;
use dcmesh_lfd::policy::{CallSite, N_CALL_SITES};
use dcmesh_lfd::propagator::{shadow_update_with_policy, taylor_propagate, QdScratch};
use dcmesh_lfd::remap::remap_occ_with_policy;
use dcmesh_lfd::{LfdParams, LfdState, PrecisionPolicy, StepObservables};
use dcmesh_numerics::{Complex, C32};
use dcmesh_qxmd::shadow::{shadow_drift, sync_with_shadow, TransferLedger};
use dcmesh_qxmd::{scf_refresh, AtomicSystem, MdIntegrator};
use mkl_lite::{ComputeMode, Op};
use std::time::Instant;

/// The lfd layers of one QD step, in call order.
const LFD_LAYERS: [&str; 6] = [
    "propagate",
    "nonlocal",
    "energy",
    "remap",
    "shadow",
    "field",
];

/// One site's GEMM shape as the verbose record reports it.
#[derive(Clone, Copy)]
struct Shape {
    transa: char,
    transb: char,
    m: usize,
    n: usize,
    k: usize,
}

/// Accumulated time and counts, per layer.
#[derive(Default)]
struct Ledger {
    /// Inclusive wall seconds of each lfd call, indexed like `LFD_LAYERS`.
    lfd_total: [f64; 6],
    /// BLAS record wall seconds inside each lfd call.
    lfd_blas: [f64; 6],
    site_calls: [u64; N_CALL_SITES],
    site_wall: [f64; N_CALL_SITES],
    site_device: [f64; N_CALL_SITES],
    site_flops: [f64; N_CALL_SITES],
    site_shape: [Option<Shape>; N_CALL_SITES],
    scf_refresh_s: f64,
    scf_refresh_calls: u64,
    md_step_s: f64,
    md_step_calls: u64,
    checkpoint_s: f64,
    checkpoint_calls: u64,
    checkpoint_bytes: u64,
    step_ms: Vec<f64>,
}

impl Ledger {
    /// Times `f` as a call into lfd layer `layer` whose BLAS calls are
    /// the `expect` sites starting at `first`, in order.
    fn lfd_call<R>(
        &mut self,
        layer: usize,
        first: usize,
        expect: usize,
        f: impl FnOnce() -> R,
    ) -> Result<R, String> {
        let t = Instant::now();
        let out = f();
        self.lfd_total[layer] += t.elapsed().as_secs_f64();
        let records = mkl_lite::verbose::drain();
        if records.len() != expect {
            return Err(format!(
                "lfd.{} issued {} BLAS calls, the stepper attributes {expect}",
                LFD_LAYERS[layer],
                records.len()
            ));
        }
        for (i, r) in records.iter().enumerate() {
            let site = first + i;
            let wall = r.wall.as_secs_f64();
            self.lfd_blas[layer] += wall;
            self.site_calls[site] += 1;
            self.site_wall[site] += wall;
            self.site_device[site] += r.device_seconds.unwrap_or(0.0);
            // A complex multiply-add is 8 real flops.
            self.site_flops[site] += 8.0 * (r.m * r.n * r.k) as f64;
            self.site_shape[site] = Some(Shape {
                transa: r.transa,
                transb: r.transb,
                m: r.m,
                n: r.n,
                k: r.k,
            });
        }
        Ok(out)
    }

    fn attributed_s(&self) -> f64 {
        self.lfd_total.iter().sum::<f64>() + self.scf_refresh_s + self.md_step_s + self.checkpoint_s
    }
}

/// Buffers the stepper owns in place of the private `QdScratch` fields.
struct Scratch {
    qd: QdScratch<f32>,
    nlp: NlpScratch<f32>,
    h_out: Vec<C32>,
}

/// The run state a burst advances.
struct Run {
    system: AtomicSystem,
    state: LfdState<f32>,
    md: MdIntegrator,
    steps_done: usize,
    last_nexc: f64,
}

fn excitation_fraction(last_nexc: f64, params: &LfdParams) -> f64 {
    (last_nexc / params.n_electrons()).clamp(0.0, 1.0)
}

/// One QD step, as `qd_step_with_policy` makes it.
fn qd_step(
    led: &mut Ledger,
    params: &LfdParams,
    state: &mut LfdState<f32>,
    s: &mut Scratch,
    policy: &PrecisionPolicy,
) -> Result<StepObservables, String> {
    let t_step = Instant::now();
    let t_mid = state.time + 0.5 * params.dt;
    let a_mid = state.a_total(params, t_mid);
    let n_remap = if params.n_orb > params.n_occ { 2 } else { 0 };

    led.lfd_call(0, 0, 0, || {
        taylor_propagate(params, state, a_mid, &mut s.qd)
    })?;
    led.lfd_call(1, CallSite::NlpProject as usize, 3, || {
        nlp_prop_with_scratch(params, state, policy, &mut s.nlp)
    })?;
    let e = led.lfd_call(2, CallSite::EnergyKinetic as usize, 3, || {
        calc_energy_with_policy(params, state, &s.nlp.projection, &mut s.h_out, policy)
    })?;
    let nexc = led.lfd_call(3, CallSite::RemapProjection as usize, n_remap, || {
        remap_occ_with_policy(params, state, policy)
    })?;
    led.lfd_call(4, CallSite::ShadowUpdate as usize, 1, || {
        shadow_update_with_policy(params, state, &s.nlp.projection, policy)
    })?;
    let t_next = state.time + params.dt;
    let a_now = state.a_total(params, t_next);
    let javg = led.lfd_call(5, 0, 0, || {
        let javg = current_density(params, state, a_now);
        advance_induced_field(params, state, javg);
        javg
    })?;
    state.time = t_next;
    state.step += 1;
    led.step_ms.push(t_step.elapsed().as_secs_f64() * 1e3);
    Ok(StepObservables {
        step: state.step,
        time_fs: state.time / AU_PER_FS,
        ekin: e.ekin,
        epot: e.epot,
        etot: e.etot,
        eexc: e.eexc,
        nexc,
        aext: params.laser.vector_potential(state.time),
        javg,
    })
}

/// One MD burst and its boundary work, as `run_burst` makes it.
#[allow(clippy::too_many_arguments)]
fn burst(
    led: &mut Ledger,
    cfg: &RunConfig,
    params: &LfdParams,
    run: &mut Run,
    s: &mut Scratch,
    transfers: &mut TransferLedger,
    records: &mut Vec<StepObservables>,
    mut monitor: Option<&mut HealthMonitor>,
) -> Result<(), String> {
    let policy = PrecisionPolicy::Ambient;
    let n = cfg.qd_steps_per_md.min(cfg.total_qd_steps - run.steps_done);
    for i in 0..n {
        let obs = qd_step(led, params, &mut run.state, s, &policy)?;
        if let Some(mon) = monitor.as_deref_mut() {
            if let Some(v) = mkl_lite::take_abft_violation() {
                return Err(format!("ABFT violation at step {}: {v}", obs.step));
            }
            mon.check_step(&obs)
                .map_err(|v| format!("health violation: {v}"))?;
        }
        run.last_nexc = obs.nexc;
        if (run.steps_done + i).is_multiple_of(cfg.record_every) {
            records.push(obs);
        }
    }
    run.steps_done += n;

    let drift = shadow_drift(&run.state, params.n_orb);
    sync_with_shadow(transfers, params.mesh.len(), params.n_orb, run.system.len());
    let t = Instant::now();
    let report = scf_refresh(params, &mut run.state).map_err(|e| format!("SCF refresh: {e}"))?;
    led.scf_refresh_s += t.elapsed().as_secs_f64();
    led.scf_refresh_calls += 1;
    // The refresh's FP64 GEMMs belong to qxmd, not to the nine sites.
    mkl_lite::verbose::clear();
    if let Some(mon) = monitor {
        if let Some(v) = mkl_lite::take_abft_violation() {
            return Err(format!("ABFT violation at the boundary: {v}"));
        }
        mon.check_boundary(report.defect_before, drift)
            .map_err(|v| format!("health violation: {v}"))?;
    }
    let t = Instant::now();
    run.md
        .step(&mut run.system, excitation_fraction(run.last_nexc, params));
    let _ = run.md.temperature(&run.system);
    run.state.vloc = run.system.local_potential(&params.mesh, cfg.vloc_depth);
    led.md_step_s += t.elapsed().as_secs_f64();
    led.md_step_calls += 1;
    Ok(())
}

/// True when the replayed burst left bit-identical electronic and ionic
/// state, as the supervisor's `verify_bursts` check demands.
fn same_bits(a: &Run, b: &Run) -> bool {
    let psi = a
        .state
        .psi
        .iter()
        .zip(&b.state.psi)
        .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits());
    let ions = |p: &[f64], q: &[f64]| p.iter().zip(q).all(|(x, y)| x.to_bits() == y.to_bits());
    psi && ions(&a.system.positions, &b.system.positions)
        && ions(&a.system.velocities, &b.system.velocities)
}

/// The traced run of `cfg`: set-up by parts, then every burst through
/// the stepper, then the per-site GEMM table. Returns the raw totals;
/// the orchestrator turns them into per-step metrics.
pub fn run_traced(args: &Args, cfg: &RunConfig) -> Result<Obj, String> {
    let params = cfg.lfd_params();
    let _model = xe_gpu::install_default_model();
    mkl_lite::verbose::set_recording(true);
    let sup = supervisor_config(args);
    if args.supervised {
        // `run_supervised` installs ABFT before it builds the ground state.
        mkl_lite::install_abft(ABFT_PERIOD);
        if let Some(dir) = &sup.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
    }
    let pool0 = mkl_lite::workspace::combined_stats();
    let abft0 = mkl_lite::abft_check_count();

    let t_total = Instant::now();
    let (system, state, initial_scf_s) = ground_state(cfg, &params)?;
    mkl_lite::verbose::clear();

    let md_dt = cfg.qd_steps_per_md as f64 * cfg.dt;
    let mut run = Run {
        md: MdIntegrator::resume(&system, md_dt, cfg.ehrenfest_softening, 0.0),
        system,
        state,
        steps_done: 0,
        last_nexc: 0.0,
    };
    let mut s = Scratch {
        qd: QdScratch::new(&params),
        nlp: NlpScratch::default(),
        h_out: Vec::new(),
    };
    let mut led = Ledger::default();
    let mut transfers = TransferLedger::default();
    let mut records = Vec::with_capacity(cfg.total_qd_steps);
    let mut monitor = HealthMonitor::new(sup.health.clone(), params.n_electrons());
    let (mut bursts, mut reruns) = (0u64, 0u64);

    let t_run = Instant::now();
    while run.steps_done < cfg.total_qd_steps {
        if !args.supervised {
            burst(
                &mut led,
                cfg,
                &params,
                &mut run,
                &mut s,
                &mut transfers,
                &mut records,
                None,
            )?;
            continue;
        }
        let burst_index = (run.steps_done / cfg.qd_steps_per_md) as u64;
        let snap = (
            run.system.clone(),
            run.state.clone(),
            run.steps_done,
            run.last_nexc,
        );
        burst(
            &mut led,
            cfg,
            &params,
            &mut run,
            &mut s,
            &mut transfers,
            &mut records,
            Some(&mut monitor),
        )?;
        bursts += 1;
        if burst_index.is_multiple_of(VERIFY_EVERY) {
            // The replay rebuilds its integrator from the snapshot, as
            // the supervisor's does.
            let (system, state, steps_done, last_nexc) = snap;
            let fraction = excitation_fraction(last_nexc, &params);
            let mut replay = Run {
                md: MdIntegrator::resume(&system, md_dt, cfg.ehrenfest_softening, fraction),
                system,
                state,
                steps_done,
                last_nexc,
            };
            let mut scratch_records = Vec::new();
            burst(
                &mut led,
                cfg,
                &params,
                &mut replay,
                &mut s,
                &mut transfers,
                &mut scratch_records,
                None,
            )?;
            reruns += 1;
            if let Some(v) = mkl_lite::take_abft_violation() {
                return Err(format!("burst replay tripped the GEMM checksum: {v}"));
            }
            if !same_bits(&run, &replay) {
                return Err(format!(
                    "burst {burst_index} replay differs from the primary run"
                ));
            }
        }
        let dir = sup
            .checkpoint_dir
            .as_ref()
            .expect("supervised runs carry a checkpoint dir");
        let path = dir.join(format!("dcmesh-{}.ck", run.steps_done));
        let t = Instant::now();
        let ck = Checkpoint {
            state: run.state.clone(),
            system: run.system.clone(),
            steps_done: run.steps_done as u64,
            nexc: run.last_nexc,
        };
        ck.save(&path)
            .map_err(|e| format!("checkpoint save: {e}"))?;
        led.checkpoint_s += t.elapsed().as_secs_f64();
        led.checkpoint_calls += 1;
        led.checkpoint_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    }
    let run_s = t_run.elapsed().as_secs_f64();
    let total_s = t_total.elapsed().as_secs_f64();
    check_finite(&records)?;
    mkl_lite::verbose::set_recording(false);
    mkl_lite::clear_abft();
    let pool1 = mkl_lite::workspace::combined_stats();
    let abft_checks = mkl_lite::abft_check_count() - abft0;
    let takes = pool1.takes - pool0.takes;
    let misses = pool1.misses - pool0.misses;

    let ngrid = params.mesh.len();
    let order = params.taylor_order;
    let psi_bytes = (ngrid * params.n_orb * std::mem::size_of::<C32>()) as f64;

    let mut o = Obj::new();
    o.num("initial_scf_s", initial_scf_s)
        .num("run_s", run_s)
        .num("total_s", total_s)
        .num("attributed_s", led.attributed_s())
        .str("digest", &digest(&records))
        .num("psi_bytes", psi_bytes)
        // Taylor order n: copy Ψ into term and acc (4 Ψ-sized streams),
        // then per order H·term (2), the term update (2) and acc += term
        // (3), then acc back into Ψ (2).
        .num(
            "propagate_bytes_per_step",
            psi_bytes * (4 + 7 * order + 2) as f64,
        )
        .num(
            "propagate_updates_per_step",
            (ngrid * params.n_orb * order) as f64,
        )
        .arr("step_ms", led.step_ms.iter().copied());
    let mut lfd = Obj::new();
    for (i, name) in LFD_LAYERS.iter().enumerate() {
        lfd.num(
            &format!("{name}.self_s"),
            led.lfd_total[i] - led.lfd_blas[i],
        );
    }
    o.obj("lfd", lfd);
    let mut sites = Obj::new();
    for site in CallSite::ALL {
        let i = site as usize;
        let mut so = Obj::new();
        so.int("calls", led.site_calls[i])
            .num("wall_s", led.site_wall[i])
            .num("device_s", led.site_device[i])
            .num("flops", led.site_flops[i]);
        if let Some(sh) = led.site_shape[i] {
            let (std_s, x3_s) = split_cost(sh);
            so.str("op", &format!("{}{}", sh.transa, sh.transb))
                .int("m", sh.m as u64)
                .int("n", sh.n as u64)
                .int("k", sh.k as u64)
                .num("standard_s_per_call", std_s)
                .num("bf16x3_s_per_call", x3_s);
        }
        sites.obj(site.name(), so);
    }
    mkl_lite::set_compute_mode(args.mode);
    o.obj("sites", sites)
        .num(
            "pool_hit_ratio",
            if takes == 0 {
                1.0
            } else {
                (takes - misses) as f64 / takes as f64
            },
        )
        .int("abft_checks", abft_checks)
        .num("scf_refresh_s", led.scf_refresh_s)
        .int("scf_refresh_calls", led.scf_refresh_calls)
        .num("md_step_s", led.md_step_s)
        .int("md_step_calls", led.md_step_calls)
        .num("checkpoint_s", led.checkpoint_s)
        .int("checkpoint_calls", led.checkpoint_calls)
        .int("checkpoint_bytes", led.checkpoint_bytes)
        .int("bursts", bursts)
        .int("rerun_bursts", reruns);
    Ok(o)
}

/// Host seconds per call of one site's GEMM shape in STANDARD and in
/// FLOAT_TO_BF16X3, on dense deterministic operands: the median of at
/// least three calls and of 50 ms worth of calls per mode.
fn split_cost(sh: Shape) -> (f64, f64) {
    let op = |c: char| if c == 'N' { Op::None } else { Op::ConjTrans };
    let (a_rows, a_cols) = if sh.transa == 'N' {
        (sh.m, sh.k)
    } else {
        (sh.k, sh.m)
    };
    let (b_rows, b_cols) = if sh.transb == 'N' {
        (sh.k, sh.n)
    } else {
        (sh.n, sh.k)
    };
    let mut seed = 0x2545_f491_4f6c_dd1du64;
    let mut fill = |len: usize| -> Vec<C32> {
        (0..len)
            .map(|_| {
                let mut next = || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    (seed >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                };
                Complex {
                    re: next(),
                    im: next(),
                }
            })
            .collect()
    };
    let a = fill(a_rows * a_cols);
    let b = fill(b_rows * b_cols);
    let mut c = vec![C32::zero(); sh.m * sh.n];
    let mut per_call = |mode: ComputeMode| -> f64 {
        mkl_lite::set_compute_mode(mode);
        let mut samples = Vec::new();
        let started = Instant::now();
        while samples.len() < 3 || started.elapsed().as_secs_f64() < 0.05 {
            let t = Instant::now();
            mkl_lite::cgemm(
                op(sh.transa),
                op(sh.transb),
                sh.m,
                sh.n,
                sh.k,
                C32::one(),
                std::hint::black_box(&a),
                a_cols,
                &b,
                b_cols,
                C32::zero(),
                &mut c,
                sh.n,
            );
            std::hint::black_box(&c);
            samples.push(t.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    (
        per_call(ComputeMode::Standard),
        per_call(ComputeMode::FloatToBf16x3),
    )
}
