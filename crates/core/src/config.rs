//! Input decks.
//!
//! DCMESH reads `PTOquick.dc` / `CONFIG` / `lfd.in`; those files are
//! authors-only, so this module ships equivalent decks built from the
//! published parameters (paper Tables III and V) in a Fortran-ish
//! `key = value` format, parsed by hand. Comments start with `#`, keys
//! are case-insensitive, unknown keys are an error (silently ignored
//! typos would corrupt a precision study).

use dcmesh_lfd::{LaserPulse, LfdParams, Mesh3};
use std::collections::BTreeMap;
use std::fmt;

/// Named system configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemPreset {
    /// Paper Table V row 1: 40 atoms, 64³ mesh, 256 orbitals. Full scale —
    /// for the performance model, not for CPU execution.
    Pto40,
    /// Paper Table V row 2: 135 atoms, 96³ mesh, 1024 orbitals.
    Pto135,
    /// Laptop-scale deck preserving the 40-atom structure (2×2×2
    /// supercell, same physics, reduced mesh/orbitals) — the default for
    /// accuracy experiments.
    Pto40Small,
    /// Laptop-scale deck preserving the 135-atom structure (3×3×3).
    Pto135Small,
}

impl SystemPreset {
    /// Parses a preset name.
    pub fn from_name(s: &str) -> Option<SystemPreset> {
        match s.to_ascii_lowercase().as_str() {
            "pto40" => Some(SystemPreset::Pto40),
            "pto135" => Some(SystemPreset::Pto135),
            "pto40-small" | "pto40_small" => Some(SystemPreset::Pto40Small),
            "pto135-small" | "pto135_small" => Some(SystemPreset::Pto135Small),
            _ => None,
        }
    }

    /// (supercell multiplicity, mesh points per axis, N_orb, N_occ).
    pub fn dimensions(self) -> (usize, usize, usize, usize) {
        match self {
            SystemPreset::Pto40 => (2, 64, 256, 128),
            SystemPreset::Pto135 => (3, 96, 1024, 432),
            SystemPreset::Pto40Small => (2, 12, 16, 8),
            SystemPreset::Pto135Small => (3, 14, 24, 12),
        }
    }
}

/// A fully resolved run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Human-readable label.
    pub label: String,
    /// PbTiO₃ supercell multiplicity (2 → 40 atoms, 3 → 135).
    pub supercell: usize,
    /// Mesh points per axis.
    pub mesh_points: usize,
    /// Orbitals.
    pub n_orb: usize,
    /// Occupied orbitals.
    pub n_occ: usize,
    /// QD time step (a.u.) — Table III: 0.02.
    pub dt: f64,
    /// Total QD steps — Table III: 21 000 (≈ 10 fs).
    pub total_qd_steps: usize,
    /// QD steps per MD step / SCF refresh — 500.
    pub qd_steps_per_md: usize,
    /// Laser amplitude (a.u.).
    pub laser_amplitude: f64,
    /// Laser photon energy (eV).
    pub laser_photon_ev: f64,
    /// Laser duration (fs).
    pub laser_duration_fs: f64,
    /// Nonlocal correction strength (Hartree).
    pub vnl_strength: f64,
    /// Local-potential depth scale.
    pub vloc_depth: f64,
    /// Maxwell feedback coupling.
    pub induced_coupling: f64,
    /// Ehrenfest bond-softening coefficient for the ionic shadow force.
    pub ehrenfest_softening: f64,
    /// Record observables every N QD steps (1 = every step).
    pub record_every: usize,
}

impl RunConfig {
    /// The configuration for a named preset with the paper's Table III
    /// run control.
    pub fn preset(preset: SystemPreset) -> RunConfig {
        let (supercell, mesh_points, n_orb, n_occ) = preset.dimensions();
        let full_scale = matches!(preset, SystemPreset::Pto40 | SystemPreset::Pto135);
        RunConfig {
            label: format!("{preset:?}"),
            supercell,
            mesh_points,
            n_orb,
            n_occ,
            dt: 0.02,
            total_qd_steps: if full_scale { 21_000 } else { 1_500 },
            qd_steps_per_md: 500,
            laser_amplitude: 0.25,
            laser_photon_ev: 3.1,
            laser_duration_fs: if full_scale { 8.0 } else { 0.55 },
            vnl_strength: 0.35,
            vloc_depth: 0.12,
            induced_coupling: 2.0e-4,
            ehrenfest_softening: 0.3,
            record_every: 1,
        }
    }

    /// Builds the LFD parameter block.
    pub fn lfd_params(&self) -> LfdParams {
        let box_length = self.supercell as f64 * dcmesh_qxmd::lattice::PTO_LATTICE_BOHR;
        let spacing = box_length / self.mesh_points as f64;
        LfdParams {
            mesh: Mesh3::cubic(self.mesh_points, spacing),
            n_orb: self.n_orb,
            n_occ: self.n_occ,
            dt: self.dt,
            vnl_strength: self.vnl_strength,
            taylor_order: 4,
            laser: LaserPulse::from_ev_fs(
                self.laser_amplitude,
                self.laser_photon_ev,
                self.laser_duration_fs,
            ),
            induced_coupling: self.induced_coupling,
        }
    }

    /// Number of MD steps (SCF refreshes) the run performs.
    pub fn md_steps(&self) -> usize {
        self.total_qd_steps.div_ceil(self.qd_steps_per_md)
    }

    /// Total simulated time in femtoseconds (Table III: 10 fs at full
    /// scale).
    pub fn total_time_fs(&self) -> f64 {
        self.total_qd_steps as f64 * self.dt / dcmesh_lfd::laser::AU_PER_FS
    }

    /// Parses a deck from text. Unknown keys error; omitted keys keep the
    /// preset's defaults. A `system = <preset>` line must come first.
    pub fn parse(text: &str) -> Result<RunConfig, DeckError> {
        let mut pairs: BTreeMap<String, String> = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| DeckError::new(lineno + 1, format!("expected key = value, got {line:?}")))?;
            pairs.insert(key.trim().to_ascii_lowercase(), value.trim().to_string());
        }
        let system = pairs
            .remove("system")
            .ok_or_else(|| DeckError::new(0, "missing required key: system".into()))?;
        let preset = SystemPreset::from_name(&system)
            .ok_or_else(|| DeckError::new(0, format!("unknown system preset {system:?}")))?;
        let mut cfg = RunConfig::preset(preset);

        macro_rules! take {
            ($key:literal, $field:ident, $ty:ty) => {
                if let Some(v) = pairs.remove($key) {
                    cfg.$field = v
                        .parse::<$ty>()
                        .map_err(|e| DeckError::new(0, format!("bad {}: {e}", $key)))?;
                }
            };
        }
        take!("label", label, String);
        take!("supercell", supercell, usize);
        take!("mesh", mesh_points, usize);
        take!("norb", n_orb, usize);
        take!("nocc", n_occ, usize);
        take!("dt", dt, f64);
        take!("total_qd_steps", total_qd_steps, usize);
        take!("qd_steps_per_md", qd_steps_per_md, usize);
        take!("laser_amplitude", laser_amplitude, f64);
        take!("laser_photon_ev", laser_photon_ev, f64);
        take!("laser_duration_fs", laser_duration_fs, f64);
        take!("vnl_strength", vnl_strength, f64);
        take!("vloc_depth", vloc_depth, f64);
        take!("induced_coupling", induced_coupling, f64);
        take!("ehrenfest_softening", ehrenfest_softening, f64);
        take!("record_every", record_every, usize);

        if let Some((key, _)) = pairs.into_iter().next() {
            return Err(DeckError::new(0, format!("unknown key {key:?}")));
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Serialises the configuration back into deck text that
    /// [`RunConfig::parse`] accepts. Every field is written explicitly
    /// (the `system =` line only anchors the parser), so the receiving
    /// side never depends on preset defaults drifting. The shard
    /// coordinator embeds this in its run-directory manifest so worker
    /// ranks reconstruct the exact deck. Labels containing `#` or a
    /// newline cannot round-trip through the deck grammar and are
    /// rejected.
    pub fn to_deck_text(&self) -> Result<String, DeckError> {
        if self.label.contains('#') || self.label.contains('\n') {
            return Err(DeckError::new(
                0,
                format!("label {:?} cannot round-trip through deck text", self.label),
            ));
        }
        Ok(format!(
            "system = pto40-small\nlabel = {}\nsupercell = {}\nmesh = {}\nnorb = {}\n\
             nocc = {}\ndt = {}\ntotal_qd_steps = {}\nqd_steps_per_md = {}\n\
             laser_amplitude = {}\nlaser_photon_ev = {}\nlaser_duration_fs = {}\n\
             vnl_strength = {}\nvloc_depth = {}\ninduced_coupling = {}\n\
             ehrenfest_softening = {}\nrecord_every = {}\n",
            self.label,
            self.supercell,
            self.mesh_points,
            self.n_orb,
            self.n_occ,
            self.dt,
            self.total_qd_steps,
            self.qd_steps_per_md,
            self.laser_amplitude,
            self.laser_photon_ev,
            self.laser_duration_fs,
            self.vnl_strength,
            self.vloc_depth,
            self.induced_coupling,
            self.ehrenfest_softening,
            self.record_every,
        ))
    }

    /// FNV-1a/64 fingerprint of the canonical deck text, as
    /// `"0x{:016x}"`. Two configs hash equal exactly when their
    /// round-tripped decks are byte-identical, so the run archive can
    /// group runs of the same physics across fleet shapes and mode
    /// policies. `None` when the label cannot round-trip through deck
    /// text (such a config cannot be sharded or archived by deck).
    pub fn deck_hash(&self) -> Option<String> {
        let text = self.to_deck_text().ok()?;
        Some(format!("0x{:016x}", dcmesh_numerics::fnv1a64(text.as_bytes())))
    }

    /// Sanity checks.
    pub fn validate(&self) -> Result<(), DeckError> {
        let err = |msg: String| Err(DeckError::new(0, msg));
        if self.n_occ > self.n_orb {
            return err(format!("nocc {} > norb {}", self.n_occ, self.n_orb));
        }
        if self.qd_steps_per_md == 0 || self.total_qd_steps == 0 {
            return err("step counts must be positive".into());
        }
        if self.record_every == 0 {
            return err("record_every must be positive".into());
        }
        if self.dt.is_nan() || self.dt <= 0.0 {
            return err(format!("bad dt {}", self.dt));
        }
        Ok(())
    }
}

/// Input-deck parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeckError {
    /// 1-based line number (0 when not line-specific).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl DeckError {
    fn new(line: usize, message: String) -> DeckError {
        DeckError { line, message }
    }
}

impl fmt::Display for DeckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "deck line {}: {}", self.line, self.message)
        } else {
            write!(f, "deck: {}", self.message)
        }
    }
}

impl std::error::Error for DeckError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_iii_values() {
        let cfg = RunConfig::preset(SystemPreset::Pto135);
        assert_eq!(cfg.dt, 0.02);
        assert_eq!(cfg.total_qd_steps, 21_000);
        assert_eq!(cfg.qd_steps_per_md, 500);
        // Table III: total simulation time 10 fs.
        assert!((cfg.total_time_fs() - 10.16).abs() < 0.2, "{}", cfg.total_time_fs());
    }

    #[test]
    fn paper_table_v_dimensions() {
        assert_eq!(SystemPreset::Pto40.dimensions(), (2, 64, 256, 128));
        assert_eq!(SystemPreset::Pto135.dimensions(), (3, 96, 1024, 432));
    }

    #[test]
    fn deck_roundtrip() {
        let text = "
            # test deck
            system = pto40-small
            total_qd_steps = 100   # short
            laser_amplitude = 0.5
        ";
        let cfg = RunConfig::parse(text).expect("valid deck");
        assert_eq!(cfg.total_qd_steps, 100);
        assert_eq!(cfg.laser_amplitude, 0.5);
        assert_eq!(cfg.supercell, 2);
    }

    #[test]
    fn deck_text_roundtrips_every_field() {
        let mut cfg = RunConfig::preset(SystemPreset::Pto135Small);
        cfg.label = "chaos~dom3".to_string();
        cfg.dt = 0.017; // not representable in a short decimal chain
        cfg.laser_amplitude = 1.0 / 3.0;
        cfg.record_every = 7;
        let text = cfg.to_deck_text().expect("deck text");
        let back = RunConfig::parse(&text).expect("reparse");
        assert_eq!(back.label, cfg.label);
        assert_eq!(back.supercell, cfg.supercell);
        assert_eq!(back.mesh_points, cfg.mesh_points);
        assert_eq!(back.n_orb, cfg.n_orb);
        assert_eq!(back.n_occ, cfg.n_occ);
        // Rust's float Display is shortest-roundtrip, so these are bit-exact.
        assert_eq!(back.dt.to_bits(), cfg.dt.to_bits());
        assert_eq!(back.laser_amplitude.to_bits(), cfg.laser_amplitude.to_bits());
        assert_eq!(back.induced_coupling.to_bits(), cfg.induced_coupling.to_bits());
        assert_eq!(back.total_qd_steps, cfg.total_qd_steps);
        assert_eq!(back.record_every, cfg.record_every);

        let mut bad = cfg.clone();
        bad.label = "has # comment".to_string();
        assert!(bad.to_deck_text().is_err(), "unroundtrippable label must be rejected");
    }

    #[test]
    fn unknown_key_rejected() {
        let e = RunConfig::parse("system = pto40\nflux_capacitor = 1\n").unwrap_err();
        assert!(e.message.contains("flux_capacitor"), "{e}");
    }

    #[test]
    fn missing_system_rejected() {
        assert!(RunConfig::parse("dt = 0.02\n").is_err());
    }

    #[test]
    fn malformed_line_reports_lineno() {
        let e = RunConfig::parse("system = pto40\nthis is not a pair\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn invalid_occupation_rejected() {
        let e = RunConfig::parse("system = pto40-small\nnocc = 99\n").unwrap_err();
        assert!(e.message.contains("nocc"), "{e}");
    }

    #[test]
    fn lfd_params_mesh_spans_supercell() {
        let cfg = RunConfig::preset(SystemPreset::Pto40Small);
        let p = cfg.lfd_params();
        let box_len = 2.0 * dcmesh_qxmd::lattice::PTO_LATTICE_BOHR;
        assert!((p.mesh.nx as f64 * p.mesh.spacing - box_len).abs() < 1e-12);
        p.validate();
    }

    #[test]
    fn md_step_count() {
        let cfg = RunConfig::preset(SystemPreset::Pto135);
        assert_eq!(cfg.md_steps(), 42); // 21000 / 500
    }
}
