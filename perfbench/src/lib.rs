//! Host-performance benchmark of the ATR simulator.
//!
//! Three single-process workloads, each on one simulation worker
//! thread (see `README.md` for why each exists and which metric each
//! layer moves):
//!
//! * [`Workload::FiguresTiny`] — the paper's full figure matrix at a
//!   tiny budget, through the `atr-sim` run-matrix engine, assembly and
//!   JSON writing ([`figures`]);
//! * [`Workload::DeepWindow`] — long points on memory-bound profiles at
//!   a large register file, driving `OooCore` directly ([`core_loop`]);
//! * [`Workload::RenamePressure`] — ILP-rich profiles at RF 64 under all
//!   four release schemes, driven the same way.
//!
//! A run repeats identical **rounds** and reports medians. Every layer
//! is timed from outside, through its public functions; the traced run
//! ([`spans`], [`layers`]) adds the per-layer split.

pub mod core_loop;
pub mod figures;
pub mod host;
pub mod layers;
pub mod spans;

use atr_pipeline::CoreStats;

/// One benchmark workload. The names are part of the benchmark's
/// contract (`BENCHMARK.json` and the reports that cite them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full figure pass at a tiny budget.
    FiguresTiny,
    /// Memory-bound profiles, full window, caches mostly cold.
    DeepWindow,
    /// Register-starved ILP-rich profiles under all four schemes.
    RenamePressure,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::FiguresTiny, Workload::DeepWindow, Workload::RenamePressure];

    /// The contract name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresTiny => "figures_tiny",
            Workload::DeepWindow => "deep_window",
            Workload::RenamePressure => "rename_pressure",
        }
    }

    /// Parses a contract name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nominal host seconds of one round on the reference machine (a
    /// 2-vCPU x86-64 container). A run makes `⌊seconds / nominal⌋`
    /// rounds, so the round count is fixed by `--seconds`, not by how
    /// fast a particular round happened to be.
    #[must_use]
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::FiguresTiny => 9.5,
            Workload::DeepWindow => 8.5,
            Workload::RenamePressure => 4.8,
        }
    }

    /// Extra set-ups timed before each round (nothing simulated), on
    /// top of the round's own: a third to half a second of set-up
    /// samples per round.
    #[must_use]
    pub fn setups_per_round(self) -> usize {
        match self {
            Workload::FiguresTiny => 1,
            Workload::DeepWindow => 16,
            Workload::RenamePressure => 6,
        }
    }

    /// Rounds a run of `seconds` makes (at least one).
    #[must_use]
    pub fn rounds(self, seconds: f64) -> usize {
        ((seconds / self.nominal_round_s()).floor() as usize).max(1)
    }
}

/// What one round measured. Host times are seconds.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Set-up: plan, program generation, core construction.
    pub setup_s: f64,
    /// The round as a user would time it.
    pub wall_s: f64,
    /// The simulate phase alone.
    pub sim_s: f64,
    /// Instructions retired (warmup included) across the round's points.
    pub retired: u64,
    /// Cycles simulated (warmup included) across the round's points.
    pub cycles: u64,
    /// Points attempted.
    pub points: usize,
    /// Points that failed or broke an output check.
    pub failed: usize,
    /// One line per failed point or broken check.
    pub problems: Vec<String>,
    /// [`Digest`] over every point's simulated outcome (plus, for the
    /// figure pass, the figure JSON bytes).
    pub digest: u64,
}

impl Round {
    /// Retired kilo-instructions per host second of the simulate phase.
    #[must_use]
    pub fn sim_kips(&self) -> f64 {
        self.retired as f64 / self.sim_s / 1e3
    }

    /// Simulated kilo-cycles per host second of the simulate phase.
    #[must_use]
    pub fn sim_kcps(&self) -> f64 {
        self.cycles as f64 / self.sim_s / 1e3
    }

    /// Records a failed point.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// The output checks every simulated point must pass: it retired at
/// least its budget, its IPC is finite and within `(0, retire_width]`,
/// and its counters are mutually consistent.
///
/// # Errors
///
/// Returns a description of the first broken check.
pub fn check_point(
    label: &str,
    stats: &CoreStats,
    ipc: f64,
    budget: u64,
    retire_width: usize,
) -> Result<(), String> {
    if stats.retired < budget {
        return Err(format!("{label}: retired {} < budget {budget}", stats.retired));
    }
    if !(ipc.is_finite() && ipc > 0.0 && ipc <= retire_width as f64) {
        return Err(format!("{label}: IPC {ipc} outside (0, {retire_width}]"));
    }
    stats.check_consistency().map_err(|e| format!("{label}: {e}"))
}

/// FNV-1a over the simulated results of a round. Any change to a
/// point's cycles, retired instructions or flushes (or to a figure's
/// JSON) changes it, so a speed-only change must leave it untouched.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a number in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one point's outcome in.
    pub fn point(&mut self, label: &str, stats: &CoreStats) {
        self.bytes(label.as_bytes());
        self.u64(stats.cycles);
        self.u64(stats.retired);
        self.u64(stats.flushes);
    }

    /// The digest value.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Median of a sample (mean of the middle two for even sizes).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0..=1`) of an unsorted sample,
/// reordering it in place.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn percentile<T: Ord + Copy>(values: &mut [T], p: f64) -> T {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
    *values.select_nth_unstable(rank).1
}

/// Mixes the benchmark seed into a profile's generator seed. Seed 0 is
/// the identity, so it reproduces the paper's profiles exactly.
#[must_use]
pub fn mix_seed(profile_seed: u64, seed: u64) -> u64 {
    profile_seed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
    }

    #[test]
    fn seed_zero_is_the_identity() {
        assert_eq!(mix_seed(1234, 0), 1234);
        assert_ne!(mix_seed(1234, 1), 1234);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::FiguresTiny.rounds(30.0), 3);
        assert_eq!(Workload::DeepWindow.rounds(1.0), 1);
    }
}
