//! Cross-scheme differential validation.
//!
//! All four release schemes are pure *timing* mechanisms: whatever they
//! do to physical registers, the retired architectural stream must be
//! bit-identical across schemes and must equal the functional ground
//! truth the [`Oracle`] replays. A scheme that frees a register too
//! early shows up here as a diverged retired instruction long before it
//! would corrupt a figure — and a seeded run pins the exact program
//! that exposed it.
//!
//! [`run_differential`] runs one program under every scheme with the
//! retire log enabled, then checks:
//!
//! 1. every stream retires at least the requested instruction count;
//! 2. every stream's `oracle_idx` sequence is exactly `0, 1, 2, …` —
//!    nothing skipped, nothing retired twice (exceptions re-execute,
//!    but retire once);
//! 3. every stream matches the oracle's functional replay — PC,
//!    successor PC, taken bit, and memory address;
//! 4. all streams are elementwise identical to the baseline scheme's.
//!
//! Checks 2–3 make check 4 sharp: four schemes agreeing on a *wrong*
//! stream cannot pass, because the oracle replay is computed without a
//! pipeline at all.

use atr_core::ReleaseScheme;
use atr_pipeline::{CoreConfig, OooCore, RetiredInst};
use atr_workload::{Oracle, Program};
use std::sync::Arc;

/// One scheme's captured run.
#[derive(Debug, Clone)]
pub struct SchemeStream {
    /// The scheme that produced this stream.
    pub scheme: ReleaseScheme,
    /// Retired instructions, in commit order.
    pub retired: Vec<RetiredInst>,
    /// Cycles the run took (differs across schemes; the *stream* must
    /// not).
    pub cycles: u64,
    /// Cycles the attached auditor checked (0 when auditing is off).
    pub audit_cycles: u64,
}

/// The outcome of a clean differential run.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// Per-scheme captures, in [`ReleaseScheme::ALL`] order.
    pub streams: Vec<SchemeStream>,
    /// Retired instructions compared across every pair of streams.
    pub compared: usize,
}

/// Runs `program` for `insts` retired instructions under every release
/// scheme and cross-validates the retired streams (see the [module
/// docs](self)). `audit` additionally attaches the cycle-level
/// invariant auditor to every run.
///
/// # Errors
///
/// Returns a description of the first divergence found: which scheme,
/// which retired index, and both versions of the instruction.
pub fn run_differential(
    base: &CoreConfig,
    program: &Arc<Program>,
    insts: u64,
    audit: bool,
) -> Result<DifferentialReport, String> {
    let mut streams = Vec::new();
    for scheme in ReleaseScheme::ALL {
        let cfg = base.clone().with_scheme(scheme).with_audit(audit);
        let mut core = OooCore::new(cfg, Oracle::new(program.clone()));
        core.enable_retire_log();
        let stats = core.run(insts);
        let audit_cycles = core.auditor().map_or(0, |a| a.cycles_checked());
        let retired = core.retire_log().to_vec();
        if (retired.len() as u64) < insts {
            return Err(format!(
                "{}: retired only {} of the requested {insts} instructions \
                 ({} cycles — likely a deadlock guard or cycle cap)",
                scheme.label(),
                retired.len(),
                stats.cycles
            ));
        }
        streams.push(SchemeStream { scheme, retired, cycles: stats.cycles, audit_cycles });
    }

    // Functional ground truth, replayed without any pipeline.
    let mut oracle = Oracle::new(program.clone());
    for stream in &streams {
        let label = stream.scheme.label();
        for (i, r) in stream.retired.iter().enumerate() {
            if r.oracle_idx != i as u64 {
                return Err(format!(
                    "{label}: retired index {i} carries oracle_idx {} — the architectural \
                     stream skipped or repeated an instruction",
                    r.oracle_idx
                ));
            }
            let truth = oracle.get(r.oracle_idx);
            let (pc, next_pc, taken, mem_addr) =
                (truth.sinst.pc, truth.next_pc(), truth.taken(), truth.outcome.mem_addr);
            if (r.pc, r.next_pc, r.taken, r.mem_addr) != (pc, next_pc, taken, mem_addr) {
                return Err(format!(
                    "{label}: retired index {i} diverged from the oracle: \
                     got pc={:#x} next={:#x} taken={} mem={:?}, \
                     expected pc={pc:#x} next={next_pc:#x} taken={taken} mem={mem_addr:?}",
                    r.pc, r.next_pc, r.taken, r.mem_addr
                ));
            }
        }
    }

    // Cross-scheme identity against the baseline stream.
    let (reference, others) = streams.split_first().expect("ALL is non-empty");
    let mut compared = 0usize;
    for stream in others {
        let n = reference.retired.len().min(stream.retired.len());
        for i in 0..n {
            let (a, b) = (&reference.retired[i], &stream.retired[i]);
            if a != b {
                return Err(format!(
                    "retired stream diverged at index {i}: {} retired {a:?}, {} retired {b:?}",
                    reference.scheme.label(),
                    stream.scheme.label()
                ));
            }
        }
        compared += n;
    }
    Ok(DifferentialReport { streams, compared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_workload::ProfileParams;

    #[test]
    fn default_profile_streams_agree() {
        let program = ProfileParams { seed: 99, ..ProfileParams::default() }.build();
        let report = run_differential(&CoreConfig::default(), &program, 4_000, false)
            .expect("schemes must retire identical streams");
        assert_eq!(report.streams.len(), ReleaseScheme::ALL.len());
        assert!(report.compared >= 3 * 4_000);
        assert_eq!(report.streams[0].audit_cycles, 0, "audit was off");
    }

    #[test]
    fn audited_differential_checks_cycles() {
        let program = ProfileParams { seed: 7, ..ProfileParams::default() }.build();
        let report =
            run_differential(&CoreConfig::default().with_rf_size(72), &program, 2_000, true)
                .expect("audited run stays clean");
        for s in &report.streams {
            assert!(s.audit_cycles > 0, "{}: auditor never ran", s.scheme.label());
        }
    }
}
