//! Benchmark harness support crate.
//!
//! The binaries in `src/bin` are thin: `all_experiments` walks the
//! figure registry ([`atr_sim::experiments::FIGURES`]), `cpi_stack`
//! merges the CPI stack every run carries into one per scheme over Fig
//! 10's @64 points (on the same run matrix and session), and
//! `jsonl_check` and `telemetry_overhead` are CI checks. [`timing`] backs the `benches/`
//! harnesses.

pub mod timing {
    //! Minimal wall-clock micro-benchmark support for the `benches/`
    //! harnesses (plain `harness = false` mains — the container has no
    //! benchmarking framework, and min-of-N wall clock is enough to
    //! catch throughput regressions).

    use std::time::{Duration, Instant};

    /// Runs `f` `samples` times and prints the min/median sample time,
    /// plus per-element throughput when `elements > 0`.
    pub fn bench<T>(name: &str, samples: usize, elements: u64, mut f: impl FnMut() -> T) {
        assert!(samples > 0, "need at least one sample");
        let mut times: Vec<Duration> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            let out = f();
            times.push(t0.elapsed());
            std::hint::black_box(&out);
        }
        times.sort();
        let min = times[0];
        let median = times[times.len() / 2];
        if elements > 0 {
            let rate = elements as f64 / min.as_secs_f64();
            println!("{name:<44} min {min:>10.1?}  median {median:>10.1?}  {rate:>12.0} elem/s");
        } else {
            println!("{name:<44} min {min:>10.1?}  median {median:>10.1?}");
        }
    }
}
