//! Atomic-commit-region analysis of a workload: the §3 measurements
//! (region ratios, consumer counts, lifecycle fractions, cycle gaps) on
//! one benchmark.
//!
//! ```sh
//! cargo run --release --example region_analysis [benchmark-substring]
//! ```

use atr::core::CONSUMER_OVERFLOW;
use atr::isa::RegClass;
use atr::pipeline::{CoreConfig, OooCore};
use atr::workload::{spec, Oracle, WorkloadClass};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "gcc".to_owned());
    let profile =
        spec::find_profile(&which).unwrap_or_else(|| panic!("no profile matches {which:?}"));
    let class = match profile.class {
        WorkloadClass::Int => RegClass::Int,
        WorkloadClass::Fp => RegClass::Fp,
    };

    let mut cfg = CoreConfig::default().with_rf_size(280);
    cfg.rename.collect_events = true;
    let mut core = OooCore::new(cfg, Oracle::new(profile.build()));
    let _ = core.run(200_000);
    let s = core.renamer().log().totals().expect("events collected").summary(class);
    println!("{}: {} register allocations analyzed\n", profile.name, s.allocations);

    println!("region classification (Fig 6):");
    println!("  non-branch  {:>6.2}%", s.non_branch * 100.0);
    println!("  non-except  {:>6.2}%", s.non_except * 100.0);
    println!(
        "  atomic      {:>6.2}%   (paper averages: 17.04% int / 13.14% fp)\n",
        s.atomic * 100.0
    );

    println!("lifecycle cycle fractions (Fig 4, {} samples):", s.lifecycle_samples);
    println!("  in-use           {:>6.2}%", s.in_use * 100.0);
    println!("  unused           {:>6.2}%   (speculative-release opportunity)", s.unused * 100.0);
    println!(
        "  verified-unused  {:>6.2}%   (non-speculative opportunity)\n",
        s.verified_unused * 100.0
    );

    println!("consumers per atomic region (Fig 12, mean {:.2}):", s.mean_consumers);
    for (i, frac) in s.consumer_buckets.iter().enumerate() {
        let label = if i == CONSUMER_OVERFLOW { format!(">={i}") } else { i.to_string() };
        println!("  {label:>3}: {:>6.2}%  {}", frac * 100.0, "#".repeat((frac * 60.0) as usize));
    }

    println!("\nmean cycles after rename, within atomic regions (Fig 14):");
    println!("  to redefinition    {:>8.1}", s.rename_to_redefine);
    println!("  to last consume    {:>8.1}", s.rename_to_consume);
    println!("  to redefiner commit{:>8.1}", s.rename_to_commit);
    println!(
        "\nATR holds these registers only until the consume point instead of the\n\
         commit point — the gap between those two lines is the win."
    );
}
