//! The figure registry's runner end to end: the files a pass writes
//! (fig10's ending with its CPI stacks), and a pass whose results cannot
//! be written naming every entry.

use atr::pipeline::CoreConfig;
use atr::sim::experiments::{run_figures, select};
use atr::sim::{Session, SimConfig};

#[test]
fn runner_writes_each_entry_and_names_the_ones_it_cannot_write() {
    let sim = SimConfig { core: CoreConfig::default(), warmup: 50, measure: 200 };
    let figures = select("table1,fig06,fig10").unwrap();
    let path = std::env::temp_dir().join(format!("atr_registry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);

    let run = run_figures(&Session::default().quiet(), &sim, &figures, &path);
    assert!(run.unwritten.is_empty() && run.coverage_marker().is_none(), "{:?}", run.unwritten);
    let fig06 = (figures[1].assemble)(&sim, &run.matrix);
    let json = std::fs::read_to_string(path.join("fig06.json")).unwrap();
    assert_eq!(json, fig06.json.expect("fig06 has rows").pretty());
    let table = std::fs::read_to_string(path.join("fig06.txt")).unwrap();
    assert!(table.starts_with("Fig 6: Atomic register ratio\n\nbenchmark"), "{table}");
    assert!(table.contains("average-int atomic: ") && table.contains("(paper "), "{table}");
    let table1 = std::fs::read_to_string(path.join("table1.txt")).unwrap();
    assert!(table1.contains("512 entries"), "{table1}");
    assert!(!path.join("table1.json").exists(), "an entry without points writes no JSON");
    // Fig 10's table ends with the CPI stacks of its @64 points.
    let fig10 = std::fs::read_to_string(path.join("fig10.txt")).unwrap();
    let cpi = &fig10[fig10.rfind("\nbucket ").expect("fig10.txt has a CPI table") + 1..];
    let header: Vec<&str> = cpi.lines().next().unwrap().split_whitespace().collect();
    assert_eq!(header, ["bucket", "baseline@64", "nonspec-ER@64", "atomic@64", "combined@64"]);
    assert!(cpi.lines().any(|l| l.starts_with("freelist_stall ")), "{cpi}");
    assert!(cpi.lines().last().unwrap().starts_with("cpi "), "{cpi}");
    std::fs::remove_dir_all(&path).unwrap();

    // A regular file where the results directory should be.
    std::fs::write(&path, "not a directory").unwrap();
    let run = run_figures(&Session::default().quiet(), &sim, &figures, &path);
    std::fs::remove_file(&path).unwrap();
    let failed: Vec<&str> = run.unwritten.iter().map(|(name, _)| *name).collect();
    assert_eq!(failed, ["table1", "fig06", "fig10"]);
    assert_eq!(run.matrix.failed(), 0, "the points themselves simulated");
    let marker = run.coverage_marker().expect("a partial pass must say so");
    assert!(marker.contains("could not write table1, fig06, fig10"), "{marker}");
}
