//! Plain-text table rendering, formatting helpers and JSON result
//! persistence for the experiment drivers.

use atr_json::ToJson;
use atr_telemetry::{CpiBucket, CpiStack};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Renders rows of cells as an aligned plain-text table.
///
/// # Examples
///
/// ```
/// use atr_sim::report::render_table;
///
/// let t = render_table(
///     &["benchmark", "ipc"],
///     &[vec!["505.mcf_r".to_owned(), "0.21".to_owned()]],
/// );
/// assert!(t.contains("505.mcf_r"));
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(ncols) {
            let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
        }
        out.push('\n');
    };
    write_row(&mut out, &headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    write_row(&mut out, &sep);
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Formats a ratio as a percentage with two decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a speedup ratio as a signed percentage gain.
#[must_use]
pub fn gain(speedup: f64) -> String {
    format!("{:+.2}%", (speedup - 1.0) * 100.0)
}

/// Renders labeled CPI stacks side by side: one row per top-down
/// bucket (slot share as a percentage, zero rows elided when no stack
/// uses them) plus a closing `cpi` row.
#[must_use]
pub fn cpi_table(stacks: &[(String, &CpiStack)]) -> String {
    let mut headers = vec!["bucket"];
    for (name, _) in stacks {
        headers.push(name);
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    for bucket in CpiBucket::ALL {
        if stacks.iter().all(|(_, s)| s.get(bucket) == 0) {
            continue;
        }
        let mut row = vec![bucket.label().to_owned()];
        for (_, stack) in stacks {
            row.push(pct(stack.fraction(bucket)));
        }
        rows.push(row);
    }
    let mut cpi_row = vec!["cpi".to_owned()];
    for (_, stack) in stacks {
        let retired = stack.get(CpiBucket::Retiring).max(1);
        #[allow(clippy::cast_precision_loss)]
        cpi_row.push(format!("{:.3}", stack.cycles as f64 / retired as f64));
    }
    rows.push(cpi_row);
    render_table(&headers, &rows)
}

/// The explicit degraded-coverage marker for a pass with failed
/// points or unwritten entries, e.g. `Some("7/832 points failed;
/// figures cover the surviving set")` or `Some("could not write fig10,
/// table1")`; `None` when everything succeeded. Drivers print it at the
/// end of a pass so a partial pass can never masquerade as a complete
/// one.
#[must_use]
pub fn coverage_marker(failed: usize, requested: usize, unwritten: &[&str]) -> Option<String> {
    let mut parts = Vec::new();
    if failed > 0 {
        parts.push(format!("{failed}/{requested} points failed; figures cover the surviving set"));
    }
    if !unwritten.is_empty() {
        parts.push(format!("could not write {}", unwritten.join(", ")));
    }
    (!parts.is_empty()).then(|| parts.join("; "))
}

/// The directory experiment JSON lands in: `ATR_RESULTS_DIR` if set,
/// otherwise `<workspace root>/results` — so the binaries write to the
/// same place no matter which directory they are launched from.
#[must_use]
pub fn results_dir() -> PathBuf {
    results_dir_for(std::env::var_os("ATR_RESULTS_DIR").map(PathBuf::from))
}

/// [`results_dir`] for an explicit `ATR_RESULTS_DIR` value: the
/// override when given, otherwise `<workspace root>/results`.
#[must_use]
pub fn results_dir_for(override_dir: Option<PathBuf>) -> PathBuf {
    override_dir.unwrap_or_else(|| {
        // crates/sim/ -> workspace root, resolved at compile time.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crate dir has a workspace root")
            .join("results")
    })
}

/// Persists experiment rows as JSON under [`results_dir`] (created on
/// demand), returning the written path.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing.
pub fn save_json<T: ToJson + ?Sized>(name: &str, rows: &T) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, rows.to_json().pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_pads_columns() {
        let t = render_table(
            &["a", "bench"],
            &[vec!["1".to_owned(), "x".to_owned()], vec!["22".to_owned(), "yy".to_owned()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("--"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(gain(1.0513), "+5.13%");
        assert_eq!(gain(0.97), "-3.00%");
    }

    #[test]
    fn cpi_table_shares_and_elides_zero_buckets() {
        let mut a = CpiStack::new(8);
        a.account_cycle(8, CpiBucket::Retiring); // full retire
        a.account_cycle(0, CpiBucket::MemDram);
        let mut b = CpiStack::new(8);
        b.account_cycle(4, CpiBucket::FreelistStall);
        let t = cpi_table(&[("base".to_owned(), &a), ("atr".to_owned(), &b)]);
        assert!(t.contains("retiring"));
        assert!(t.contains("mem_dram"));
        assert!(t.contains("freelist_stall"));
        assert!(!t.contains("serialization"), "all-zero buckets are elided:\n{t}");
        assert!(t.lines().last().unwrap().starts_with("cpi"));
        // base: 2 cycles / 8 retired = 0.25 CPI.
        assert!(t.contains("0.250"), "{t}");
    }

    #[test]
    fn coverage_marker_is_silent_on_full_coverage() {
        assert_eq!(coverage_marker(0, 832, &[]), None);
        let m = coverage_marker(7, 832, &[]).unwrap();
        assert!(m.contains("7/832"), "{m}");
        let m = coverage_marker(0, 832, &["fig10", "table1"]).unwrap();
        assert_eq!(m, "could not write fig10, table1");
        let m = coverage_marker(7, 832, &["fig10"]).unwrap();
        assert!(m.contains("7/832") && m.ends_with("could not write fig10"), "{m}");
    }

    #[test]
    fn results_dir_override_and_fallback() {
        let dir = std::env::temp_dir().join("atr_sim_report_test");
        assert_eq!(results_dir_for(Some(dir.clone())), dir);

        let fallback = results_dir_for(None);
        assert!(fallback.ends_with("results"));
        assert!(fallback.parent().unwrap().join("Cargo.toml").exists());
    }
}
