//! Structured run telemetry: one JSON line per simulated point.
//!
//! When `ATR_TELEMETRY` is at `stats` or above, the executor emits one
//! self-describing record per [`crate::matrix::SimPoint`] it ran: the
//! full configuration key, wall-clock cost, simulation throughput, the
//! CPI stack, and the histogram summaries. Records go to stdout by
//! default (one compact [`atr_json::Json`] line each — greppable,
//! `jq`-able, safely interleaved with nothing because all human
//! diagnostics go to stderr via `atr-telemetry`'s logger), or are
//! appended to the session's `ATR_TELEMETRY_OUT` file when one is set.
//!
//! [`validate_record`] is the other half of the contract: CI parses
//! every emitted line back and checks the schema, so the record format
//! cannot silently rot.

use crate::matrix::SimPoint;
use crate::runner::RunResult;
use atr_json::Json;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// Schema tag carried by every record (bump on incompatible changes).
pub const RECORD_SCHEMA: &str = "atr-run-telemetry-v1";

/// Builds the JSONL record for one executed point.
#[must_use]
pub fn record(point: &SimPoint, result: &RunResult, wall: Duration) -> Json {
    let wall_s = wall.as_secs_f64();
    let retired = result.stats.retired;
    #[allow(clippy::cast_precision_loss)]
    let sim_mips = if wall_s > 0.0 { retired as f64 / wall_s / 1.0e6 } else { 0.0 };
    let mut fields: Vec<(String, Json)> = vec![
        ("schema".to_owned(), Json::Str(RECORD_SCHEMA.to_owned())),
        ("label".to_owned(), Json::Str(point.label())),
        ("profile".to_owned(), Json::Str(point.profile.to_owned())),
        ("scheme".to_owned(), Json::Str(point.scheme.label().to_owned())),
        ("rf_size".to_owned(), Json::Int(i64::try_from(point.rf_size).unwrap_or(i64::MAX))),
        ("warmup".to_owned(), Json::Int(i64::try_from(point.warmup).unwrap_or(i64::MAX))),
        ("measure".to_owned(), Json::Int(i64::try_from(point.measure).unwrap_or(i64::MAX))),
        ("wall_s".to_owned(), Json::Num(wall_s)),
        ("sim_mips".to_owned(), Json::Num(sim_mips)),
        ("ipc".to_owned(), Json::Num(result.ipc)),
        ("cycles".to_owned(), Json::Int(i64::try_from(result.stats.cycles).unwrap_or(i64::MAX))),
        ("retired".to_owned(), Json::Int(i64::try_from(retired).unwrap_or(i64::MAX))),
    ];
    let t = &result.telemetry;
    let hists = t.hists.iter().map(|(n, h)| (n.clone(), h.to_json())).collect();
    let telemetry = vec![
        ("cpi_stack".to_owned(), result.cpi.to_json()),
        ("histograms".to_owned(), Json::Obj(hists)),
    ];
    fields.push(("telemetry".to_owned(), Json::Obj(telemetry)));
    Json::Obj(fields)
}

/// Checks one emitted line against the record schema: it must parse,
/// carry the current schema tag, have every required scalar with the
/// right type, and hold a CPI stack whose buckets sum to
/// `width × cycles`.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_record(line: &str) -> Result<(), String> {
    let j = Json::parse(line).map_err(|e| format!("unparseable record: {e}"))?;
    match j.get("schema").and_then(Json::as_str) {
        Some(RECORD_SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema tag {other:?}")),
        None => return Err("missing schema tag".to_owned()),
    }
    for key in ["label", "profile", "scheme"] {
        if j.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("missing string field {key:?}"));
        }
    }
    for key in ["rf_size", "warmup", "measure", "wall_s", "sim_mips", "ipc", "cycles", "retired"] {
        if j.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("missing numeric field {key:?}"));
        }
    }
    let telemetry = j.get("telemetry").ok_or("missing telemetry object")?;
    telemetry.get("histograms").ok_or("missing telemetry.histograms")?;
    let cpi = telemetry.get("cpi_stack").ok_or("missing telemetry.cpi_stack")?;
    let num = |key: &str| {
        cpi.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing cpi_stack field {key:?}"))
    };
    let width = num("width")?;
    let cycles = num("cycles")?;
    let mut total = 0.0;
    for bucket in atr_telemetry::CpiBucket::ALL {
        total += num(bucket.label())?;
    }
    if (total - width * cycles).abs() > 0.5 {
        return Err(format!("CPI slots sum to {total} but width x cycles = {}", width * cycles));
    }
    Ok(())
}

/// Where records go: appended to `out` (created on demand; the
/// session's `ATR_TELEMETRY_OUT`, see [`crate::Session::telemetry_out`])
/// or stdout when `None`.
///
/// Appending keeps one binary's multiple executor passes in a single
/// file; a sweep script truncates it up front if it wants a per-run
/// file.
pub fn emit_lines(lines: &[String], out: Option<&Path>) {
    if lines.is_empty() {
        return;
    }
    match out {
        Some(path) => {
            let appended =
                std::fs::OpenOptions::new().create(true).append(true).open(path).and_then(
                    |mut f| {
                        for line in lines {
                            writeln!(f, "{line}")?;
                        }
                        f.flush()
                    },
                );
            if let Err(e) = appended {
                atr_telemetry::warn!(
                    "could not append telemetry records to {}: {e}",
                    path.display()
                );
            }
        }
        None => {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;
    use atr_core::ReleaseScheme;
    use atr_pipeline::CoreConfig;
    use atr_telemetry::{TelemetryConfig, TelemetryLevel};
    use atr_workload::ProfileParams;

    fn telemetry_result() -> RunResult {
        let cfg = CoreConfig::default()
            .with_rf_size(96)
            .with_scheme(ReleaseScheme::Atr { redefine_delay: 0 })
            .with_telemetry(TelemetryConfig { level: TelemetryLevel::Stats });
        run(cfg, ProfileParams::default().build(), 1_000, 5_000)
    }

    #[test]
    fn emitted_record_passes_its_own_validator() {
        let result = telemetry_result();
        let point =
            SimPoint::new("505.mcf_r", ReleaseScheme::Atr { redefine_delay: 0 }, 96, 1_000, 5_000);
        let line = record(&point, &result, Duration::from_millis(125)).compact();
        assert!(!line.contains('\n'));
        validate_record(&line).unwrap();
        let j = Json::parse(&line).unwrap();
        assert!(j.get("sim_mips").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(j.get("profile").and_then(Json::as_str), Some("505.mcf_r"));
        let hists = j.get("telemetry").unwrap().get("histograms").unwrap();
        assert!(hists.get("rob_occupancy").is_some());
    }

    #[test]
    fn validator_rejects_broken_records() {
        assert!(validate_record("not json").is_err());
        assert!(validate_record("{}").unwrap_err().contains("schema"));
        let tagged = format!(r#"{{"schema":"{RECORD_SCHEMA}"}}"#);
        assert!(validate_record(&tagged).unwrap_err().contains("label"));

        // A record whose CPI slots do not sum to width x cycles.
        let result = telemetry_result();
        let point = SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 96, 1_000, 5_000);
        let good = record(&point, &result, Duration::from_millis(10)).compact();
        validate_record(&good).unwrap();
        let broken = good.replacen("\"retiring\":", "\"retiring\":9", 1);
        assert!(validate_record(&broken).unwrap_err().contains("CPI slots"));
    }
}
