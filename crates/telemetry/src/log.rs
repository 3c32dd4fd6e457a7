//! A tiny leveled logger for human diagnostics.
//!
//! Every human-facing diagnostic in the workspace goes through this
//! module and lands on **stderr**, so stdout stays machine-readable
//! (aligned tables and JSON lines only). The level is read once from
//! `ATR_LOG`:
//!
//! * `quiet` — suppress everything, including warnings;
//! * `info` (default) — warnings plus one-line progress/narrative.
//!
//! Use the [`crate::info!`] and [`crate::warn!`] macros; they skip the
//! formatting work entirely under `quiet`.

use std::sync::OnceLock;

/// Verbosity levels, ordered: `Quiet < Info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing at all (scripted runs that only want stdout).
    Quiet = 0,
    /// Warnings and one-line narrative (the default).
    Info = 1,
}

impl LogLevel {
    /// Parses an `ATR_LOG` value.
    #[must_use]
    pub fn parse(raw: &str) -> Option<LogLevel> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "quiet" | "0" => Some(LogLevel::Quiet),
            "info" | "1" => Some(LogLevel::Info),
            _ => None,
        }
    }
}

static LEVEL: OnceLock<LogLevel> = OnceLock::new();

/// The process-wide log level: `ATR_LOG` if set and valid, else `Info`.
/// Read once and cached; a malformed value falls back to `Info` with a
/// one-time warning (on stderr, like everything else here).
pub fn level() -> LogLevel {
    *LEVEL.get_or_init(|| match std::env::var("ATR_LOG") {
        Ok(raw) => LogLevel::parse(&raw).unwrap_or_else(|| {
            eprintln!(
                "warning: ignoring malformed ATR_LOG={raw:?} \
                 (expected quiet|info); using info"
            );
            LogLevel::Info
        }),
        Err(_) => LogLevel::Info,
    })
}

/// Is `at` enabled under the process-wide level?
#[must_use]
pub fn enabled(at: LogLevel) -> bool {
    level() >= at
}

/// Writes one formatted line to stderr (macro plumbing — call through
/// the macros so disabled levels pay nothing).
pub fn emit(args: std::fmt::Arguments<'_>) {
    eprintln!("{args}");
}

/// One-line narrative/progress diagnostic (stderr, `info` level).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::LogLevel::Info) {
            $crate::log::emit(format_args!($($arg)*));
        }
    };
}

/// Warning (stderr, suppressed only by `ATR_LOG=quiet`). Prefixes the
/// line with `warning:` so existing greps keep working.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::LogLevel::Info) {
            $crate::log::emit(format_args!("warning: {}", format_args!($($arg)*)));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_names_and_digits() {
        assert_eq!(LogLevel::parse("quiet"), Some(LogLevel::Quiet));
        assert_eq!(LogLevel::parse(" INFO "), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse("1"), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse("debug"), None, "the removed level is malformed");
        assert_eq!(LogLevel::parse("verbose"), None);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(LogLevel::Quiet < LogLevel::Info);
    }
}
