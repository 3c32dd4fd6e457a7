//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` around one call into a layer;
//! spans are kept in memory and written out as JSONL when the run ends.
//! A disabled tracer records nothing and costs one branch per call, so
//! the untraced run measures the program alone.

use atr_json::Json;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `pipeline.simulate`.
    pub name: &'static str,
    /// Free-form detail (the point label, the figure name).
    pub detail: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a pass-through.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Is the recorder on?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        detail: &str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            detail: detail.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Durations (ns) of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).collect()
    }

    /// Total seconds spent in spans named `name`.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as i64));
            let line = Json::Obj(vec![
                ("id".to_owned(), Json::Int(i as i64)),
                ("name".to_owned(), Json::Str(s.name.to_owned())),
                ("detail".to_owned(), Json::Str(s.detail.clone())),
                ("start_ns".to_owned(), Json::Int(s.start_ns as i64)),
                ("end_ns".to_owned(), Json::Int(s.end_ns as i64)),
                ("parent".to_owned(), parent),
            ]);
            out.push_str(&line.compact());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_durations() {
        let mut t = Tracer::new(true);
        t.span("outer", "", |t| {
            t.span("inner", "a", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.total_s("inner") >= 0.002);
        assert!(t.total_s("outer") >= t.total_s("inner"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", "", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
