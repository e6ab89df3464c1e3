//! In-memory span and counter recording for the traced pass.
//!
//! The harness traces from *outside* the engine: a span wraps each call
//! into a layer's public API.  Spans stay in memory and are written out
//! once, when the run ends.  With tracing off, [`Tracer::time`] only
//! reads the clock, which is what the end-to-end pass uses — the two
//! passes run the same code, and their difference is the tracing
//! overhead the run reports.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    pub name: String,
    /// Corpus statement the call served; spans of one statement share it.
    pub stmt: Option<u32>,
    pub start_us: f64,
    pub end_us: f64,
}

/// A counter read at a span boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    pub name: String,
    pub at_us: f64,
    pub value: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    counters: Vec<CounterSample>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; returns its id (`0` when tracing is off).
    pub fn begin(&mut self, name: &str, parent: Option<u32>, stmt: Option<u32>) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            stmt,
            start_us,
            end_us: start_us,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        if !self.enabled || id == 0 {
            return;
        }
        let now = self.now_us();
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.end_us = now;
        }
    }

    /// Time `f` in seconds, recording a span around it when tracing is on.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<u32>,
        stmt: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent, stmt);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    /// Record a span measured elsewhere (another thread's clock readings,
    /// in seconds from that thread's own origin `origin`).
    pub fn record(
        &mut self,
        name: &str,
        stmt: Option<u32>,
        origin: Instant,
        from_s: f64,
        to_s: f64,
    ) {
        if !self.enabled {
            return;
        }
        let shift = origin.duration_since(self.origin).as_secs_f64();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: None,
            name: name.to_string(),
            stmt,
            start_us: (shift + from_s) * 1e6,
            end_us: (shift + to_s) * 1e6,
        });
    }

    /// Record a counter value at the current boundary.
    pub fn counter(&mut self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        let at_us = self.now_us();
        self.counters.push(CounterSample {
            name: name.to_string(),
            at_us,
            value,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span and counter as one JSON object per line.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("span", Json::from(u64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                ),
                ("name", Json::from(s.name.as_str())),
                (
                    "stmt",
                    s.stmt.map_or(Json::Null, |p| Json::from(u64::from(p))),
                ),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        for c in &self.counters {
            let line = Json::obj(vec![
                ("counter", Json::from(c.name.as_str())),
                ("at_us", Json::Num(c.at_us)),
                ("value", Json::Num(c.value)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.time("x", None, None, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        tr.counter("c", 1.0);
        assert!(tr.spans().is_empty());
        assert!(tr.counters.is_empty());
    }

    #[test]
    fn spans_keep_their_parent_and_statement() {
        let mut tr = Tracer::new(true);
        let root = tr.begin("stmt", None, Some(3));
        let (_, secs) = tr.time("core.execute", Some(root), Some(3), || ());
        tr.end(root);
        tr.counter("pool.morsels_run", 5.0);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].stmt), (Some(root), Some(3)));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        assert!(secs * 1e6 <= spans[0].end_us - spans[0].start_us + 1.0);
        assert_eq!(tr.counters[0].value, 5.0);
    }
}
