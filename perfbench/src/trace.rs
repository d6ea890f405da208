//! In-memory span recording for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! of the program (and around each request it drives over the wire).
//! Spans stay in memory while the run measures and are written out as
//! JSON lines when it ends. A disabled tracer records nothing, which is
//! how the timed (untraced) runs use the same code.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Identifier, unique within one [`Tracer`].
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// Layer boundary or phase name, e.g. `core.step` or `wire.evt`.
    pub name: &'static str,
    /// Start and end instants.
    pub start: Instant,
    pub end: Instant,
}

/// Span sink of the benchmark process.
pub struct Tracer {
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, next_id: 1, spans: Vec::new() }
    }

    /// Record a finished span and return its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span { id, parent, request, name, start, end });
        id
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line, times in
    /// microseconds since `epoch`.
    pub fn write_jsonl(&self, path: &Path, epoch: Instant) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id,
                parent,
                s.request,
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 1, None, now, now), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_get_unique_ids_and_keep_their_parent() {
        let mut t = Tracer::new(true);
        let now = Instant::now();
        let root = t.record("root", 7, None, now, now);
        let child = t.record("child", 7, Some(root), now, now);
        assert_ne!(root, child);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.spans().iter().all(|s| s.request == 7));
    }
}
