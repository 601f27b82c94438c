//! In-memory spans recorded from outside the engine, around each query,
//! sub-plan run and layer call. Spans are kept in memory while the
//! traced run goes and written out once it ends.

use std::time::{Duration, Instant};

/// The query id of spans that belong to no query (per-table unit costs).
pub const NO_QUERY: usize = usize::MAX;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Children either run inside their parent's interval
/// (a layer call made while the parent is open), or — for a sub-plan
/// node — are its inputs re-run on their own, whose cost the parent's
/// run also contains. Either way a span's self time is its duration
/// minus its children's durations.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &str, parent: Option<usize>, query: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns: start_ns, parent, query });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Record a span that was timed by the caller.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        query: usize,
        start: Instant,
        duration: Duration,
    ) -> usize {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = start_ns + duration.as_nanos() as u64;
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, query });
        self.spans.len() - 1
    }

    /// Time `f` as span `name`.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        query: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.enter(name, parent, query);
        let out = f();
        self.exit(id);
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].duration_ns()
    }

    /// Self time of span `id` (see [`self_times`]).
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
        self.duration_ns(id).saturating_sub(children)
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let query = if s.query == NO_QUERY { "null".to_string() } else { s.query.to_string() };
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"query\":{query}}}\n",
                crate::json_str(&s.name),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the summed durations of
/// its direct children, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns: start, end_ns: end, parent, query: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // query [0,100) holds a [10,40) and b [50,70); a holds c [15,25).
        let spans = vec![
            span("query", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
            span("c", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn self_time_subtracts_re_run_inputs() {
        // A join run for 90 ns; its inputs re-run alone took 30 and 20.
        let spans = vec![
            span("join", 0, 90, None),
            span("left", 100, 130, Some(0)),
            span("right", 130, 150, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![span("agg", 0, 10, None), span("input", 20, 45, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn tracer_records_parent_links_and_durations() {
        let mut t = Tracer::default();
        let root = t.enter("query", None, 3);
        let ((), child) = t.span("layer", Some(root), 3, || std::hint::black_box(()));
        t.exit(root);
        assert_eq!(t.spans()[child].parent, Some(root));
        assert!(t.duration_ns(root) >= t.duration_ns(child));
        assert_eq!(t.self_ns(root), t.duration_ns(root) - t.duration_ns(child));
        assert_eq!(t.to_json_lines().lines().count(), 2);
    }
}
