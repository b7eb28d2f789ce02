//! In-memory spans recorded by the benchmark around its calls into each
//! layer (serve, compile, engine, tensor), written out when the run ends.
//!
//! A disabled tracer records nothing; the end-to-end run uses one, so its
//! timings carry no tracing cost.

use std::collections::BTreeMap;
use std::time::Instant;

/// Identifier of a recorded span; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The id handed out by a disabled tracer, and the parent of root spans.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers, such as `serve.wait`.
    pub name: &'static str,
    /// Request (or set-up step) the span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; `start_ns` while still open.
    pub end_ns: u64,
}

/// Self time of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of their durations minus the parts covered by their children.
    pub self_ns: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` ([`SpanId::NONE`] for a root span).
    pub fn begin(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            start_ns: now,
            end_ns: now,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let duration = span.end_ns - span.start_ns;
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration - covered;
        }
        out
    }

    /// The spans and their self-time summary as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"self_times\": {");
        let summary: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                )
            })
            .collect();
        out.push_str(&summary.join(", "));
        out.push_str("}, \"spans\": [\n");
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    s.request, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        out.push_str(&spans.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}
