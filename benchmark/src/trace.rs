//! Spans recorded from the benchmark's own code around each call into a
//! layer (layer = crate), held in memory and written at exit as Chrome
//! trace-event JSON. Spans are named `layer.what`; a span's self time is
//! its duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share an identifier.
    pub op: u32,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// `grammar` for `grammar.parse`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// A disabled tracer runs the same closures and records nothing: the
    /// difference between the two is the tracing overhead.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` as the root span of a new operation.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op += 1;
        self.span(name, f)
    }

    /// Run `f` under a span whose parent is the span now open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_us = self.now_us();
        result
    }

    /// Child spans of span `parent` for parts of its work the callee
    /// timed itself and returned: `(name, microseconds)` in the order
    /// they ran, laid end to end from the parent's start. The durations
    /// are the callee's; the positions are approximate (whatever ran
    /// between the parts is shown after them), which self times, being
    /// differences of durations, do not depend on.
    pub fn reported(&mut self, parent: usize, parts: &[(&'static str, f64)]) {
        if !self.enabled {
            return;
        }
        let Span {
            mut start_us, op, ..
        } = self.spans[parent];
        for &(name, us) in parts {
            self.spans.push(Span {
                name,
                start_us,
                end_us: start_us + us,
                parent: Some(parent),
                op,
            });
            start_us += us;
        }
    }

    /// Duration in milliseconds of the most recent span called `name`.
    pub fn last_ms(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.duration_us() / 1e3)
    }
}

/// Self time of every span, in microseconds.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_us();
        }
    }
    own
}

/// Self time per layer over the spans of operation `op`, in milliseconds.
pub fn layer_self_ms(spans: &[Span], op: u32) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_us(spans)) {
        if s.op == op {
            *layers.entry(s.layer()).or_insert(0.0) += own / 1e3;
        }
    }
    layers
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, the layer as its category.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \
             \"args\": {{\"span\": {i}, \"parent\": {parent}, \"op\": {}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.layer(),
            s.start_us,
            s.duration_us(),
            s.op
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        op: u32,
    ) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op 1: root 0..100 with children 10..40 (which has a child
        // 15..25) and 50..90; op 2: a lone root.
        let spans = vec![
            span("bench.op", 0.0, 100.0, None, 1),
            span("grammar.parse", 10.0, 40.0, Some(0), 1),
            span("grammar.scan", 15.0, 25.0, Some(1), 1),
            span("loopir.exec", 50.0, 90.0, Some(0), 1),
            span("bench.op", 200.0, 260.0, None, 2),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 20.0, 10.0, 40.0, 60.0]);
        let layers = layer_self_ms(&spans, 1);
        assert_eq!(layers["bench"], 0.03);
        assert_eq!(layers["grammar"], 0.03);
        assert_eq!(layers["loopir"], 0.04);
        // Self times of one operation add up to its root span.
        assert!((layers.values().sum::<f64>() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_numbers_operations() {
        let mut t = Tracer::new(true);
        let v = t.op("bench.op", |t| {
            t.span("core.compile", |t| t.span("grammar.parse", |_| 7))
        });
        t.op("bench.op", |_| ());
        assert_eq!(v, 7);
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), None]);
        assert_eq!(
            t.spans.iter().map(|s| s.op).collect::<Vec<_>>(),
            vec![1, 1, 1, 2]
        );
        assert!(t.spans[0].duration_us() >= t.spans[1].duration_us());
        assert!(chrome_json(&t.spans).contains("\"cat\": \"grammar\""));

        // Parts the callee timed itself become children of its span.
        t.reported(1, &[("grammar.scan", 2.0), ("grammar.reduce", 3.0)]);
        let scan = &t.spans[4];
        assert_eq!(
            (scan.parent, scan.op, scan.duration_us()),
            (Some(1), 1, 2.0)
        );
        assert_eq!(t.spans[5].start_us, scan.end_us);
        let own = t.spans[1].duration_us() - t.spans[2].duration_us() - 5.0;
        assert!((self_times_us(&t.spans)[1] - own).abs() < 1e-9);

        let mut off = Tracer::new(false);
        assert_eq!(off.op("bench.op", |t| t.span("x.y", |_| 3)), 3);
        off.reported(0, &[("x.z", 1.0)]);
        assert!(off.spans.is_empty());
    }
}
