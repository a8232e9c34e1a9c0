//! Spans recorded from outside the simulator, around each call into a
//! layer's public entry point.
//!
//! A span holds its name, start, end, parent span and cell id. Spans stay
//! in memory and are written as one JSON file when the run ends. When the
//! tracer is off every call is a plain function call, so the untraced
//! (timed) run pays nothing for it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, `layer.call`.
    pub name: &'static str,
    /// Microseconds since the tracer started.
    pub start_us: f64,
    /// Microseconds since the tracer started.
    pub end_us: f64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Grid cell the span belongs to, if any.
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the closures.
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: on.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Runs `f` inside a span named `name`. The closure receives the new
    /// span's id, to pass as the parent of nested spans (`None` when off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: Option<usize>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let id = {
            let mut v = spans.lock().expect("span list poisoned");
            v.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent,
                cell,
            });
            v.len() - 1
        };
        let out = f(Some(id));
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        spans.lock().expect("span list poisoned")[id].end_us = end_us;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span list poisoned").clone())
            .unwrap_or_default()
    }
}

/// Self time of every span, in milliseconds: its duration minus the part
/// of that interval its child spans cover.
pub fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            ((s.end_us - s.start_us) - covered).max(0.0) / 1e3
        })
        .collect()
}

/// Self time and call count per span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Summed self time, ms.
    pub self_ms: f64,
    /// Spans with this name.
    pub calls: u64,
}

/// Totals per span name, in name order.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_ms(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ms) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.self_ms += self_ms;
        t.calls += 1;
    }
    out
}

/// Summed duration of the spans named `name`, ms.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// The spans as one JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {}, \"cell\": {}}}{}\n",
            s.name,
            s.start_us,
            s.end_us,
            opt(s.parent),
            opt(s.cell),
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<SpanId>) -> Span {
        Span {
            name: "x.y",
            start_us,
            end_us,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover 10..40 of 0..100.
        let spans = vec![
            span(0.0, 100_000.0, None),
            span(10_000.0, 30_000.0, Some(0)),
            span(20_000.0, 40_000.0, Some(0)),
        ];
        let own = self_ms(&spans);
        assert!((own[0] - 70.0).abs() < 1e-9);
        assert!((own[1] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a.b", None, None, |id| id), None);
        assert!(t.spans().is_empty());
    }
}
