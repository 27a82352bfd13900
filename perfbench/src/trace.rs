//! The traced run's plumbing: the benchmark's own spans around every
//! public call it times (one `op` id per operation, shared by the spans of
//! that operation), the program's JSONL sink switched on for the traced
//! window, and the parse of that file into per-name durations, counters
//! and self times (a span's duration minus what its child spans on the
//! same thread cover).

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Span and counter source for the benchmark. Outside the traced window
/// every span is the program's disabled guard (one relaxed load).
pub struct Tracer {
    next_op: u64,
    path: Option<PathBuf>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            next_op: 0,
            path: None,
        }
    }

    /// A fresh operation id for the spans of one operation.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    pub fn span(&self, name: &'static str, op: u64) -> uvd_obs::Span {
        uvd_obs::span(name).field("op", op as f64)
    }

    /// Switch the program's JSONL sink on, with every counter at zero.
    pub fn start(&mut self, path: PathBuf) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        uvd_obs::set_jsonl(&path)?;
        uvd_obs::reset();
        self.path = Some(path);
        Ok(())
    }

    /// Switch tracing off and read back what the window recorded.
    pub fn stop(&mut self) -> std::io::Result<Trace> {
        let counters: BTreeMap<String, u64> = uvd_obs::counter_summary()
            .into_iter()
            .map(|c| (c.name.to_string(), c.value))
            .collect();
        uvd_obs::disable();
        let path = self.path.take().expect("stop after start");
        let text = std::fs::read_to_string(&path)?;
        let mut spans = Vec::new();
        for line in text.lines() {
            let v = serde_json::from_str_value(line).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("trace line: {e}"))
            })?;
            if v.get("type").and_then(|t| t.as_str()) != Some("span") {
                continue;
            }
            let num = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
            let mut fields = Vec::new();
            if let Some(serde_json::Value::Object(f)) = v.get("fields") {
                for (k, x) in f {
                    if let Some(x) = x.as_f64() {
                        fields.push((k.clone(), x));
                    }
                }
            }
            spans.push(SpanRec {
                name: v
                    .get("name")
                    .and_then(|n| n.as_str())
                    .unwrap_or("")
                    .to_string(),
                start: num("start_us"),
                dur: num("dur_us"),
                thread: num("thread"),
                fields,
                child_us: 0,
            });
        }
        let mut trace = Trace { spans, counters };
        trace.attribute_children();
        Ok(trace)
    }
}

pub struct SpanRec {
    pub name: String,
    pub start: u64,
    pub dur: u64,
    pub thread: u64,
    pub fields: Vec<(String, f64)>,
    /// Time covered by direct children on the same thread.
    child_us: u64,
}

impl SpanRec {
    pub fn end(&self) -> u64 {
        self.start + self.dur
    }

    pub fn field(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == key).map(|f| f.1)
    }

    pub fn ms(&self) -> f64 {
        self.dur as f64 / 1e3
    }

    pub fn self_ms(&self) -> f64 {
        self.dur.saturating_sub(self.child_us) as f64 / 1e3
    }

    fn contains(&self, other: &SpanRec) -> bool {
        // Timestamps are whole microseconds: allow one of rounding.
        other.start >= self.start && other.end() <= self.end() + 1
    }
}

pub struct Trace {
    pub spans: Vec<SpanRec>,
    pub counters: BTreeMap<String, u64>,
}

impl Trace {
    /// Nest spans per thread by interval containment and charge each span's
    /// duration to its innermost enclosing span.
    fn attribute_children(&mut self) {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| {
            let s = &self.spans[i];
            (s.thread, s.start, std::cmp::Reverse(s.dur))
        });
        let mut stack: Vec<usize> = Vec::new();
        for i in order {
            while let Some(&top) = stack.last() {
                let t = &self.spans[top];
                if t.thread == self.spans[i].thread && t.contains(&self.spans[i]) {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                let d = self.spans[i].dur;
                self.spans[parent].child_us += d;
            }
            stack.push(i);
        }
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(SpanRec::ms).collect()
    }

    /// Spans named `name`, on any thread, inside `outer`'s interval.
    pub fn within<'a>(
        &'a self,
        name: &'a str,
        outer: &'a SpanRec,
    ) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.named(name)
            .filter(move |s| s.start >= outer.start && s.end() <= outer.end() + 1)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total and self time per span name, in ms, with the span count.
    pub fn self_times(&self) -> BTreeMap<&str, (usize, f64, f64)> {
        let mut out: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name.as_str()).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.self_ms();
        }
        out
    }
}
