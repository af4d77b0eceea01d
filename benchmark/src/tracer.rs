//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans are kept in memory and written once, at exit, in the Chrome Trace
//! Event format (opens in Perfetto). Untraced runs create no tracer and
//! record nothing.

use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// Id of the enclosing span, 0 at the root.
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Benchmark-local thread number.
    pub thread: u64,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
    /// Free-form key/value annotations.
    pub args: Vec<(String, String)>,
}

/// An in-memory span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Tracer {
    /// Opens a span under `parent` (0 for a root span).
    pub fn open(&self, name: &str, parent: u64) -> OpenSpan<'_> {
        OpenSpan {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            started: Instant::now(),
            args: Vec::new(),
        }
    }

    /// Every completed span so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }

    /// The spans as a Chrome Trace Event document.
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans()
            .into_iter()
            .map(|s| {
                let mut args = vec![
                    ("id".to_string(), Value::UInt(s.id)),
                    ("parent".to_string(), Value::UInt(s.parent)),
                ];
                args.extend(s.args.into_iter().map(|(k, v)| (k, Value::Str(v))));
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name)),
                    ("cat".to_string(), Value::Str("benchmark".to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::Float(s.start_us)),
                    ("dur".to_string(), Value::Float(s.end_us - s.start_us)),
                    ("pid".to_string(), Value::UInt(1)),
                    ("tid".to_string(), Value::UInt(s.thread)),
                    ("args".to_string(), Value::Object(args)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ])
    }
}

/// A span being timed; recorded when [`OpenSpan::close`] is called.
#[derive(Debug)]
pub struct OpenSpan<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: String,
    started: Instant,
    args: Vec<(String, String)>,
}

impl OpenSpan<'_> {
    /// This span's id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Adds an annotation.
    pub fn arg(&mut self, key: &str, value: impl ToString) {
        self.args.push((key.to_string(), value.to_string()));
    }

    /// Ends the span and returns its duration in seconds.
    pub fn close(self) -> f64 {
        let ended = Instant::now();
        let epoch = self.tracer.epoch;
        let us = |t: Instant| t.duration_since(epoch).as_secs_f64() * 1e6;
        self.tracer
            .spans
            .lock()
            .expect("no span holder panics")
            .push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                thread: thread_number(),
                start_us: us(self.started),
                end_us: us(ended),
                args: self.args,
            });
        ended.duration_since(self.started).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let tracer = Tracer::default();
        let root = tracer.open("root", 0);
        let mut child = tracer.open("child", root.id());
        child.arg("cache", "hit");
        let child_s = child.close();
        let root_s = root.close();
        assert!(root_s >= child_s);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        let json = serde_json::to_string(&tracer.chrome_trace()).expect("serializes");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"cache\":\"hit\""));
    }
}
