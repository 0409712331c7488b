//! The benchmark's own spans: one around every call into a layer, kept in
//! memory and written out when the run ends. Spans inside the program are
//! `slimpipe_obs`'s; these sit outside it, at the layer boundaries the
//! benchmark calls through.

use crate::json::Value;
use std::time::Instant;

struct BenchSpan {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Span recorder for one workload run (single caller thread, so nesting is
/// a stack).
pub struct Spans {
    workload: String,
    epoch: Instant,
    spans: Vec<BenchSpan>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e3
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s value and the span's duration in seconds.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(BenchSpan {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        (out, (end_us - start_us) / 1e6)
    }

    /// A span's self time: its duration minus the part its children cover.
    fn self_us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_us - c.start_us)
            .sum();
        (s.end_us - s.start_us - children).max(0.0)
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            (0..self.spans.len())
                .map(|id| {
                    let s = &self.spans[id];
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        ("workload", Value::str(&self.workload)),
                        ("name", Value::str(&s.name)),
                        ("start_us", Value::Num(s.start_us)),
                        ("end_us", Value::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("self_us", Value::Num(self.self_us(id))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new("t");
        sp.scope("outer", |sp| {
            sp.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let v = sp.to_json();
        let spans = v.as_arr().unwrap();
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        let dur = |s: &Value| {
            s.get("end_us").unwrap().as_f64().unwrap()
                - s.get("start_us").unwrap().as_f64().unwrap()
        };
        let outer_self = spans[0].get("self_us").unwrap().as_f64().unwrap();
        assert!(dur(&spans[1]) >= 5_000.0);
        assert!((outer_self - (dur(&spans[0]) - dur(&spans[1]))).abs() < 1.0);
    }
}
