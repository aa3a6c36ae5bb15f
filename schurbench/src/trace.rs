//! Spans the benchmark records around its own calls into the program.
//!
//! A span has a name, a start, a duration and the span that was open
//! when it began. The runner opens one `bench.op` span per op; the
//! workload wraps each call into a program module in a child span named
//! after the layer (`plan.build`, `core.factor`, `serve.hit`, ...).
//! Spans stay in memory and are written out when the run ends. With
//! tracing off every method is a branch on a bool, so the end-to-end
//! runs execute the same code with no clock reads added.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Flops the program counted inside the span (0 unless measured).
    pub flops: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records (`on`) or does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent: self.open.last().copied(),
            flops: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let now = self.epoch.elapsed().as_nanos() as u64;
            let s = &mut self.spans[id];
            s.dur_ns = now - s.start_ns;
            self.open.retain(|&o| o != id);
        }
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Run `f` inside a span that also records the flops the program
    /// counted meanwhile (on every thread).
    pub fn span_flops<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let before = bs_probe::metrics::flops_total();
        let id = self.begin(name);
        let out = f();
        self.end(id);
        if let Some(id) = id {
            self.spans[id].flops = bs_probe::metrics::flops_total() - before;
        }
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Flops recorded in spans called `name`, with their total seconds.
    pub fn flops_and_seconds(&self, name: &str) -> (u64, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(f, t), s| {
                (f + s.flops, t + s.dur_ns as f64 * 1e-9)
            })
    }

    /// Self time in seconds of each span called `name`: its duration
    /// minus the part its direct children cover.
    pub fn self_times_s(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns.saturating_sub(child_ns[i]) as f64 * 1e-9)
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"parent\":{parent},\"flops\":{}}}",
                s.name, s.start_ns, s.dur_ns, s.flops
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("bench.op");
        assert_eq!(t.span("core.solve", || 3), 3);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new(true);
        let op = t.begin("bench.op");
        t.span("core.factor", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.span("core.solve", || ());
        t.end(op);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        let total = t.durations_s("bench.op")[0];
        let own = t.self_times_s("bench.op")[0];
        assert!(total >= 0.02 && own < total && own >= 0.0);
        assert_eq!(t.durations_s("core.factor").len(), 1);
    }
}
