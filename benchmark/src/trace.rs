//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span (name,
//! start, end, parent). Spans nest by call order on the one thread that
//! records them, so a span's *self time* is its duration minus its direct
//! children's durations. Spans stay in memory while a workload runs and are
//! written out as one JSON file when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; its id is its index in the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct Recording {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Records the spans of one experiment. Shared by `Arc` because the wrapped
/// sampler and model must be `Send`; only one thread ever records, so the
/// mutex is never contended.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    recording: Mutex<Recording>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            recording: Mutex::new(Recording::default()),
        })
    }

    /// Open a span as a child of the innermost open one; it closes when the
    /// guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let mut rec = self.recording.lock().expect("tracer mutex poisoned");
        let id = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        rec.open.push(id);
        rec.spans.push(Span {
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        // Read the clock last, so the bookkeeping above is charged to the
        // parent and not to this span.
        rec.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanGuard { tracer: self, id }
    }

    /// Time `f` under a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        let mut rec = self.recording.lock().expect("tracer mutex poisoned");
        assert!(rec.open.is_empty(), "spans still open");
        std::mem::take(&mut rec.spans)
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl SpanGuard<'_> {
    /// Rename the open span, once the call it times has shown what it was.
    pub fn rename(&self, name: &'static str) {
        if let Ok(mut rec) = self.tracer.recording.lock() {
            rec.spans[self.id as usize].name = name;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
        if let Ok(mut rec) = self.tracer.recording.lock() {
            rec.spans[self.id as usize].end_ns = end_ns;
            let top = rec.open.pop();
            debug_assert_eq!(top, Some(self.id), "spans close innermost first");
        }
    }
}

/// Time `f` under a span when tracing, plainly otherwise.
pub fn timed<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Count, total and self time of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration in nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns as f64, self.count as f64)
    }

    /// Mean self time in nanoseconds (0 when nothing was recorded).
    pub fn mean_self_ns(&self) -> f64 {
        ratio(self.self_ns as f64, self.count as f64)
    }
}

/// `a / b`, or 0 where `b` is 0: a layer that recorded nothing reports 0
/// rather than a NaN the result line could not carry.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-name totals, accumulated over any number of recordings.
#[derive(Debug, Default)]
pub struct Summary(BTreeMap<&'static str, Totals>);

impl Summary {
    /// Fold one recording in.
    pub fn add(&mut self, spans: &[Span]) {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            let t = self.0.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += own;
        }
    }

    /// Summed totals of the spans whose name starts with `prefix`.
    pub fn prefixed(&self, prefix: &str) -> Totals {
        let mut sum = Totals::default();
        for (_, t) in self.0.iter().filter(|(n, _)| n.starts_with(prefix)) {
            sum.count += t.count;
            sum.total_ns += t.total_ns;
            sum.self_ns += t.self_ns;
        }
        sum
    }

    /// Totals of the spans called `name` (zeros if there were none).
    pub fn get(&self, name: &str) -> Totals {
        self.0.get(name).copied().unwrap_or_default()
    }
}

/// Write one recording as a JSON document: an array of
/// `{id, parent, name, start_ns, end_ns}` under some identifying fields.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"schema\":\"asha-benchmark-spans-v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        let comma = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 holds a (10..40) and b (50..90); a holds c (20..30).
        let spans = [
            span(NO_PARENT, "root", 0, 100),
            span(0, "a", 10, 40),
            span(1, "c", 20, 30),
            span(0, "b", 50, 90),
        ];
        // root: 100 - 30 - 40; a: 30 - 10; c and b are leaves.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn summary_groups_by_name_across_recordings() {
        let one = [
            span(NO_PARENT, "run", 0, 50),
            span(0, "call", 5, 15),
            span(0, "call", 20, 40),
        ];
        let mut summary = Summary::default();
        summary.add(&one);
        summary.add(&one);
        assert_eq!(
            summary.get("call"),
            Totals {
                count: 4,
                total_ns: 60,
                self_ns: 60
            }
        );
        assert_eq!(summary.get("run").self_ns, 40);
        assert_eq!(summary.get("call").mean_ns(), 15.0);
        assert_eq!(summary.get("absent"), Totals::default());
        assert_eq!(summary.get("absent").mean_ns(), 0.0);
    }

    #[test]
    fn tracer_nests_spans_by_call_order() {
        let tracer = Tracer::new();
        tracer.time("outer", || {
            tracer.time("inner", || {});
            tracer.time("inner", || {});
        });
        tracer.time("next", || {});
        let spans = tracer.take();
        let shape: Vec<(u32, &str)> = spans.iter().map(|s| (s.parent, s.name)).collect();
        assert_eq!(
            shape,
            [
                (NO_PARENT, "outer"),
                (0, "inner"),
                (0, "inner"),
                (NO_PARENT, "next")
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }
}
