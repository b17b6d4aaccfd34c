//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in
//! [`span`]. With tracing off a span costs one thread-local flag read;
//! with tracing on it records name, start, end, parent span and op id
//! into a thread-local buffer that [`take`] hands back when the run
//! ends. Only the client thread records spans.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since tracing was first
/// enabled on the thread, so the chunks of a run share one time line.
#[derive(Clone, Debug)]
pub struct Span {
    /// Stage name, `layer.call`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: 0,
    });
}

/// Start recording on this thread, discarding earlier spans.
pub fn enable() {
    REC.with_borrow_mut(|r| {
        r.spans.clear();
        r.open.clear();
        r.op = 0;
    });
    ON.set(true);
}

/// Stop recording and return every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    ON.set(false);
    REC.with_borrow_mut(|r| {
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Tag the spans that follow with `op`.
pub fn set_op(op: u64) {
    if ON.get() {
        REC.with_borrow_mut(|r| r.op = op);
    }
}

/// Open a span that closes when the guard drops.
pub fn span(name: &'static str) -> Guard {
    if !ON.get() {
        return Guard(None);
    }
    REC.with_borrow_mut(|r| {
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let index = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: r.open.last().copied(),
            op: r.op,
        });
        r.open.push(index);
        Guard(Some(index))
    })
}

/// Closes its span on drop.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        REC.with_borrow_mut(|r| {
            let end_ns = r.origin.elapsed().as_nanos() as u64;
            if let Some(span) = r.spans.get_mut(index) {
                span.end_ns = end_ns;
            }
            if r.open.last() == Some(&index) {
                r.open.pop();
            }
        });
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        enable();
        set_op(7);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + spans[1].dur_ns(), spans[0].dur_ns());
        // Disabled tracing records nothing.
        let _ignored = span("off");
        assert!(take().is_empty());
    }
}
