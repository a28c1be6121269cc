//! Spans around the calls into each layer, kept in memory.
//!
//! A span's self time is its duration minus the time of the spans it
//! encloses, so nested calls (a triage probe inside `shrink_plan`) are
//! charged to the innermost layer only. Spans are taken in the benchmark's
//! own code around public calls; the crates themselves are not
//! instrumented.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Self time per layer, in nanoseconds.
pub type LayerTimes = BTreeMap<&'static str, u64>;

struct Frame {
    layer: &'static str,
    start: Instant,
    children_ns: u64,
}

/// Accumulates layer self times for the check in progress.
#[derive(Default)]
pub struct Tracer {
    stack: RefCell<Vec<Frame>>,
    self_ns: RefCell<LayerTimes>,
}

/// Closes the innermost span when dropped, also while a panicking check
/// unwinds, so a caught panic leaves the span stack balanced.
struct Open<'a>(&'a Tracer);

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let mut stack = self.0.stack.borrow_mut();
        let Some(frame) = stack.pop() else { return };
        let total = frame.start.elapsed().as_nanos() as u64;
        *self.0.self_ns.borrow_mut().entry(frame.layer).or_default() +=
            total.saturating_sub(frame.children_ns);
        if let Some(parent) = stack.last_mut() {
            parent.children_ns += total;
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span charged to `layer`.
    pub fn span<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.stack.borrow_mut().push(Frame {
            layer,
            start: Instant::now(),
            children_ns: 0,
        });
        let _open = Open(self);
        f()
    }

    /// Returns and clears the self times gathered since the last call.
    pub fn take(&self) -> LayerTimes {
        self.stack.borrow_mut().clear();
        std::mem::take(&mut *self.self_ns.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_charge_self_time_only() {
        let tr = Tracer::default();
        let outer_start = Instant::now();
        tr.span("outer", || {
            std::thread::sleep(Duration::from_millis(5));
            tr.span("inner", || std::thread::sleep(Duration::from_millis(20)));
        });
        let wall = outer_start.elapsed().as_nanos() as u64;
        let t = tr.take();
        assert!(t["inner"] >= 20_000_000);
        assert!(t["outer"] >= 5_000_000 && t["outer"] < 20_000_000);
        assert!(t["outer"] + t["inner"] <= wall);
        assert!(tr.take().is_empty());
    }

    #[test]
    fn a_panicking_span_still_closes() {
        let tr = Tracer::default();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.span("outer", || tr.span("inner", || panic!("probe failed")))
        }));
        assert!(caught.is_err());
        let t = tr.take();
        assert!(t.contains_key("inner") && t.contains_key("outer"));
    }
}
