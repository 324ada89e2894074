//! The traced run's span recorder. Spans are opened by the benchmark
//! around its own calls into each layer's public functions — the
//! program itself carries no tracing. Each span has a name, a start and
//! an end (ns since the recorder was enabled) and the span that was open
//! when it began (its parent). Spans stay in memory until the run ends
//! and are written out once.
//!
//! A layer's *self time* is its span's duration minus the durations of
//! its child spans; children nest strictly inside their parent because
//! spans are opened and closed on one thread in stack order.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted layer name, e.g. `des.exchange.par2_op`.
    pub name: String,
    /// Start, ns since the recorder was enabled.
    pub start_ns: u64,
    /// End, ns since the recorder was enabled.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread (clears any earlier spans).
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording and hand back every closed span, in opening order.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// An open span; it closes when dropped. Inert when recording is off.
#[must_use = "a span closes when the guard drops"]
pub struct Guard {
    index: Option<usize>,
}

/// Open a span named `name` as a child of the innermost open span.
pub fn span(name: &str) -> Guard {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        let index = rec.spans.len();
        rec.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
        });
        rec.open.push(index);
        Some(index)
    });
    Guard { index }
}

impl Guard {
    /// Nanoseconds since this span opened (0 when recording is off).
    pub fn elapsed_ns(&self) -> u64 {
        let Some(i) = self.index else { return 0 };
        RECORDER.with(|r| {
            r.borrow()
                .as_ref()
                .map(|rec| rec.origin.elapsed().as_nanos() as u64 - rec.spans[i].start_ns)
                .unwrap_or(0)
        })
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(i) = self.index else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[i].end_ns = rec.origin.elapsed().as_nanos() as u64;
                if let Some(pos) = rec.open.iter().rposition(|&o| o == i) {
                    rec.open.truncate(pos);
                }
            }
        });
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| s.ns().saturating_sub(c))
        .collect()
}

/// Durations, in milliseconds, of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

/// The spans as a JSON array, one object per line, with self time.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        enable();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _second = span("inner");
        }
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], spans[0].ns() - spans[1].ns() - spans[2].ns());
        assert!(spans[1].ns() >= 2_000_000);
        assert_eq!(durations_ms(&spans, "inner").len(), 2);
        assert!(take().is_empty(), "take stops recording");
    }

    #[test]
    fn spans_are_inert_when_disabled() {
        let g = span("nothing");
        assert_eq!(g.elapsed_ns(), 0);
        drop(g);
        assert!(take().is_empty());
    }
}
