//! Chrome `trace_event` JSON export.
//!
//! The output is the JSON-object form of the [trace event format]
//! (`{"traceEvents": [...]}`), loadable directly in Perfetto
//! (<https://ui.perfetto.dev>) or `about:tracing`. Simulated picosecond
//! timestamps map to the format's microsecond `ts` field as fractional
//! values, so a 162 ns flight shows up as a 0.162 µs slice.
//!
//! The writer is deliberately low-level — named slices, instants, and
//! counters on numbered process/thread rows — so both the packet flight
//! recorder (one row per packet, one slice per Figure 6 stage) and the
//! `des::trace` activity tracer (one row per hardware track, one slice
//! per busy/stall interval) export through the same path. Output is
//! byte-stable for a given simulation: rows emit in insertion order and
//! floats format deterministically, which the same-seed determinism test
//! locks in.
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::breakdown::{PacketLifecycle, Stage};
use crate::json::escape;
use anton_des::SimTime;
use std::fmt::Write as _;
use std::io;

/// Format a picosecond timestamp as the trace format's microsecond `ts`.
fn ts_us(t: SimTime) -> String {
    // Emit as an exact decimal (ps = µs * 1e6), avoiding float noise.
    let us = t.as_ps() / 1_000_000;
    let frac = t.as_ps() % 1_000_000;
    if frac == 0 {
        format!("{us}")
    } else {
        format!("{us}.{frac:06}").trim_end_matches('0').to_owned()
    }
}

fn dur_us(from: SimTime, to: SimTime) -> String {
    ts_us(SimTime::from_ps(to.as_ps().saturating_sub(from.as_ps())))
}

fn ev_process_name(pid: u64, name: &str) -> String {
    format!(
        r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":{}}}}}"#,
        escape(name)
    )
}

fn ev_thread_name(pid: u64, tid: u64, name: &str) -> String {
    format!(
        r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":{}}}}}"#,
        escape(name)
    )
}

fn ev_slice(pid: u64, tid: u64, cat: &str, name: &str, start: SimTime, end: SimTime) -> String {
    format!(
        r#"{{"name":{},"cat":{},"ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{tid}}}"#,
        escape(name),
        escape(cat),
        ts_us(start),
        dur_us(start, end),
    )
}

fn ev_instant(pid: u64, tid: u64, cat: &str, name: &str, at: SimTime) -> String {
    format!(
        r#"{{"name":{},"cat":{},"ph":"i","s":"p","ts":{},"pid":{pid},"tid":{tid}}}"#,
        escape(name),
        escape(cat),
        ts_us(at),
    )
}

fn ev_counter(pid: u64, name: &str, at: SimTime, value: f64) -> String {
    let v = if value == value.trunc() {
        format!("{}", value as i64)
    } else {
        format!("{value:?}")
    };
    format!(
        r#"{{"name":{},"ph":"C","ts":{},"pid":{pid},"args":{{"value":{v}}}}}"#,
        escape(name),
        ts_us(at),
    )
}

/// The events of one packet-lifecycle row, in emission order. Bounded:
/// one metadata event, at most five stage slices, one instant per hop.
fn lifecycle_events(pid: u64, lc: &PacketLifecycle) -> Vec<String> {
    let tid = lc.pkt.0;
    let mut out = Vec::with_capacity(6 + lc.hop_enters.len());
    out.push(ev_thread_name(
        pid,
        tid,
        &format!("pkt {} {}->{}", lc.pkt.0, lc.src.0, lc.dst.0),
    ));
    let head_at_dst = lc.hop_enters.last().copied().unwrap_or(lc.wire_ready);
    let anchors = [
        (Stage::SenderOverhead, lc.issued, lc.inj_ready),
        (Stage::Injection, lc.inj_ready, lc.wire_ready),
        (Stage::RouterWire, lc.wire_ready, head_at_dst),
        (Stage::Delivery, head_at_dst, lc.delivered),
        (Stage::Sync, lc.delivered, lc.fired.unwrap_or(lc.delivered)),
    ];
    for (stage, start, end) in anchors {
        if end > start {
            out.push(ev_slice(pid, tid, "packet", stage.name(), start, end));
        }
    }
    for (i, hop) in lc.hop_enters.iter().enumerate() {
        out.push(ev_instant(
            pid,
            tid,
            "packet",
            &format!("hop {}", i + 1),
            *hop,
        ));
    }
    out
}

const TRACE_HEADER: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";

/// Streams a Chrome `trace_event` JSON document to any [`io::Write`]
/// sink, chunk by chunk, without accumulating events in memory (write to
/// a `Vec<u8>` for an in-memory document).
#[derive(Debug)]
pub struct ChromeTraceWriter<W: io::Write> {
    w: W,
    count: u64,
}

impl<W: io::Write> ChromeTraceWriter<W> {
    /// Start a document on `w` (writes the header immediately). Wrap
    /// files in a `BufWriter`; the writer emits one small chunk per
    /// event.
    pub fn new(mut w: W) -> io::Result<ChromeTraceWriter<W>> {
        w.write_all(TRACE_HEADER.as_bytes())?;
        Ok(ChromeTraceWriter { w, count: 0 })
    }

    fn event(&mut self, ev: &str) -> io::Result<()> {
        if self.count > 0 {
            self.w.write_all(b",\n")?;
        }
        self.w.write_all(ev.as_bytes())?;
        self.count += 1;
        Ok(())
    }

    /// Name a process row (`"M"` metadata event).
    pub fn name_process(&mut self, pid: u64, name: &str) -> io::Result<()> {
        self.event(&ev_process_name(pid, name))
    }

    /// Name a thread row within a process (`"M"` metadata event).
    pub fn name_thread(&mut self, pid: u64, tid: u64, name: &str) -> io::Result<()> {
        self.event(&ev_thread_name(pid, tid, name))
    }

    /// Add a complete slice (`"X"` event) spanning `[start, end]`.
    pub fn add_slice(
        &mut self,
        pid: u64,
        tid: u64,
        cat: &str,
        name: &str,
        start: SimTime,
        end: SimTime,
    ) -> io::Result<()> {
        self.event(&ev_slice(pid, tid, cat, name, start, end))
    }

    /// Add an instant marker (`"i"` event, process scope).
    pub fn add_instant(
        &mut self,
        pid: u64,
        tid: u64,
        cat: &str,
        name: &str,
        at: SimTime,
    ) -> io::Result<()> {
        self.event(&ev_instant(pid, tid, cat, name, at))
    }

    /// Add a counter sample (`"C"` event).
    pub fn add_counter(&mut self, pid: u64, name: &str, at: SimTime, value: f64) -> io::Result<()> {
        self.event(&ev_counter(pid, name, at, value))
    }

    /// Stream one packet lifecycle row (bounded transient memory: the
    /// handful of event strings for this packet, then gone).
    pub fn add_lifecycle(&mut self, pid: u64, lc: &PacketLifecycle) -> io::Result<()> {
        for ev in lifecycle_events(pid, lc) {
            self.event(&ev)?;
        }
        Ok(())
    }

    /// Events written so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no events were written.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Close the JSON document and hand the sink back (flushed).
    pub fn finish(mut self) -> io::Result<W> {
        if self.count > 0 {
            self.w.write_all(b"\n")?;
        }
        self.w.write_all(b"]}\n")?;
        self.w.flush()?;
        Ok(self.w)
    }
}

const CSV_HEADER: &str = "packet,src,dst,hops,retransmits,payload_bytes,issued_ns,\
     sender_ns,injection_ns,router_wire_ns,delivery_ns,sync_ns,end_to_end_ns\n";

fn csv_row(lc: &PacketLifecycle) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{},{},{},{},{},{},{}",
        lc.pkt.0,
        lc.src.0,
        lc.dst.0,
        lc.hops(),
        lc.retransmits,
        lc.payload_bytes,
        lc.issued.as_ns_f64(),
    );
    for stage in Stage::ALL {
        let _ = write!(out, ",{}", lc.stage(stage).as_ns_f64());
    }
    let _ = writeln!(out, ",{}", lc.end_to_end().as_ns_f64());
    out
}

/// Streams the packet lifecycles as a flat CSV summary (one row per
/// packet, one column per Figure 6 stage) — the spreadsheet-friendly
/// counterpart of the Chrome trace — to any [`io::Write`] sink one row
/// at a time, with O(1) memory.
#[derive(Debug)]
pub struct LifecycleCsvWriter<W: io::Write> {
    w: W,
    rows: u64,
}

impl<W: io::Write> LifecycleCsvWriter<W> {
    /// Start a CSV on `w` (writes the header immediately).
    pub fn new(mut w: W) -> io::Result<LifecycleCsvWriter<W>> {
        w.write_all(CSV_HEADER.as_bytes())?;
        Ok(LifecycleCsvWriter { w, rows: 0 })
    }

    /// Write one packet row.
    pub fn write(&mut self, lc: &PacketLifecycle) -> io::Result<()> {
        self.w.write_all(csv_row(lc).as_bytes())?;
        self.rows += 1;
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and hand the sink back.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use anton_topo::NodeId;

    fn lifecycle() -> PacketLifecycle {
        PacketLifecycle {
            pkt: crate::PacketId(7),
            src: NodeId(0),
            dst: NodeId(1),
            issued: SimTime::from_ns(0),
            inj_ready: SimTime::from_ns(36),
            wire_ready: SimTime::from_ns(55),
            hop_enters: vec![SimTime::from_ns(95)],
            delivered: SimTime::from_ns(162),
            fired: None,
            retransmits: 0,
            payload_bytes: 32,
        }
    }

    #[test]
    fn trace_json_is_valid() {
        let mut w = ChromeTraceWriter::new(Vec::new()).unwrap();
        w.name_process(0, "fabric \"node\" 0").unwrap();
        w.add_lifecycle(0, &lifecycle()).unwrap();
        w.add_counter(0, "fifo depth", SimTime::from_ns(10), 3.0)
            .unwrap();
        let json = String::from_utf8(w.finish().unwrap()).unwrap();
        validate_json(&json).unwrap();
        assert!(json.contains("\"router + wire\""));
        // 95 ns head arrival → ts 0.095 µs, trailing zeros trimmed.
        assert!(json.contains("\"ts\":0.095"), "{json}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let empty = ChromeTraceWriter::new(Vec::new())
            .unwrap()
            .finish()
            .unwrap();
        validate_json(std::str::from_utf8(&empty).unwrap()).unwrap();
    }

    #[test]
    fn ts_formats_exact_decimal() {
        assert_eq!(ts_us(SimTime::from_ns(162)), "0.162");
        assert_eq!(ts_us(SimTime::from_us(3)), "3");
        assert_eq!(ts_us(SimTime::from_ps(1_234_567)), "1.234567");
    }

    #[test]
    fn csv_rows_telescope() {
        let mut w = LifecycleCsvWriter::new(Vec::new()).unwrap();
        w.write(&lifecycle()).unwrap();
        let csv = String::from_utf8(w.finish().unwrap()).unwrap();
        let row = csv.lines().nth(1).unwrap();
        let cols: Vec<f64> = row.split(',').skip(7).map(|c| c.parse().unwrap()).collect();
        let sum: f64 = cols[..5].iter().sum();
        assert_eq!(sum, cols[5]); // stage columns sum to end_to_end
        assert_eq!(cols[5], 162.0);
    }
}
