//! Activity tracing — the software analogue of Anton's on-chip logic
//! analyzer (paper §IV.C, Figure 13).
//!
//! Components record *intervals* of activity tagged with a track id and an
//! activity kind. The tracer can then report per-track utilization over a
//! window and render a coarse ASCII timeline like the paper's Figure 13.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Identifies one horizontal track in the trace (e.g. "torus X+ links",
/// "Tensilica cores", "HTIS units"). Tracks aggregate all units of a class,
/// as in the paper's figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub u16);

/// What a unit was doing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Activity {
    /// Transferring data (links) or computing (cores).
    Busy,
    /// Stalled waiting for data (the paper renders this light gray).
    Stalled,
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// The track (component class) this interval belongs to.
    pub track: TrackId,
    /// What the unit was doing.
    pub activity: Activity,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (≥ start).
    pub end: SimTime,
    /// Free-form phase tag (e.g. "position send", "FFT"). Index into the
    /// tracer's label table to keep intervals `Copy`.
    pub label: u16,
}

impl Interval {
    /// The portion of this interval inside `[from, to)`, or `None` if it
    /// falls outside (or clips to zero length). Every windowed query
    /// goes through this, so intervals that straddle the window boundary
    /// contribute only their in-window portion — never their full
    /// length.
    #[inline]
    pub fn clip(&self, from: SimTime, to: SimTime) -> Option<(SimTime, SimTime)> {
        let s = self.start.max(from);
        let e = self.end.min(to);
        (e > s).then_some((s, e))
    }
}

/// Interval recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    intervals: Vec<Interval>,
    track_names: BTreeMap<TrackId, String>,
    /// Units aggregated per track (e.g. 512 links on the "X links"
    /// track); divides utilization. Missing means 1.
    track_units: BTreeMap<TrackId, u64>,
    labels: Vec<String>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records (tracing costs memory; disable for big sweeps).
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            ..Default::default()
        }
    }

    /// A tracer that drops everything.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether intervals are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Register a human-readable name for a track.
    pub fn name_track(&mut self, track: TrackId, name: impl Into<String>) {
        self.track_names.insert(track, name.into());
    }

    /// Register how many hardware units a track aggregates (e.g. 512
    /// torus links). Utilization divides by this; unset tracks count as
    /// a single unit.
    pub fn set_track_units(&mut self, track: TrackId, units: u64) {
        assert!(units > 0, "a track aggregates at least one unit");
        self.track_units.insert(track, units);
    }

    /// Units aggregated by `track` (1 if never set).
    pub fn track_units(&self, track: TrackId) -> u64 {
        self.track_units.get(&track).copied().unwrap_or(1)
    }

    /// The named tracks, in id order, with their names.
    pub fn tracks(&self) -> impl Iterator<Item = (TrackId, &str)> {
        self.track_names.iter().map(|(t, n)| (*t, n.as_str()))
    }

    /// A track's registered name, if any.
    pub fn track_name(&self, track: TrackId) -> Option<&str> {
        self.track_names.get(&track).map(String::as_str)
    }

    /// The interned label table, in id order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Intern a label string, returning its id.
    pub fn intern_label(&mut self, label: &str) -> u16 {
        if let Some(i) = self.labels.iter().position(|l| l == label) {
            return i as u16;
        }
        self.labels.push(label.to_owned());
        (self.labels.len() - 1) as u16
    }

    /// Record an interval. Zero-length intervals are kept (they mark
    /// instantaneous events) but contribute nothing to utilization.
    pub fn record(
        &mut self,
        track: TrackId,
        activity: Activity,
        start: SimTime,
        end: SimTime,
        label: u16,
    ) {
        if !self.enabled {
            return;
        }
        debug_assert!(end >= start);
        self.intervals.push(Interval {
            track,
            activity,
            start,
            end,
            label,
        });
    }

    /// All recorded intervals, in recording order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Label text by id.
    pub fn label(&self, id: u16) -> &str {
        &self.labels[id as usize]
    }

    /// Total busy time on `track` within `[from, to)`, clipped.
    pub fn busy_time(&self, track: TrackId, from: SimTime, to: SimTime) -> SimDuration {
        self.clipped_total(track, Activity::Busy, from, to)
    }

    /// Total stalled time on `track` within `[from, to)`, clipped.
    pub fn stalled_time(&self, track: TrackId, from: SimTime, to: SimTime) -> SimDuration {
        self.clipped_total(track, Activity::Stalled, from, to)
    }

    fn clipped_total(
        &self,
        track: TrackId,
        activity: Activity,
        from: SimTime,
        to: SimTime,
    ) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for iv in &self.intervals {
            if iv.track != track || iv.activity != activity {
                continue;
            }
            if let Some((s, e)) = iv.clip(from, to) {
                total += e - s;
            }
        }
        total
    }

    /// Mean busy fraction of `track` over `[from, to)`: clipped busy
    /// time divided by the window span times the track's unit count.
    /// Intervals straddling the window edges contribute only their
    /// in-window portion.
    pub fn utilization(&self, track: TrackId, from: SimTime, to: SimTime) -> f64 {
        assert!(to > from, "empty utilization window");
        let busy = self.busy_time(track, from, to).as_ps() as f64;
        let span = (to - from).as_ps() as f64;
        busy / (span * self.track_units(track) as f64)
    }

    /// Time-binned busy fractions of `track` over `[from, to)`: the
    /// window is split into `nbins` equal bins and each returns its
    /// clipped busy time divided by the bin span times the track's
    /// unit count — the utilization time series congestion telemetry
    /// plots. Intervals straddling bin edges are split between bins,
    /// so the bins sum to [`Tracer::busy_time`] exactly.
    pub fn utilization_bins(
        &self,
        track: TrackId,
        from: SimTime,
        to: SimTime,
        nbins: usize,
    ) -> Vec<f64> {
        assert!(to > from, "empty utilization window");
        assert!(nbins > 0, "need at least one bin");
        let span_ps = (to - from).as_ps();
        let units = self.track_units(track) as f64;
        // Bin b covers [edge(b), edge(b+1)) relative to `from`; the
        // floored edges tile the window exactly.
        let edge = |b: usize| b as u64 * span_ps / nbins as u64;
        let mut busy = vec![0u64; nbins];
        for iv in &self.intervals {
            if iv.track != track || iv.activity != Activity::Busy {
                continue;
            }
            if let Some((s, e)) = iv.clip(from, to) {
                let (s, e) = ((s - from).as_ps(), (e - from).as_ps());
                // Conservative candidate range (±1 bin for edge
                // rounding); out-of-overlap candidates contribute 0.
                let first = ((s * nbins as u64 / span_ps) as usize).saturating_sub(1);
                let last =
                    (((e.saturating_sub(1)) * nbins as u64 / span_ps) as usize + 1).min(nbins - 1);
                for (b, slot) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                    let lo = edge(b).max(s);
                    let hi = edge(b + 1).min(e);
                    *slot += hi.saturating_sub(lo);
                }
            }
        }
        busy.iter()
            .enumerate()
            .map(|(b, &v)| {
                let bin_span = (edge(b + 1) - edge(b)) as f64;
                if bin_span == 0.0 {
                    0.0
                } else {
                    v as f64 / (bin_span * units)
                }
            })
            .collect()
    }

    /// Busy time on `track` within `[from, to)` broken down by phase
    /// label, in label-id order (clipped like
    /// [`Tracer::busy_time`]). Labels with no busy time are omitted.
    pub fn busy_by_label(
        &self,
        track: TrackId,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(u16, SimDuration)> {
        let mut by_label: BTreeMap<u16, SimDuration> = BTreeMap::new();
        for iv in &self.intervals {
            if iv.track != track || iv.activity != Activity::Busy {
                continue;
            }
            if let Some((s, e)) = iv.clip(from, to) {
                *by_label.entry(iv.label).or_insert(SimDuration::ZERO) += e - s;
            }
        }
        by_label.into_iter().collect()
    }

    /// Emit a CSV of all intervals: `track,name,activity,start_ns,end_ns,label`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("track,name,activity,start_ns,end_ns,label\n");
        for iv in &self.intervals {
            let name = self
                .track_names
                .get(&iv.track)
                .map(String::as_str)
                .unwrap_or("");
            let act = match iv.activity {
                Activity::Busy => "busy",
                Activity::Stalled => "stalled",
            };
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{}\n",
                iv.track.0,
                name,
                act,
                iv.start.as_ns_f64(),
                iv.end.as_ns_f64(),
                self.labels
                    .get(iv.label as usize)
                    .map(String::as_str)
                    .unwrap_or("")
            ));
        }
        out
    }

    /// Render a coarse ASCII timeline: one row per named track, `cols`
    /// character cells spanning `[from, to)`. `#` = busy, `.` = stalled
    /// (only), ` ` = idle. Busy wins over stalled in a cell.
    pub fn ascii_timeline(&self, from: SimTime, to: SimTime, cols: usize) -> String {
        assert!(to > from && cols > 0);
        let span = (to - from).as_ps();
        let cell = (span as f64 / cols as f64).max(1.0);
        let mut out = String::new();
        let width = self
            .track_names
            .values()
            .map(|n| n.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for (&track, name) in &self.track_names {
            let mut row = vec![b' '; cols];
            for iv in &self.intervals {
                if iv.track != track {
                    continue;
                }
                let Some((s, e)) = iv.clip(from, to) else {
                    continue;
                };
                let c0 = ((s.as_ps() - from.as_ps()) as f64 / cell) as usize;
                let c1 = (((e.as_ps() - from.as_ps()) as f64 / cell).ceil() as usize).min(cols);
                for c in row.iter_mut().take(c1).skip(c0.min(cols)) {
                    match iv.activity {
                        Activity::Busy => *c = b'#',
                        Activity::Stalled => {
                            if *c == b' ' {
                                *c = b'.';
                            }
                        }
                    }
                }
            }
            out.push_str(&format!(
                "{:>width$} |{}|\n",
                name,
                String::from_utf8(row).expect("ascii"),
                width = width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn busy_time_clips_to_window() {
        let mut tr = Tracer::enabled();
        let lbl = tr.intern_label("x");
        tr.record(TrackId(0), Activity::Busy, t(10), t(30), lbl);
        tr.record(TrackId(0), Activity::Busy, t(50), t(60), lbl);
        tr.record(TrackId(1), Activity::Busy, t(0), t(100), lbl);
        // Window [20, 55): 10 ns of the first + 5 ns of the second.
        assert_eq!(
            tr.busy_time(TrackId(0), t(20), t(55)),
            SimDuration::from_ns(15)
        );
        // Other activity kind on same track counts separately.
        tr.record(TrackId(0), Activity::Stalled, t(30), t(50), lbl);
        assert_eq!(
            tr.stalled_time(TrackId(0), t(0), t(100)),
            SimDuration::from_ns(20)
        );
    }

    /// Regression for window-straddling intervals: an interval larger
    /// than the query window must contribute exactly the window span,
    /// not its full length — in busy time, utilization, and the
    /// per-label breakdown alike.
    #[test]
    fn straddling_interval_clips_to_window() {
        let mut tr = Tracer::enabled();
        let lbl = tr.intern_label("send");
        // 100 ns interval; query a 20 ns window strictly inside it.
        tr.record(TrackId(0), Activity::Busy, t(0), t(100), lbl);
        assert_eq!(
            tr.busy_time(TrackId(0), t(40), t(60)),
            SimDuration::from_ns(20)
        );
        assert_eq!(tr.utilization(TrackId(0), t(40), t(60)), 1.0);
        assert_eq!(
            tr.busy_by_label(TrackId(0), t(40), t(60)),
            vec![(lbl, SimDuration::from_ns(20))]
        );
        // Window overlapping only the tail.
        assert_eq!(
            tr.busy_time(TrackId(0), t(90), t(200)),
            SimDuration::from_ns(10)
        );
        // Window entirely outside.
        assert_eq!(tr.busy_time(TrackId(0), t(200), t(300)), SimDuration::ZERO);
    }

    /// Binned utilization splits straddling intervals between bins and
    /// conserves total busy time exactly, including when the window
    /// span does not divide evenly by the bin count.
    #[test]
    fn utilization_bins_conserve_busy_time() {
        let mut tr = Tracer::enabled();
        let lbl = tr.intern_label("x");
        // [10, 30) busy, then [50, 60): 30 ns total in [0, 100).
        tr.record(TrackId(0), Activity::Busy, t(10), t(30), lbl);
        tr.record(TrackId(0), Activity::Busy, t(50), t(60), lbl);
        // 4 bins of 25 ns: [0,25) holds 15 ns, [25,50) 5 ns, [50,75) 10 ns.
        let bins = tr.utilization_bins(TrackId(0), t(0), t(100), 4);
        assert_eq!(bins, vec![0.6, 0.2, 0.4, 0.0]);
        // Bins weighted by span sum to busy_time exactly.
        let busy = tr.busy_time(TrackId(0), t(0), t(100));
        let recon: f64 = bins.iter().map(|u| u * 25_000.0).sum();
        assert_eq!(recon, busy.as_ps() as f64);
        // Uneven split (100 ns into 3 bins) still conserves the total.
        let bins3 = tr.utilization_bins(TrackId(0), t(0), t(100), 3);
        let span = 100_000u64;
        let recon3: f64 = bins3
            .iter()
            .enumerate()
            .map(|(b, u)| {
                let w = ((b as u64 + 1) * span / 3 - b as u64 * span / 3) as f64;
                u * w
            })
            .sum();
        assert!((recon3 - busy.as_ps() as f64).abs() < 1e-6);
        // A single bin reproduces plain utilization.
        let one = tr.utilization_bins(TrackId(0), t(0), t(100), 1);
        assert_eq!(one, vec![tr.utilization(TrackId(0), t(0), t(100))]);
        // Track units divide each bin, same as utilization().
        tr.set_track_units(TrackId(0), 2);
        let halved = tr.utilization_bins(TrackId(0), t(0), t(100), 4);
        assert_eq!(halved, vec![0.3, 0.1, 0.2, 0.0]);
    }

    #[test]
    fn utilization_divides_by_track_units() {
        let mut tr = Tracer::enabled();
        let lbl = tr.intern_label("x");
        tr.set_track_units(TrackId(2), 4);
        // Two of four units busy for the whole window → 50%.
        tr.record(TrackId(2), Activity::Busy, t(0), t(10), lbl);
        tr.record(TrackId(2), Activity::Busy, t(0), t(10), lbl);
        assert_eq!(tr.utilization(TrackId(2), t(0), t(10)), 0.5);
        assert_eq!(tr.track_units(TrackId(2)), 4);
        assert_eq!(tr.track_units(TrackId(9)), 1);
    }

    #[test]
    fn tracks_and_labels_are_enumerable() {
        let mut tr = Tracer::enabled();
        tr.name_track(TrackId(1), "cores");
        tr.name_track(TrackId(0), "links");
        let names: Vec<_> = tr.tracks().collect();
        assert_eq!(names, vec![(TrackId(0), "links"), (TrackId(1), "cores")]);
        assert_eq!(tr.track_name(TrackId(1)), Some("cores"));
        assert_eq!(tr.track_name(TrackId(7)), None);
        tr.intern_label("a");
        tr.intern_label("b");
        assert_eq!(tr.labels(), &["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn busy_by_label_splits_phases() {
        let mut tr = Tracer::enabled();
        let send = tr.intern_label("position send");
        let fft = tr.intern_label("FFT");
        tr.record(TrackId(0), Activity::Busy, t(0), t(30), send);
        tr.record(TrackId(0), Activity::Busy, t(30), t(40), fft);
        tr.record(TrackId(0), Activity::Stalled, t(40), t(90), fft);
        let by = tr.busy_by_label(TrackId(0), t(0), t(100));
        assert_eq!(
            by,
            vec![
                (send, SimDuration::from_ns(30)),
                (fft, SimDuration::from_ns(10))
            ]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let lbl = tr.intern_label("x");
        tr.record(TrackId(0), Activity::Busy, t(0), t(10), lbl);
        assert!(tr.intervals().is_empty());
        assert!(!tr.is_enabled());
    }

    #[test]
    fn label_interning_dedupes() {
        let mut tr = Tracer::enabled();
        let a = tr.intern_label("FFT");
        let b = tr.intern_label("FFT");
        let c = tr.intern_label("positions");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(tr.label(c), "positions");
    }

    #[test]
    fn csv_output_contains_rows() {
        let mut tr = Tracer::enabled();
        tr.name_track(TrackId(3), "X+ links");
        let lbl = tr.intern_label("position send");
        tr.record(TrackId(3), Activity::Busy, t(1), t(2), lbl);
        let csv = tr.to_csv();
        assert!(csv.contains("3,X+ links,busy,1.000,2.000,position send"));
    }

    #[test]
    fn ascii_timeline_marks_cells() {
        let mut tr = Tracer::enabled();
        tr.name_track(TrackId(0), "TS");
        let lbl = tr.intern_label("w");
        tr.record(TrackId(0), Activity::Busy, t(0), t(50), lbl);
        tr.record(TrackId(0), Activity::Stalled, t(50), t(100), lbl);
        let art = tr.ascii_timeline(t(0), t(100), 10);
        assert!(art.contains("#####"));
        assert!(art.contains("....."));
    }
}
