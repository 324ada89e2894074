//! Calendar-queue event scheduling and arena event storage — the hot-path
//! data structures behind both engines.
//!
//! A binary heap pays `O(log n)` sift work on every push and pop, and a
//! DES does one push and one pop per event. A **calendar queue**
//! (Brown 1988) exploits what the paper exploits: event times are dense
//! and near-monotonic, because every latency in the machine is a small
//! fixed number of nanoseconds. Future events hash by time into unsorted
//! *day* buckets (`O(1)` push); only the current day's events sit in a
//! small sorted heap, so pop cost tracks the handful of events sharing
//! one ~8 ns day rather than the whole queue.
//!
//! [`EventArena`] complements it on the parallel path: events live in a
//! slab indexed by `u32`, so the queue moves 4-byte handles instead of
//! full event payloads when it sifts, swaps, and rehashes.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default day width: `2^13` ps ≈ 8 ns per bucket, a few events per day
/// for fabric workloads whose hops are tens of nanoseconds apart.
pub const DEFAULT_DAY_SHIFT: u32 = 13;

/// Initial bucket count (power of two; grows by doubling).
const INITIAL_BUCKETS: usize = 1024;

/// One queued item. Ordering is on `(at, key)` only — inverted, so the
/// `BinaryHeap` "today" pops the earliest first.
struct Entry<K, V> {
    at: SimTime,
    key: K,
    value: V,
}

impl<K: Ord, V> PartialEq for Entry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<K: Ord, V> Eq for Entry<K, V> {}
impl<K: Ord, V> PartialOrd for Entry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for Entry<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// A monotone priority queue keyed on `(SimTime, K)`: a calendar of
/// unsorted future-day buckets plus a sorted "today" heap.
///
/// Pops are totally ordered by `(at, key)`, exactly like a binary heap
/// over the same entries (property-tested against one), so swapping this
/// in under either engine cannot change any tie-break. Pushes at or
/// before the current day land directly in the today heap, so the
/// structure tolerates same-instant chains and does not require global
/// monotonicity — only that pops are what advance the clock.
pub struct CalendarQueue<K, V> {
    /// Unsorted buckets for future days, indexed `day & mask`.
    buckets: Vec<Vec<Entry<K, V>>>,
    /// Bucket index mask (`buckets.len() - 1`; length is a power of two).
    mask: u64,
    /// Sorted (inverted-heap) entries of the current day.
    today: BinaryHeap<Entry<K, V>>,
    /// Current day number (`at >> shift`).
    day: u64,
    /// Day width as a power-of-two picosecond shift.
    shift: u32,
    /// Entries currently stored in `buckets` (excludes `today`).
    in_buckets: usize,
    /// Total entries.
    len: usize,
}

impl<K: Ord + Copy, V> Default for CalendarQueue<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy, V> CalendarQueue<K, V> {
    /// An empty queue with the default ~8 ns day width.
    pub fn new() -> CalendarQueue<K, V> {
        Self::with_day_shift(DEFAULT_DAY_SHIFT)
    }

    /// An empty queue whose days span `2^shift` picoseconds.
    pub fn with_day_shift(shift: u32) -> CalendarQueue<K, V> {
        assert!(shift < 64, "day shift must leave a nonzero day number");
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            mask: INITIAL_BUCKETS as u64 - 1,
            today: BinaryHeap::new(),
            day: 0,
            shift,
            in_buckets: 0,
            len: 0,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `value` at `(at, key)`.
    pub fn push(&mut self, at: SimTime, key: K, value: V) {
        let entry = Entry { at, key, value };
        let d = at.0 >> self.shift;
        self.len += 1;
        if d <= self.day {
            // Current (or, defensively, past) day: straight into the
            // sorted heap so same-instant chains keep FIFO semantics.
            self.today.push(entry);
        } else {
            if self.in_buckets >= 2 * self.buckets.len() {
                self.grow();
            }
            self.buckets[(d & self.mask) as usize].push(entry);
            self.in_buckets += 1;
        }
    }

    /// Earliest queued time, if any.
    pub fn peek_at(&mut self) -> Option<SimTime> {
        self.settle();
        self.today.peek().map(|e| e.at)
    }

    /// Remove and return the entry with the smallest `(at, key)`.
    pub fn pop(&mut self) -> Option<(SimTime, K, V)> {
        self.settle();
        self.today.pop().map(|e| {
            self.len -= 1;
            (e.at, e.key, e.value)
        })
    }

    /// Ensure the today heap holds the earliest pending entries: advance
    /// the day pointer, moving each reached day's bucket entries into the
    /// heap, until the heap is non-empty (or the queue is).
    fn settle(&mut self) {
        if !self.today.is_empty() || self.len == 0 {
            return;
        }
        let mut scanned = 0usize;
        loop {
            let idx = (self.day & self.mask) as usize;
            let bucket = &mut self.buckets[idx];
            let mut moved = false;
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].at.0 >> self.shift == self.day {
                    self.today.push(bucket.swap_remove(i));
                    self.in_buckets -= 1;
                    moved = true;
                } else {
                    i += 1;
                }
            }
            if moved {
                return;
            }
            self.day += 1;
            scanned += 1;
            // A full lap of empty scans means every pending entry is at
            // least one calendar "year" out (far-future watchdogs, idle
            // horizons): jump straight to the earliest pending day.
            if scanned > self.buckets.len() {
                let min_at = self
                    .buckets
                    .iter()
                    .flatten()
                    .map(|e| e.at)
                    .min()
                    .expect("len > 0 with an empty today heap");
                self.day = min_at.0 >> self.shift;
                scanned = 0;
            }
        }
    }

    /// Double the bucket count and rehash the future entries. `today` is
    /// untouched — growth never reorders anything.
    fn grow(&mut self) {
        let new_n = self.buckets.len() * 2;
        let new_mask = new_n as u64 - 1;
        let old: Vec<Entry<K, V>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        self.buckets = (0..new_n).map(|_| Vec::new()).collect();
        self.mask = new_mask;
        for e in old {
            let d = e.at.0 >> self.shift;
            self.buckets[(d & new_mask) as usize].push(e);
        }
    }
}

/// A slab of events addressed by dense `u32` handles, with a free list.
///
/// The parallel engine stores full event payloads here and queues only
/// the 4-byte handle, so calendar rehashes and heap sifts move handles,
/// not payloads, and a popped event is taken by value with no per-event
/// heap allocation.
pub struct EventArena<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Default for EventArena<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventArena<E> {
    /// An empty arena.
    pub fn new() -> EventArena<E> {
        EventArena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Live (inserted, not yet taken) events.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no events are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Store `event`, returning its handle.
    pub fn insert(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(event);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena full");
                self.slots.push(Some(event));
                idx
            }
        }
    }

    /// Remove and return the event behind `idx`. Panics if the handle
    /// was already taken (a queue/arena desync is always a bug).
    pub fn take(&mut self, idx: u32) -> E {
        let ev = self.slots[idx as usize].take().expect("stale arena handle");
        self.free.push(idx);
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_key_order() {
        let mut q: CalendarQueue<u64, &str> = CalendarQueue::new();
        q.push(SimTime::from_ns(30), 0, "c");
        q.push(SimTime::from_ns(10), 1, "a2");
        q.push(SimTime::from_ns(10), 0, "a1");
        q.push(SimTime::from_ns(20), 0, "b");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_at(), Some(SimTime::from_ns(10)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(order, vec!["a1", "a2", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_pushes_after_pops_stay_ordered() {
        // A same-instant chain: pop an event, push more at the same time.
        let mut q: CalendarQueue<u64, u64> = CalendarQueue::new();
        q.push(SimTime::from_ns(5), 0, 0);
        let (at, _, _) = q.pop().unwrap();
        q.push(at, 2, 2);
        q.push(at, 1, 1);
        assert_eq!(q.pop().map(|(_, k, _)| k), Some(1));
        assert_eq!(q.pop().map(|(_, k, _)| k), Some(2));
    }

    #[test]
    fn far_future_gaps_jump_instead_of_scanning() {
        let mut q: CalendarQueue<u64, u32> = CalendarQueue::new();
        // ~1 ms apart: millions of empty 8 ns days between events.
        for k in 0..8u64 {
            q.push(SimTime(k * 1_000_000_000), k, k as u32);
        }
        let mut got = Vec::new();
        while let Some((at, _, v)) = q.pop() {
            got.push((at.0, v));
        }
        assert_eq!(
            got,
            (0..8u64)
                .map(|k| (k * 1_000_000_000, k as u32))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn growth_rehash_preserves_order() {
        let mut q: CalendarQueue<u64, usize> = CalendarQueue::with_day_shift(4);
        // Enough spread-out entries to force several doublings.
        let n = 10_000usize;
        for k in 0..n {
            // A scrambled but collision-free time pattern.
            let t = ((k * 7919) % n) as u64 * 100;
            q.push(SimTime(t), t, k);
        }
        let mut last = None;
        let mut count = 0;
        while let Some((at, _, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(at >= prev);
            }
            last = Some(at);
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut a: EventArena<String> = EventArena::new();
        let i = a.insert("x".into());
        let j = a.insert("y".into());
        assert_eq!(a.len(), 2);
        assert_eq!(a.take(i), "x");
        let k = a.insert("z".into());
        // The freed slot is reused: the slab never grows past the live peak.
        assert_eq!(k, i);
        assert_eq!(a.take(j), "y");
        assert_eq!(a.take(k), "z");
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn double_take_panics() {
        let mut a: EventArena<u8> = EventArena::new();
        let i = a.insert(1);
        a.take(i);
        a.take(i);
    }
}
