//! The flight recorder: a bounded ring buffer over [`Event`]s.
//!
//! The unbounded [`crate::Trace`] vector is the right tool for short
//! replay windows (D-KASAN drains it every round), but long-running
//! soaks and fuzz campaigns need a *black box*: keep the most recent
//! `capacity` events, count what fell off the front, and never grow.
//! Eviction is purely positional — oldest first — so the retained
//! window and the `dropped` counter are identical for identical event
//! streams, which is what the determinism tests pin.

use crate::trace::Event;

/// A bounded, deterministic ring buffer of trace events.
///
/// # Examples
///
/// ```
/// use dma_core::recorder::FlightRecorder;
/// use dma_core::{Event, Kva};
///
/// let mut r = FlightRecorder::new(2);
/// for at in 0..5 {
///     r.push(Event::Free { at, kva: Kva(0x1000) });
/// }
/// assert_eq!(r.len(), 2);
/// assert_eq!(r.dropped(), 3);
/// let evs = r.drain();
/// assert_eq!(evs[0].at(), 3, "oldest retained event");
/// assert_eq!(evs[1].at(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest retained event once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// An empty recorder retaining at most `capacity` events. A
    /// capacity of 0 is honored literally: every push is dropped and
    /// counted, nothing is ever retained. It allocates as it records:
    /// nothing up front, and the ring grows on push up to `capacity`.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            buf: Vec::new(),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Rebuilds a recorder from checkpointed state: `events` must be in
    /// chronological order (as produced by [`FlightRecorder::snapshot`])
    /// and is truncated to the newest `capacity` events, adding the
    /// excess to `dropped` so the drop accounting stays consistent
    /// across a resume.
    pub fn restore(capacity: usize, mut events: Vec<Event>, dropped: u64) -> Self {
        let mut dropped = dropped;
        if events.len() > capacity {
            let excess = events.len() - capacity;
            events.drain(..excess);
            dropped += excess as u64;
        }
        FlightRecorder {
            buf: events,
            capacity,
            head: 0,
            dropped,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted from the front since creation (or the last drain).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends an event, evicting the oldest when full. Returns `true`
    /// when an event was evicted (or, at capacity 0, dropped outright).
    pub fn push(&mut self, ev: Event) -> bool {
        if self.capacity == 0 {
            self.dropped += 1;
            return true;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
            true
        }
    }

    /// Retained events in *storage* order — chronological only while the
    /// recorder has never wrapped. Use [`FlightRecorder::drain`] or
    /// [`FlightRecorder::snapshot`] for guaranteed chronological order.
    pub fn as_slice(&self) -> &[Event] {
        &self.buf
    }

    /// Retained events in chronological (oldest-first) order, leaving
    /// the recorder untouched.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut v = self.buf.clone();
        v.rotate_left(self.head);
        v
    }

    /// Removes and returns the retained events in chronological order,
    /// resetting the drop counter (a drain is a consumption point: what
    /// was dropped before it can never be recovered downstream). The
    /// recorder keeps an empty buffer of the capacity it just used, so
    /// the next burst of the same size does not regrow it.
    pub fn drain(&mut self) -> Vec<Event> {
        let mut v = Vec::with_capacity(self.buf.len());
        v.extend(self.buf.drain(self.head..));
        v.append(&mut self.buf);
        self.head = 0;
        self.dropped = 0;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kva;

    fn ev(at: u64) -> Event {
        Event::Free { at, kva: Kva(at) }
    }

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut r = FlightRecorder::new(3);
        for at in 0..3 {
            assert!(!r.push(ev(at)));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        assert!(r.push(ev(3)), "fourth push evicts");
        assert_eq!(r.dropped(), 1);
        let s = r.snapshot();
        assert_eq!(
            s.iter().map(|e| e.at()).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "event 0 fell off the front"
        );
    }

    #[test]
    fn drain_is_chronological_and_resets() {
        let mut r = FlightRecorder::new(4);
        for at in 0..11 {
            r.push(ev(at));
        }
        assert_eq!(r.dropped(), 7);
        let evs = r.drain();
        assert_eq!(
            evs.iter().map(|e| e.at()).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert!(r.buf.capacity() >= 4, "a drain keeps the ring's buffer");
        // Refilling after a drain behaves like a fresh recorder, wrap
        // included.
        r.push(ev(99));
        assert_eq!(r.snapshot()[0].at(), 99);
        for at in 100..105 {
            r.push(ev(at));
        }
        assert_eq!(r.dropped(), 2);
        let evs = r.drain();
        assert_eq!(
            evs.iter().map(|e| e.at()).collect::<Vec<_>>(),
            vec![101, 102, 103, 104]
        );
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn a_recorder_allocates_only_what_it_records() {
        let r = FlightRecorder::new(8192);
        assert_eq!(r.buf.capacity(), 0, "new allocates nothing");
        assert_eq!(r.clone().buf.capacity(), 0, "nor does a clone");
        let mut r = r;
        for at in 0..3 {
            r.push(ev(at));
        }
        assert!(r.buf.capacity() < 8192, "the ring grows as it records");
    }

    #[test]
    fn identical_streams_retain_identical_windows() {
        let run = || {
            let mut r = FlightRecorder::new(5);
            for at in 0..37 {
                r.push(ev(at * 3));
            }
            (r.snapshot(), r.dropped())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_capacity_drops_everything_but_counts() {
        let mut r = FlightRecorder::new(0);
        assert_eq!(r.capacity(), 0);
        assert!(r.push(ev(1)), "capacity-0 push reports a drop");
        assert!(r.push(ev(2)));
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 2);
        assert!(r.snapshot().is_empty());
        assert!(r.drain().is_empty());
        assert_eq!(r.dropped(), 0, "drain still resets the counter");
    }

    #[test]
    fn capacity_one_keeps_exactly_the_newest() {
        let mut r = FlightRecorder::new(1);
        assert!(!r.push(ev(1)), "first push fills without evicting");
        assert_eq!(r.dropped(), 0);
        assert!(r.push(ev(2)));
        assert!(r.push(ev(3)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.snapshot()[0].at(), 3);
    }

    #[test]
    fn eviction_starts_exactly_at_the_full_boundary() {
        // Pushes 1..=capacity must not evict; push capacity+1 must.
        for cap in [1usize, 2, 3, 7] {
            let mut r = FlightRecorder::new(cap);
            for at in 0..cap as u64 {
                assert!(!r.push(ev(at)), "cap {cap}: push {at} evicted early");
                assert_eq!(r.dropped(), 0);
            }
            assert_eq!(r.len(), cap);
            assert!(r.push(ev(cap as u64)), "cap {cap}: boundary push kept");
            assert_eq!(r.dropped(), 1);
            assert_eq!(r.len(), cap);
            assert_eq!(r.snapshot()[0].at(), 1, "oldest event evicted first");
        }
    }

    #[test]
    fn restore_resumes_the_stream_identically() {
        // A recorder restored mid-stream must retain the same window and
        // drop count as one that saw the whole stream uninterrupted.
        let mut whole = FlightRecorder::new(4);
        for at in 0..11 {
            whole.push(ev(at));
        }

        let mut first = FlightRecorder::new(4);
        for at in 0..6 {
            first.push(ev(at));
        }
        let mut resumed = FlightRecorder::restore(4, first.snapshot(), first.dropped());
        for at in 6..11 {
            resumed.push(ev(at));
        }
        assert_eq!(resumed.snapshot(), whole.snapshot());
        assert_eq!(resumed.dropped(), whole.dropped());
    }

    #[test]
    fn restore_truncates_oversized_snapshots_into_dropped() {
        let events: Vec<Event> = (0..5).map(ev).collect();
        let r = FlightRecorder::restore(2, events, 3);
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.snapshot().iter().map(|e| e.at()).collect::<Vec<_>>(),
            vec![3, 4],
            "newest events survive the truncation"
        );
        assert_eq!(r.dropped(), 6, "3 prior + 3 truncated");
        let zero = FlightRecorder::restore(0, (0..2).map(ev).collect(), 1);
        assert_eq!(zero.len(), 0);
        assert_eq!(zero.dropped(), 3);
    }
}
