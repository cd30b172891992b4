//! The trace store: one locked buffer every recording thread appends to,
//! put in a deterministic order when the trace is finished.
//!
//! Recording is synchronous — an event is in the store once
//! [`Recorder::record`] returns — so there is nothing to flush. Worker-side
//! engine events are captured thread-locally and replayed on the engine
//! thread (`ofl_trace::capture`), so the one lock is rarely contended.
//! [`Tracer::finish`] sorts the stream by `(ts_us, source, seq)`: a total
//! order that is a pure function of the simulation, not of thread
//! scheduling.

use crate::sink::Trace;
use crate::{Recorder, TraceEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Most events one tracer keeps. Past this it drops (and counts) events
/// rather than growing without bound.
const MAX_EVENTS: usize = 1 << 20;

#[derive(Default)]
struct Store {
    events: Vec<TraceEvent>,
    /// Per-source sequence counters. A source is only ever touched by one
    /// thread at a time, so its sequence reflects program order — the same
    /// under serial and parallel execution.
    seqs: BTreeMap<u32, u64>,
    dropped: u64,
}

impl Recorder for Mutex<Store> {
    fn record(&self, mut ev: TraceEvent) {
        let mut store = self.lock().unwrap_or_else(PoisonError::into_inner);
        if store.events.len() >= MAX_EVENTS {
            store.dropped += 1;
            return;
        }
        let seq = store.seqs.entry(ev.source).or_insert(0);
        ev.seq = *seq;
        *seq += 1;
        store.events.push(ev);
    }
}

/// Owns the trace store. Create with [`Tracer::start`], hand
/// [`Tracer::recorder`] to `ofl_trace::install`, and call
/// [`Tracer::finish`] to get the ordered [`Trace`] back.
pub struct Tracer {
    store: Arc<Mutex<Store>>,
}

impl Tracer {
    /// An empty tracer.
    pub fn start() -> Tracer {
        Tracer {
            store: Arc::default(),
        }
    }

    /// A [`Recorder`] feeding this tracer, for `ofl_trace::install`.
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        self.store.clone()
    }

    /// Returns the recorded events sorted by `(ts_us, source, seq)`, with
    /// the count of those dropped past the cap.
    pub fn finish(self) -> Trace {
        let store = std::mem::take(&mut *self.store.lock().unwrap_or_else(PoisonError::into_inner));
        let mut events = store.events;
        events.sort_by_key(|a| (a.ts_us, a.source, a.seq));
        Trace {
            events,
            dropped: store.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, EventKind, FieldValue};

    fn ev(ts: u64, source: u32, name: &'static str) -> TraceEvent {
        TraceEvent {
            ts_us: ts,
            source,
            seq: 0,
            cat: Category::Engine,
            kind: EventKind::Instant,
            name,
            fields: Vec::new(),
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let tracer = Tracer::start();
        let recorder = tracer.recorder();
        const THREADS: u32 = 8;
        const PER_THREAD: u64 = 5000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let recorder = recorder.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let mut e = ev(i, t, "load");
                        e.fields.push(("i", FieldValue::U64(i)));
                        recorder.record(e);
                    }
                });
            }
        });
        let trace = tracer.finish();
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.events.len(), (THREADS as u64 * PER_THREAD) as usize);
    }

    #[test]
    fn finish_orders_by_ts_then_source_then_seq() {
        let tracer = Tracer::start();
        let recorder = tracer.recorder();
        // Record out of timestamp order, across two sources.
        recorder.record(ev(50, 3, "c"));
        recorder.record(ev(10, 19, "b"));
        recorder.record(ev(10, 3, "a"));
        recorder.record(ev(10, 3, "a2"));
        let trace = tracer.finish();
        let order: Vec<(u64, u32, u64)> = trace
            .events
            .iter()
            .map(|e| (e.ts_us, e.source, e.seq))
            .collect();
        assert_eq!(order, vec![(10, 3, 1), (10, 3, 2), (10, 19, 0), (50, 3, 0)]);
        assert_eq!(trace.events[0].name, "a");
        assert_eq!(trace.events[1].name, "a2");
        assert_eq!(trace.events[2].name, "b");
        assert_eq!(trace.events[3].name, "c");
    }

    #[test]
    fn per_source_seq_is_record_order() {
        let tracer = Tracer::start();
        let recorder = tracer.recorder();
        for i in 0..10 {
            recorder.record(ev(100 - i, 2, "x"));
        }
        let trace = tracer.finish();
        // Sorted by ts: the *later-recorded* events (lower ts) come first,
        // each still carrying its record-order seq.
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn cap_drops_and_counts_instead_of_growing() {
        let tracer = Tracer::start();
        let recorder = tracer.recorder();
        for i in 0..(super::MAX_EVENTS + 10) as u64 {
            recorder.record(ev(i, 1, "burst"));
        }
        let trace = tracer.finish();
        assert_eq!(trace.events.len(), super::MAX_EVENTS);
        assert_eq!(trace.dropped, 10);
    }
}
