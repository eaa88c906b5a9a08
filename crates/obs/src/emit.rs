//! Event emission: the [`Emitter`] handle instrumented code holds and the
//! shared buffer behind it, which [`EventBuffer::drain`] empties.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be free.** Most runs are not observed; an emitter
//!    built with [`Emitter::disabled`] is a `None` — every `emit` call is
//!    one branch, and the closure that would build the event is never
//!    invoked. The scheduler hot path stays unchanged.
//! 2. **Enabled must be cheap and thread-safe.** Its producers are the
//!    wall-clock runtime's setup (arena mapping, calibration), the
//!    server's admission path and migration thread, and a batch run's
//!    post-run drain; the buffer is a single mutex-protected `Vec` (push
//!    under lock, no allocation churn beyond the vector's own growth).
//!    A batch run's high-volume producers — its workers and migration
//!    thread — write lock-free [`crate::FlightRecorder`] lanes instead,
//!    merged into the emitter in one [`Emitter::emit_many`] at the end.
//! 3. **Emission order.** Events are appended in the order they are
//!    emitted; a flight-recorder drain appends its stream already
//!    merged by timestamp.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::Event;

#[derive(Debug, Default)]
struct Shared {
    buf: Mutex<Vec<Event>>,
    /// Events dropped because the buffer mutex was poisoned (a worker
    /// panicked mid-emit). Observability must never turn one panic into
    /// an abort of the whole run, so emission degrades to counting.
    poisoned: AtomicU64,
}

/// Clonable emission handle. See the module docs for the cost model.
#[derive(Debug, Clone, Default)]
pub struct Emitter {
    shared: Option<Arc<Shared>>,
}

impl Emitter {
    /// An emitter that drops everything (one branch per call site).
    pub fn disabled() -> Self {
        Emitter { shared: None }
    }

    /// An enabled emitter and the buffer handle to drain it from.
    pub fn buffered() -> (Emitter, EventBuffer) {
        let shared = Arc::new(Shared::default());
        (
            Emitter {
                shared: Some(Arc::clone(&shared)),
            },
            EventBuffer { shared },
        )
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Emit one event. The closure runs only when enabled, so call sites
    /// pay nothing to *construct* events on unobserved runs.
    ///
    /// If the shared buffer's mutex is poisoned (another thread panicked
    /// while emitting), the event is dropped and the
    /// [`EventBuffer::poisoned`] counter incremented — emission never
    /// propagates someone else's panic.
    #[inline]
    pub fn emit<F: FnOnce() -> Event>(&self, build: F) {
        if let Some(shared) = &self.shared {
            let event = build();
            match shared.buf.lock() {
                Ok(mut buf) => buf.push(event),
                Err(_) => {
                    shared.poisoned.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Append a batch of already-built events under one lock acquisition
    /// (the flight recorder drains its merged stream through this). Same
    /// poisoning degradation as [`emit`](Self::emit): on a poisoned
    /// buffer the whole batch is dropped and counted.
    pub fn emit_many(&self, events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        if let Some(shared) = &self.shared {
            match shared.buf.lock() {
                Ok(mut buf) => buf.extend(events),
                Err(_) => {
                    shared
                        .poisoned
                        .fetch_add(events.len() as u64, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Drain handle for an [`Emitter::buffered`] pair.
#[derive(Debug)]
pub struct EventBuffer {
    shared: Arc<Shared>,
}

impl EventBuffer {
    /// Number of buffered events.
    pub fn len(&self) -> usize {
        // The buffer data (a Vec of plain events) is always consistent,
        // so a poisoned lock is recovered rather than propagated.
        self.shared
            .buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because a panic poisoned the buffer mutex (the
    /// `obs_poisoned` count).
    pub fn poisoned(&self) -> u64 {
        self.shared.poisoned.load(Ordering::Relaxed)
    }

    /// Take every buffered event, leaving the buffer empty. Events
    /// emitted before a poisoning panic survive and are returned.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(
            &mut *self
                .shared
                .buf
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(t: f64, window: u32) -> Event {
        Event::ProfilingClosed { t, window }
    }

    #[test]
    fn disabled_emitter_never_builds() {
        let e = Emitter::disabled();
        assert!(!e.enabled());
        e.emit(|| unreachable!("disabled emitter must not build events"));
    }

    #[test]
    fn buffered_emitter_records_in_order() {
        let (e, buf) = Emitter::buffered();
        assert!(e.enabled());
        e.emit(|| ws(1.0, 0));
        e.emit(|| ws(2.0, 1));
        let events = buf.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], ws(1.0, 0));
        assert_eq!(events[1], ws(2.0, 1));
        assert!(buf.is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let (e, buf) = Emitter::buffered();
        let e2 = e.clone();
        e.emit(|| ws(1.0, 0));
        e2.emit(|| ws(2.0, 1));
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn emission_from_threads_lands_in_one_buffer() {
        let (e, buf) = Emitter::buffered();
        std::thread::scope(|s| {
            for i in 0..4 {
                let e = e.clone();
                s.spawn(move || {
                    for k in 0..100 {
                        e.emit(|| ws(k as f64, i));
                    }
                });
            }
        });
        assert_eq!(buf.len(), 400);
    }

    #[test]
    fn emit_many_appends_in_order() {
        let (e, buf) = Emitter::buffered();
        e.emit(|| ws(0.0, 0));
        e.emit_many(vec![ws(1.0, 1), ws(2.0, 2)]);
        Emitter::disabled().emit_many(vec![ws(9.0, 9)]); // no-op, no panic
        let events = buf.drain();
        assert_eq!(events, vec![ws(0.0, 0), ws(1.0, 1), ws(2.0, 2)]);
    }

    #[test]
    fn poisoned_buffer_degrades_to_counted_drops() {
        let (e, buf) = Emitter::buffered();
        e.emit(|| ws(1.0, 0));
        // Poison the mutex: a thread panics while holding the guard.
        let shared = Arc::clone(e.shared.as_ref().expect("enabled"));
        let _ = std::thread::spawn(move || {
            let _guard = shared.buf.lock().unwrap();
            panic!("simulated worker panic mid-emit");
        })
        .join();
        // Emission after poisoning must not panic; it drops + counts.
        e.emit(|| ws(2.0, 0));
        e.emit_many(vec![ws(3.0, 0), ws(4.0, 0)]);
        assert_eq!(buf.poisoned(), 3);
        // Pre-poison events survive the drain; len/drain recover.
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.drain(), vec![ws(1.0, 0)]);
        assert!(buf.is_empty());
    }
}
