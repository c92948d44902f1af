//! Event consumers.

use std::fmt;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::LoopEvent;
use crate::json::ToJson;
use crate::render::render_event;

/// A consumer of [`LoopEvent`]s.
///
/// The driver emits every loop phase through one `&mut dyn EventSink`;
/// sinks must therefore be cheap for events they ignore. Emission order is
/// the loop's execution order and is deterministic for a deterministic
/// workload (only the `nanos` payloads vary between runs).
pub trait EventSink {
    /// Handles one event.
    fn emit(&mut self, event: &LoopEvent);
}

/// Discards every event. The sink behind the plain
/// `verify_integration` entry point.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _event: &LoopEvent) {}
}

/// Collects events in memory, in emission order.
#[derive(Debug, Default, Clone)]
pub struct Collector {
    /// The events received so far.
    pub events: Vec<LoopEvent>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Events belonging to iteration `i` (see [`LoopEvent::iteration`]).
    pub fn iteration(&self, i: usize) -> Vec<&LoopEvent> {
        self.events
            .iter()
            .filter(|e| e.iteration() == Some(i))
            .collect()
    }

    /// The variant tags of all events, in order — a timing-free
    /// fingerprint of the run's shape.
    pub fn kinds(&self) -> Vec<&'static str> {
        self.events.iter().map(|e| e.kind()).collect()
    }
}

impl EventSink for Collector {
    fn emit(&mut self, event: &LoopEvent) {
        self.events.push(event.clone());
    }
}

/// Writes one JSON object per event, newline-delimited (JSON Lines), to
/// any [`io::Write`]. Each line parses back with [`crate::json::parse`]
/// and carries the variant tag under the `"event"` key.
///
/// Dropping the writer flushes it (best-effort); use
/// [`JsonWriter::finish`] to observe write errors and recover the
/// underlying writer.
#[derive(Debug)]
pub struct JsonWriter<W: io::Write> {
    /// `None` only after `finish` moved the writer out.
    writer: Option<W>,
    error: Option<io::Error>,
}

impl<W: io::Write> JsonWriter<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonWriter {
            writer: Some(writer),
            error: None,
        }
    }

    /// Flushes the underlying writer without consuming the sink, surfacing
    /// the first error recorded while emitting (subsequent calls keep
    /// returning it). This is the checkpoint operation for long-running
    /// producers — a daemon can force buffered event lines to disk between
    /// jobs and keep emitting into the same sink afterwards.
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = &self.error {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        match self.writer.as_mut() {
            Some(writer) => writer.flush(),
            None => Ok(()),
        }
    }

    /// Flushes and returns the underlying writer, or the first write error
    /// encountered while emitting.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut writer = self.writer.take().expect("writer present until finish");
        writer.flush()?;
        Ok(writer)
    }
}

impl<W: io::Write> EventSink for JsonWriter<W> {
    fn emit(&mut self, event: &LoopEvent) {
        if self.error.is_some() {
            return;
        }
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        let mut line = event.to_json().encode();
        line.push('\n');
        if let Err(e) = writer.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }
}

impl<W: io::Write> Drop for JsonWriter<W> {
    fn drop(&mut self) {
        // Best-effort: a writer dropped without `finish` (e.g. on an early
        // return or a panicking worker) must not silently lose buffered
        // lines.
        if let Some(writer) = self.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

/// Renders events human-readably (see [`render_event`]) to any
/// [`io::Write`]; write errors are silently dropped, matching the
/// best-effort nature of progress output.
#[derive(Debug)]
pub struct Renderer<W: io::Write> {
    writer: W,
}

impl<W: io::Write> Renderer<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        Renderer { writer }
    }

    /// Returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: io::Write> EventSink for Renderer<W> {
    fn emit(&mut self, event: &LoopEvent) {
        let _ = writeln!(self.writer, "{}", render_event(event));
    }
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn emit(&mut self, event: &LoopEvent) {
        (**self).emit(event);
    }
}

/// A cloneable, thread-safe handle fanning many producers into one shared
/// sink (`Arc<Mutex<dyn EventSink + Send>>`).
///
/// Daemon workers each run their own `IntegrationSession` (`muml_core`) with its own
/// `&mut dyn EventSink`; `SharedSink` lets all of them feed one collector
/// without any worker owning it.
///
/// Events from concurrent sessions interleave at event granularity (the
/// mutex is held per `emit`); use [`LoopEvent::iteration`] together with a
/// per-job sink if per-session ordering must be reconstructed.
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use muml_obs::{Collector, EventSink, LoopEvent, SharedSink};
///
/// let collector = Arc::new(Mutex::new(Collector::new()));
/// let mut a = SharedSink::from_arc(collector.clone());
/// let mut b = a.clone();
/// a.emit(&LoopEvent::IterationStarted { iteration: 0 });
/// b.emit(&LoopEvent::IterationStarted { iteration: 1 });
/// assert_eq!(collector.lock().unwrap().events.len(), 2);
/// ```
#[derive(Clone)]
pub struct SharedSink {
    inner: Arc<Mutex<dyn EventSink + Send>>,
}

impl SharedSink {
    /// Wraps a sink for shared access.
    pub fn new(sink: impl EventSink + Send + 'static) -> Self {
        SharedSink {
            inner: Arc::new(Mutex::new(sink)),
        }
    }

    /// Adapts an existing shared sink — the usual way to keep a typed
    /// handle (e.g. `Arc<Mutex<Collector>>`) on the collecting side while
    /// handing type-erased clones to producers.
    pub fn from_arc(inner: Arc<Mutex<dyn EventSink + Send>>) -> Self {
        SharedSink { inner }
    }

    /// Runs `f` with the locked sink (e.g. to flush or inspect it).
    pub fn with<R>(&self, f: impl FnOnce(&mut (dyn EventSink + Send)) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut *guard)
    }
}

impl fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedSink").finish_non_exhaustive()
    }
}

impl EventSink for SharedSink {
    fn emit(&mut self, event: &LoopEvent) {
        // A sink that panicked mid-emit on another thread poisons the lock;
        // telemetry keeps flowing regardless.
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RunOutcome;
    use crate::json::{parse, Json};

    fn sample_events() -> Vec<LoopEvent> {
        vec![
            LoopEvent::RunStarted {
                components: vec!["front".into()],
                properties: 1,
            },
            LoopEvent::InitialAbstraction {
                component: "front".into(),
                states: 1,
                transitions: 0,
                refusals: 0,
            },
            LoopEvent::IterationStarted { iteration: 0 },
            LoopEvent::Composed {
                iteration: 0,
                product_states: 12,
                transitions: 30,
                expanded_labels: 64,
                family_guards: 2,
                nanos: 1234,
            },
            LoopEvent::Recomposed {
                iteration: 0,
                mode: "incremental".into(),
                dirty_states: 3,
                reused_states: 9,
                spliced_transitions: 7,
            },
            LoopEvent::ModelChecked {
                iteration: 0,
                holds: false,
                violated: Some("¬δ".into()),
                fixpoint_iterations: 9,
                labeled_states: 120,
                words_touched: 48,
                worklist_pops: 17,
                peak_resident_sets: 6,
                nanos: 999,
            },
            LoopEvent::CounterexampleExtracted {
                iteration: 0,
                property: "¬δ".into(),
                length: 4,
                deadlock: true,
            },
            LoopEvent::ReplayExecuted {
                iteration: 0,
                component: "front".into(),
                steps: 4,
                driven_steps: 12,
                divergence: Some(2),
                nanos: 555,
            },
            LoopEvent::LearnStep {
                iteration: 0,
                component: "front".into(),
                delta_states: 2,
                delta_transitions: 3,
                delta_refusals: 1,
            },
            LoopEvent::FrontierProbed {
                iteration: 0,
                component: "front".into(),
                probes: 5,
                learned: true,
                nanos: 321,
            },
            LoopEvent::RunFinished {
                iterations: 1,
                outcome: RunOutcome::Proven,
                nanos: 4321,
            },
        ]
    }

    #[test]
    fn json_writer_round_trips_every_variant() {
        let mut writer = JsonWriter::new(Vec::new());
        let events = sample_events();
        for event in &events {
            writer.emit(event);
        }
        let bytes = writer.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, event) in lines.iter().zip(&events) {
            let parsed = parse(line).unwrap();
            // The line parses back to exactly the object the event encodes.
            assert_eq!(parsed, event.to_json());
            assert_eq!(
                parsed.get("event").and_then(Json::as_str),
                Some(event.kind())
            );
        }
    }

    #[test]
    fn collector_indexes_by_iteration() {
        let mut collector = Collector::new();
        for event in &sample_events() {
            collector.emit(event);
        }
        assert_eq!(collector.events.len(), 11);
        assert_eq!(collector.iteration(0).len(), 8);
        assert_eq!(collector.kinds()[0], "run_started");
        assert_eq!(*collector.kinds().last().unwrap(), "run_finished");
    }

    #[test]
    fn shared_sink_fans_concurrent_producers_into_one_collector() {
        let collector = Arc::new(Mutex::new(Collector::new()));
        let shared = SharedSink::from_arc(collector.clone());
        let events = sample_events();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut sink = shared.clone();
                let events = &events;
                scope.spawn(move || {
                    for event in events {
                        sink.emit(event);
                    }
                });
            }
        });
        assert_eq!(collector.lock().unwrap().events.len(), 4 * events.len());
        // `with` reaches the sink behind the handle as well.
        shared.with(|sink| sink.emit(&events[0]));
        assert_eq!(collector.lock().unwrap().events.len(), 4 * events.len() + 1);
    }

    #[test]
    fn json_writer_flushes_explicitly_between_events() {
        use std::io::{BufWriter, Write};
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let out = Shared::default();
        let mut writer = JsonWriter::new(BufWriter::with_capacity(1 << 16, out.clone()));
        writer.emit(&LoopEvent::IterationStarted { iteration: 0 });
        // Buffered: nothing reached the byte sink yet.
        assert!(out.0.lock().unwrap().is_empty());
        writer.flush().unwrap();
        assert_eq!(
            String::from_utf8(out.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .count(),
            1
        );
        // The sink survives the checkpoint and keeps emitting.
        writer.emit(&LoopEvent::IterationStarted { iteration: 1 });
        writer.flush().unwrap();
        assert_eq!(
            String::from_utf8(out.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .count(),
            2
        );
    }

    #[test]
    fn json_writer_flushes_on_drop() {
        use std::io::{BufWriter, Write};
        // A BufWriter over a shared byte sink: without the Drop flush the
        // buffered lines would still sit in the BufWriter when it dies.
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let out = Shared::default();
        {
            let mut writer = JsonWriter::new(BufWriter::new(out.clone()));
            for event in &sample_events() {
                writer.emit(event);
            }
            // dropped without `finish`
        }
        let bytes = out.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), sample_events().len());
    }
}
