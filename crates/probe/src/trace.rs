//! Span/event tracer with per-thread ring buffers.
//!
//! Tracing is off by default. Every record site first performs one
//! relaxed atomic load; when disabled nothing else happens, so
//! instrumented hot loops pay an unmeasurable cost. When enabled,
//! events carry a nanosecond timestamp relative to the first recorded
//! event, the recording thread's probe-assigned id, and a small list of
//! named `f64` fields.
//!
//! Buffers are rings: once a thread's buffer reaches the configured
//! capacity the oldest events are overwritten (and counted in
//! [`dropped_events`]), so a long run keeps the most recent window.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a trace [`Event`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Enter,
    /// Span closed.
    Exit,
    /// Point event with no duration.
    Instant,
}

impl EventKind {
    /// Stable lowercase name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Instant => "instant",
        }
    }
}

/// Maximum named fields one event carries. Events store their fields
/// inline (see [`FieldList`]) so recording never touches the heap;
/// extra fields beyond this are silently dropped.
pub const MAX_FIELDS: usize = 6;

/// Fixed-capacity inline list of named `f64` fields.
///
/// The record path must not allocate (the overhead contract is one
/// relaxed atomic load per disabled site and a ring-buffer store per
/// enabled one), so events carry their payload in a `[_; MAX_FIELDS]`
/// array instead of a `Vec`.
#[derive(Clone, Copy, Debug)]
pub struct FieldList {
    buf: [(&'static str, f64); MAX_FIELDS],
    len: u8,
}

impl FieldList {
    /// The empty field list (what `span!("name")` records).
    pub const fn empty() -> FieldList {
        FieldList {
            buf: [("", 0.0); MAX_FIELDS],
            len: 0,
        }
    }

    /// Build from a slice, keeping the first [`MAX_FIELDS`] entries.
    #[inline]
    pub fn new(fields: &[(&'static str, f64)]) -> FieldList {
        debug_assert!(
            fields.len() <= MAX_FIELDS,
            "event carries {} fields; MAX_FIELDS is {MAX_FIELDS}",
            fields.len()
        );
        let mut out = FieldList::empty();
        for &f in fields.iter().take(MAX_FIELDS) {
            out.buf[out.len as usize] = f;
            out.len += 1;
        }
        out
    }

    /// The recorded `(name, value)` pairs.
    #[inline]
    pub fn as_slice(&self) -> &[(&'static str, f64)] {
        &self.buf[..self.len as usize]
    }

    /// Iterator over the recorded pairs.
    pub fn iter(&self) -> std::slice::Iter<'_, (&'static str, f64)> {
        self.as_slice().iter()
    }

    /// Value of field `key`, if recorded.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.as_slice()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for FieldList {
    fn default() -> Self {
        FieldList::empty()
    }
}

impl PartialEq for FieldList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[(&'static str, f64)]> for FieldList {
    fn eq(&self, other: &&[(&'static str, f64)]) -> bool {
        self.as_slice() == *other
    }
}

impl<'a> IntoIterator for &'a FieldList {
    type Item = &'a (&'static str, f64);
    type IntoIter = std::slice::Iter<'a, (&'static str, f64)>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One recorded trace event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub kind: EventKind,
    /// Span or event name (static so recording never allocates for it).
    pub name: &'static str,
    /// Nanoseconds since the trace epoch (first use after enable).
    pub t_ns: u64,
    /// Probe-assigned id of the recording thread (0 = first thread seen).
    pub thread: u64,
    /// Named numeric payload, e.g. `[("step", 3.0)]`, stored inline.
    pub fields: FieldList,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(1 << 16);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

#[derive(Default)]
struct ThreadBuf {
    events: Vec<Event>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
}

impl ThreadBuf {
    fn push(&mut self, e: Event, cap: usize) {
        if self.events.len() < cap {
            self.events.push(e);
        } else if cap > 0 {
            self.events[self.head] = e;
            self.head = (self.head + 1) % cap;
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drain(&mut self) -> Vec<Event> {
        let head = self.head;
        self.head = 0;
        let mut v = std::mem::take(&mut self.events);
        v.rotate_left(head);
        v
    }
}

static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: (Arc<Mutex<ThreadBuf>>, u64) = {
        let buf = Arc::new(Mutex::new(ThreadBuf::default()));
        lock_poison_ok(&REGISTRY).push(buf.clone());
        (buf, NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed))
    };
}

/// Lock a mutex, recovering the data if a panicking thread poisoned it
/// (trace buffers stay usable after a worker panic).
fn lock_poison_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Turn tracing on. Events recorded before this call were dropped.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Release);
}

/// Turn tracing off. Already-recorded events stay buffered.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Cheap check used by every instrumentation site.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Cap each thread's ring buffer at `cap` events (default 65536).
pub fn set_capacity(cap: usize) {
    CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

/// Events overwritten because a ring buffer filled up.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Record one event on the current thread (no-op when disabled).
/// Allocation-free: the event (fields included) is stored by value in
/// the thread's ring buffer.
#[inline]
pub fn record(kind: EventKind, name: &'static str, fields: FieldList) {
    if !is_enabled() {
        return;
    }
    let t_ns = now_ns();
    LOCAL.with(|(buf, thread)| {
        let cap = CAPACITY.load(Ordering::Relaxed);
        lock_poison_ok(buf).push(
            Event {
                kind,
                name,
                t_ns,
                thread: *thread,
                fields,
            },
            cap,
        );
    });
}

/// Record an [`EventKind::Instant`] event (no-op when disabled).
#[inline]
pub fn instant(name: &'static str, fields: FieldList) {
    record(EventKind::Instant, name, fields);
}

/// RAII guard emitting an [`EventKind::Exit`] event when dropped.
///
/// Produced by [`span`] / the [`span!`](crate::span) macro. When
/// tracing was disabled at creation the guard is inert, even if
/// tracing is enabled before it drops (spans never half-appear).
#[must_use = "a span guard records its exit when dropped"]
pub struct SpanGuard {
    name: &'static str,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            record(EventKind::Exit, self.name, FieldList::empty());
        }
    }
}

/// Open a span: records an [`EventKind::Enter`] event now and an exit
/// when the returned guard drops. Prefer the [`span!`](crate::span)
/// macro, which skips evaluating `fields` while tracing is disabled.
#[inline]
pub fn span(name: &'static str, fields: FieldList) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { name, armed: false };
    }
    record(EventKind::Enter, name, fields);
    SpanGuard { name, armed: true }
}

/// Drain every thread's buffered events, sorted by timestamp.
pub fn take_events() -> Vec<Event> {
    let mut out = Vec::new();
    let mut registry = lock_poison_ok(&REGISTRY);
    for buf in registry.iter() {
        out.append(&mut lock_poison_ok(buf).drain());
    }
    // Forget buffers whose thread has exited (their events were just taken).
    registry.retain(|buf| Arc::strong_count(buf) > 1);
    drop(registry);
    out.sort_by_key(|e| e.t_ns);
    out
}

/// Discard all buffered events.
pub fn clear() {
    let _ = take_events();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Open a trace span with optional numeric fields.
///
/// ```
/// let _guard = bs_probe::span!("factor_spd");
/// let k = 3usize;
/// let _inner = bs_probe::span!("apply_rep", step = k, cols = 8);
/// ```
///
/// Field values are evaluated only when tracing is enabled, and the
/// field list is a fixed-size inline array ([`FieldList`]) — an enabled
/// trace site performs no heap allocation.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name, $crate::trace::FieldList::empty())
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::trace::span(
            $name,
            if $crate::trace::is_enabled() {
                $crate::trace::FieldList::new(&[
                    $((stringify!($key), ($val) as f64)),+
                ])
            } else {
                $crate::trace::FieldList::empty()
            },
        )
    };
}

/// Record an instant event with optional numeric fields; same shape as
/// [`span!`](crate::span) but with no guard.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::trace::instant($name, $crate::trace::FieldList::empty())
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::trace::instant(
            $name,
            if $crate::trace::is_enabled() {
                $crate::trace::FieldList::new(&[
                    $((stringify!($key), ($val) as f64)),+
                ])
            } else {
                $crate::trace::FieldList::empty()
            },
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _l = crate::test_lock();
        disable();
        clear();
        record(EventKind::Instant, "ghost", FieldList::empty());
        let _g = span("ghost_span", FieldList::empty());
        drop(_g);
        assert!(take_events().is_empty());
    }

    #[test]
    fn span_macro_brackets_events() {
        let _l = crate::test_lock();
        clear();
        enable();
        {
            let _g = crate::span!("outer", step = 2usize);
            crate::event!("inner", flops = 10.0);
        }
        disable();
        let ev = take_events();
        let names: Vec<_> = ev.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            names,
            vec![
                (EventKind::Enter, "outer"),
                (EventKind::Instant, "inner"),
                (EventKind::Exit, "outer"),
            ]
        );
        assert_eq!(ev[0].fields.as_slice(), &[("step", 2.0)]);
        assert_eq!(ev[0].fields.get("step"), Some(2.0));
        assert!(ev[0].t_ns <= ev[1].t_ns && ev[1].t_ns <= ev[2].t_ns);
    }

    #[test]
    fn field_list_truncates_and_compares() {
        let a = FieldList::new(&[("a", 1.0), ("b", 2.0)]);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.get("b"), Some(2.0));
        assert_eq!(a.get("c"), None);
        assert_eq!(a, FieldList::new(&[("a", 1.0), ("b", 2.0)]));
        assert_ne!(a, FieldList::empty());
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn events_from_spawned_threads_are_collected() {
        let _l = crate::test_lock();
        clear();
        enable();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| crate::event!("worker", one = 1));
            }
        });
        disable();
        let ev = take_events();
        let workers = ev.iter().filter(|e| e.name == "worker").count();
        assert_eq!(workers, 3);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let _l = crate::test_lock();
        clear();
        set_capacity(4);
        enable();
        for _ in 0..10 {
            crate::event!("tick");
        }
        disable();
        let ev = take_events();
        set_capacity(1 << 16);
        let ticks = ev.iter().filter(|e| e.name == "tick").count();
        assert_eq!(ticks, 4);
        assert!(dropped_events() >= 6);
        clear();
    }
}
