//! Spans recorded from the benchmark's own files, and the recorder that
//! turns the system's event stream into spans.
//!
//! A span is `(name, start, end, parent, repetition)`. The driver opens
//! one around every call it makes into the system — build, ingest,
//! admit, serve, release, rejoin, fsck, export. Inside a `serve` call
//! the only visible boundaries are the events the system emits, so
//! [`StampRecorder`] wall-clock-stamps the round-structure events by
//! `Event::kind()` and [`Tracer::absorb_rounds`] turns the gaps between
//! stamps into child spans of that `serve`. Spans stay in memory until
//! the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant as Wall;

use strandfs_obs::{Event, Recorder, RingRecorder, WindowedMonitor};

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub rep: u32,
    /// Operations the span covers (blocks, events, probes); 1 by default.
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store. A disabled tracer (the untraced run)
/// records nothing and reads no clock.
pub struct Tracer {
    enabled: bool,
    t0: Wall,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Wall::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// The clock origin stamps are relative to.
    pub fn origin(&self) -> Wall {
        self.t0
    }

    /// Label the spans that follow with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
            count: 1,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        self.end_counted(id, 1);
    }

    /// Close `id`, recording that it covered `count` operations.
    pub fn end_counted(&mut self, id: SpanId, count: u64) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let now = self.now_ns();
        let s = &mut self.spans[id.0 as usize];
        s.end_ns = now;
        s.count = count;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Turn the stamps one `serve` call produced into child spans of
    /// `serve`:
    ///
    /// * `order` — from the previous round's end (or the call's entry)
    ///   to `round_start`: stream bookkeeping and the service-order sort;
    /// * `round` — `round_start` → `round_end`, with children
    ///   `first_turn` (→ the round's first `stream_service`) and `scrub`
    ///   (first → last `scrub` stamp of the round, `count` probes);
    /// * `idle_round` — `round_idle` → the next round boundary;
    /// * `hedge`, `recover`, `repair` — zero-length marks.
    pub fn absorb_rounds(&mut self, serve: SpanId, stamps: &[Stamp]) {
        if !self.enabled {
            return;
        }
        let serve_id = serve.0;
        let (serve_start, serve_end, rep) = {
            let s = &self.spans[serve_id as usize];
            (s.start_ns, s.end_ns, s.rep)
        };
        let push = |spans: &mut Vec<Span>, name, start_ns, end_ns, parent, count| -> u32 {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                rep,
                count,
            });
            spans.len() as u32 - 1
        };
        // The boundary the next `order` / `idle_round` gap starts from.
        let mut cursor = serve_start;
        let mut idle_since: Option<u64> = None;
        let mut round: Option<(u64, Option<u64>)> = None; // (start, first service)
        let mut scrub: Option<(u64, u64, u64)> = None; // (first, last, n)
        let spans = &mut self.spans;
        for st in stamps {
            let t = st.ns;
            if matches!(st.kind, StampKind::RoundStart | StampKind::RoundIdle) {
                if let Some(since) = idle_since.take() {
                    let id = push(spans, "idle_round", since, t, serve_id, 1);
                    if let Some((a, b, n)) = scrub.take() {
                        push(spans, "scrub", a, b, id, n);
                    }
                    cursor = t;
                }
            }
            match st.kind {
                StampKind::RoundStart => {
                    push(spans, "order", cursor, t, serve_id, 1);
                    round = Some((t, None));
                }
                StampKind::FirstService => {
                    if let Some((_, first)) = round.as_mut() {
                        *first = Some(t);
                    }
                }
                StampKind::RoundEnd => {
                    if let Some((start, first)) = round.take() {
                        let id = push(spans, "round", start, t, serve_id, 1);
                        if let Some(f) = first {
                            push(spans, "first_turn", start, f, id, 1);
                        }
                        if let Some((a, b, n)) = scrub.take() {
                            push(spans, "scrub", a, b, id, n);
                        }
                    }
                    cursor = t;
                }
                StampKind::RoundIdle => idle_since = Some(t),
                StampKind::Scrub => {
                    scrub = Some(match scrub {
                        None => (t, t, 1),
                        Some((a, _, n)) => (a, t, n + 1),
                    });
                }
                StampKind::Hedge => {
                    push(spans, "hedge", t, t, serve_id, 1);
                }
                StampKind::Recover => {
                    push(spans, "recover", t, t, serve_id, 1);
                }
                StampKind::Repair => {
                    push(spans, "repair", t, t, serve_id, 1);
                }
            }
        }
        if let Some(since) = idle_since {
            let id = push(spans, "idle_round", since, serve_end, serve_id, 1);
            if let Some((a, b, n)) = scrub {
                push(spans, "scrub", a, b, id, n);
            }
        }
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of the spans that have a child called `child`.
    pub fn total_with_child(&self, child: &str) -> f64 {
        let mut is_parent = vec![false; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.name == child) {
            if let Some(p) = s.parent {
                is_parent[p as usize] = true;
            }
        }
        self.spans
            .iter()
            .zip(is_parent)
            .filter(|(_, p)| *p)
            .map(|(s, _)| s.dur_ns() as f64)
            .sum()
    }

    /// Per span name: `(spans, total ns, self ns)`, where self time is a
    /// span's duration minus the part of it its child spans cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            match out.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur_ns();
                    r.3 += own;
                }
                None => out.push((s.name, 1, s.dur_ns(), own)),
            }
        }
        out
    }

    /// The spans as a JSON array (microsecond timestamps).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"rep\":{},\"count\":{}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.rep,
                s.count
            );
        }
        out.push_str("\n]");
        out
    }
}

/// The event kinds that mark a boundary inside a `serve` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StampKind {
    RoundStart,
    /// The first `stream_service` after a `round_start`.
    FirstService,
    RoundEnd,
    RoundIdle,
    Scrub,
    Hedge,
    Recover,
    Repair,
}

/// One wall-clock stamp, in nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    pub kind: StampKind,
    pub ns: u64,
}

/// The harness-owned recorder. It always counts events and tracks the
/// virtual instant of the last anchored one (the run's makespan); when
/// stamping it also wall-clock-stamps the boundary kinds, keeps the raw
/// events in a bounded ring for the export probes, and forwards every
/// event to the workload's monitor where it has one.
pub struct StampRecorder {
    origin: Wall,
    awaiting_first_service: bool,
    pub stamps: Vec<Stamp>,
    pub events: u64,
    /// Latest `Event::at()` seen, in virtual nanoseconds.
    pub virt_end_ns: u64,
    /// The last raw events; present exactly when the recorder stamps.
    pub ring: Option<RingRecorder>,
    forward: Option<Rc<RefCell<WindowedMonitor>>>,
}

impl StampRecorder {
    /// A recorder that only counts events and tracks the makespan.
    pub fn counting(origin: Wall) -> StampRecorder {
        StampRecorder {
            origin,
            awaiting_first_service: false,
            stamps: Vec::new(),
            events: 0,
            virt_end_ns: 0,
            ring: None,
            forward: None,
        }
    }

    /// A recorder that also stamps round boundaries and keeps the last
    /// `ring_cap` raw events.
    pub fn stamping(origin: Wall, ring_cap: usize) -> StampRecorder {
        StampRecorder {
            ring: Some(RingRecorder::new(ring_cap)),
            ..StampRecorder::counting(origin)
        }
    }

    /// Forward every event to `monitor` after recording it.
    pub fn forward_to(&mut self, monitor: Option<Rc<RefCell<WindowedMonitor>>>) {
        self.forward = monitor;
    }

    /// Forget the previous repetition's stamps and counts (the ring and
    /// its drop counter carry on).
    pub fn reset(&mut self) {
        self.stamps.clear();
        self.events = 0;
        self.virt_end_ns = 0;
        self.awaiting_first_service = false;
    }
}

impl Recorder for StampRecorder {
    fn record(&mut self, event: Event) {
        self.events += 1;
        if let Some(at) = event.at() {
            self.virt_end_ns = self.virt_end_ns.max(at.as_nanos());
        }
        if self.ring.is_some() {
            let kind = match event.kind() {
                "round_start" => {
                    self.awaiting_first_service = true;
                    Some(StampKind::RoundStart)
                }
                "stream_service" if self.awaiting_first_service => {
                    self.awaiting_first_service = false;
                    Some(StampKind::FirstService)
                }
                "round_end" => Some(StampKind::RoundEnd),
                "round_idle" => Some(StampKind::RoundIdle),
                "scrub" => Some(StampKind::Scrub),
                "hedge" => Some(StampKind::Hedge),
                "recover" => Some(StampKind::Recover),
                "repair" => Some(StampKind::Repair),
                _ => None,
            };
            if let Some(kind) = kind {
                self.stamps.push(Stamp {
                    kind,
                    ns: self.origin.elapsed().as_nanos() as u64,
                });
            }
        }
        if let Some(ring) = &mut self.ring {
            ring.record(event);
        }
        if let Some(monitor) = &self.forward {
            monitor.borrow_mut().record(event);
        }
    }
}
