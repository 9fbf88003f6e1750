//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span has a name, a start, an end and a parent; the spans of one
//! request share the request's id. Spans stay in memory (up to a cap) and
//! are written out when the run ends. Self
//! time — a span's duration minus the part its child spans cover — is
//! accumulated per span name as the spans close, so the totals cover
//! every span even past the cap.
//!
//! Work a layer does *inside* another layer's call, invisible from
//! outside, is credited from the program's own counters with
//! [`Tracer::credit`]: the collector's `total_gc_time` delta across a
//! `ZoneManager::dispatch` or an `eval_to_string` call is moved from the
//! caller's self time to `gc.collect`.

use std::time::Instant;

/// A span name: one boundary between the benchmark and a layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Name {
    /// One request of the closed loop (the benchmark client itself).
    Request,
    /// `ZoneManager::dispatch`.
    ZonesDispatch,
    /// `Interp::eval_to_string`.
    SchemeEval,
    /// Raw-heap allocation and field writes (`cons`, `make_vector`,
    /// `make_record`, `weak_cons`, `vector_set`, `record_set`).
    GcMutator,
    /// `Heap::maybe_collect`, or collector time credited from counters.
    GcCollect,
    /// `Guardian::register`.
    GuardianRegister,
    /// `Guardian::poll` plus reading the handed-back record.
    GuardianPoll,
    /// `SimOs::open_output` and `ExtArena::malloc`.
    RuntimeAcquire,
    /// `SimOs::close` and `ExtArena::free`.
    RuntimeRelease,
}

impl Name {
    /// Every span name, in reporting order.
    pub const ALL: [Name; 9] = [
        Name::Request,
        Name::ZonesDispatch,
        Name::SchemeEval,
        Name::GcMutator,
        Name::GcCollect,
        Name::GuardianRegister,
        Name::GuardianPoll,
        Name::RuntimeAcquire,
        Name::RuntimeRelease,
    ];

    /// The span's name as written to the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::ZonesDispatch => "zones.dispatch",
            Name::SchemeEval => "scheme.eval",
            Name::GcMutator => "gc.mutator",
            Name::GcCollect => "gc.collect",
            Name::GuardianRegister => "guardian.register",
            Name::GuardianPoll => "guardian.poll",
            Name::RuntimeAcquire => "runtime.acquire",
            Name::RuntimeRelease => "runtime.release",
        }
    }

    /// The layer (crate) the span's time is attributed to.
    pub fn layer(self) -> Layer {
        match self {
            Name::Request => Layer::Client,
            Name::ZonesDispatch => Layer::Zones,
            Name::SchemeEval => Layer::Scheme,
            Name::GcMutator | Name::GcCollect => Layer::Gc,
            Name::GuardianRegister | Name::GuardianPoll => Layer::Guardian,
            Name::RuntimeAcquire | Name::RuntimeRelease => Layer::Runtime,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A layer that self time is attributed to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code between calls (the unattributed part).
    Client,
    /// `crates/zones`.
    Zones,
    /// `crates/scheme`.
    Scheme,
    /// `crates/gc`, allocation and collection.
    Gc,
    /// `crates/gc`, the guardian interface.
    Guardian,
    /// `crates/runtime`.
    Runtime,
}

impl Layer {
    /// The layers that are part of the program, in reporting order.
    pub const PROGRAM: [Layer; 5] = [
        Layer::Zones,
        Layer::Scheme,
        Layer::Gc,
        Layer::Guardian,
        Layer::Runtime,
    ];
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    /// Span id, unique in the run (1-based; 0 means "no parent").
    pub id: u32,
    /// The enclosing span's id, or 0.
    pub parent: u32,
    /// The request the span belongs to.
    pub request: u32,
    /// What was called.
    pub name: Name,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

struct Open {
    id: u32,
    name: Name,
    start_ns: u64,
    child_ns: u64,
}

/// Span recorder; a disabled tracer makes every call a single branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    request: u32,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    keep: usize,
    total_ns: [u64; 9],
    self_ns: [u64; 9],
    count: [u64; 9],
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, 0)
    }

    /// A recording tracer that keeps the first `keep` spans in memory.
    pub fn on(keep: usize) -> Tracer {
        Tracer::new(true, keep)
    }

    fn new(on: bool, keep: usize) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            request: 0,
            next_id: 0,
            stack: Vec::with_capacity(8),
            spans: Vec::with_capacity(keep.min(1 << 20)),
            keep,
            total_ns: [0; 9],
            self_ns: [0; 9],
            count: [0; 9],
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; a [`Name::Request`] span starts request `request`.
    #[inline]
    pub fn enter(&mut self, name: Name, request: u32) {
        if !self.on {
            return;
        }
        if name == Name::Request {
            self.request = request;
        }
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id: self.next_id,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        let i = open.name.index();
        self.total_ns[i] += dur;
        self.self_ns[i] += dur.saturating_sub(open.child_ns);
        self.count[i] += 1;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        if self.spans.len() < self.keep {
            self.spans.push(Span {
                id: open.id,
                parent,
                request: self.request,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Credits `ns` of `name` work that happened inside the innermost
    /// open span, as measured by the program's own counters: it counts
    /// as child time of the open span and as total and self time of
    /// `name`. No span is recorded for it.
    pub fn credit(&mut self, name: Name, ns: u64) {
        if !self.on {
            return;
        }
        let i = name.index();
        self.total_ns[i] += ns;
        self.self_ns[i] += ns;
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += ns;
        }
    }

    /// Total seconds inside spans named `name` (credits included).
    pub fn total_s(&self, name: Name) -> f64 {
        self.total_ns[name.index()] as f64 * 1e-9
    }

    /// Self seconds of every span attributed to `layer`.
    pub fn layer_self_s(&self, layer: Layer) -> f64 {
        Name::ALL
            .iter()
            .filter(|n| n.layer() == layer)
            .map(|n| self.self_ns[n.index()] as f64 * 1e-9)
            .sum()
    }

    /// Spans closed (recorded or not).
    pub fn spans_closed(&self) -> u64 {
        self.count.iter().sum()
    }

    /// The spans kept in memory.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_credits() {
        let mut t = Tracer::on(16);
        t.enter(Name::Request, 7);
        t.enter(Name::ZonesDispatch, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.credit(Name::GcCollect, 1_000_000);
        t.exit();
        t.exit();
        assert_eq!(t.spans().len(), 2);
        let dispatch = t.spans()[0];
        let request = t.spans()[1];
        assert_eq!(dispatch.parent, request.id);
        assert_eq!(dispatch.request, 7);
        assert!(t.total_s(Name::ZonesDispatch) >= 0.002);
        let zones_self = t.layer_self_s(Layer::Zones);
        assert!((t.total_s(Name::ZonesDispatch) - zones_self - 0.001).abs() < 1e-9);
        assert!((t.layer_self_s(Layer::Gc) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.enter(Name::Request, 1);
        t.credit(Name::GcCollect, 5);
        t.exit();
        assert_eq!(t.spans_closed(), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_past_the_cap_are_counted_not_kept() {
        let mut t = Tracer::on(1);
        for r in 0..3 {
            t.enter(Name::Request, r);
            t.exit();
        }
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans_closed(), 3);
    }
}
