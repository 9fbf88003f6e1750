//! `guardian_pool`: a raw heap on the default configuration holding a
//! large rooted table of guarded resource records in the old
//! generation.
//!
//! Each record owns a `SimOs` fd and an `ExtArena` block, carries a
//! weak-pair back-reference to itself and a payload vector, and is
//! registered with one guardian. One request is a fixed batch of
//! operations: inserts that overwrite a table slot (dropping the old
//! record: write barrier, remembered set, guardian work) beside
//! read-only lookups that leave short-lived garbage and a weak cache
//! entry behind. Every operation ends with `maybe_collect`, then drains
//! the guardian and closes the fd and frees the block of each record it
//! hands back.
//!
//! The oracle is a shadow of the table and of the dropped ids: every
//! record handed back must have been dropped and is handed back once,
//! with its weak back-reference intact (the paper's ordering: the weak
//! pass runs after the guardian pass); lookups must find the id the
//! shadow expects. After a final full collection and drain, everything
//! dropped has been handed back, `Heap::verify` passes, and exactly the
//! table's fds and blocks are live.

use crate::trace::{Name, Tracer};
use crate::{Epoch, Failures, Opts, Rng, Scale, Sheet};
use guardians_gc::{GcConfig, Guardian, Heap, Rooted, SegmentPool, Value};
use guardians_runtime::{BlockId, ExtArena, Fd, SimOs};
use guardians_segments::SEGMENT_BYTES;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Workload size.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Records in the table.
    pub table: usize,
    /// Words in each record's payload vector.
    pub payload_words: usize,
    /// Operations per request.
    pub batch: usize,
    /// Requests per epoch.
    pub requests: usize,
    /// Percent of operations that insert (the rest look up).
    pub insert_pct: u64,
    /// Slots `0..hot` take `hot_pct` percent of the inserts, so their
    /// records die young; the rest of the table ages into the oldest
    /// generation.
    pub hot: usize,
    /// Percent of inserts aimed at the hot slots.
    pub hot_pct: u64,
    /// Words of the vector each lookup leaves in the recent ring.
    pub recent_words: usize,
    /// Slots of the rooted recent ring: a lookup's vector lives until
    /// this many later lookups have replaced it.
    pub recent: usize,
    /// Pairs of the short-lived list each lookup allocates and caches
    /// weakly.
    pub garbage_pairs: usize,
    /// Slots of the rooted weak cache.
    pub ring: usize,
}

impl Sizes {
    /// The size for `scale`.
    pub fn for_scale(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                table: 2048,
                payload_words: 64,
                batch: 32,
                requests: 4000,
                insert_pct: 10,
                hot: 64,
                hot_pct: 50,
                recent_words: 128,
                recent: 8192,
                garbage_pairs: 8,
                ring: 256,
            },
            Scale::Small => Sizes {
                table: 1024,
                payload_words: 8,
                batch: 16,
                requests: 400,
                insert_pct: 10,
                hot: 16,
                hot_pct: 50,
                recent_words: 16,
                recent: 256,
                garbage_pairs: 8,
                ring: 64,
            },
        }
    }

    /// The sizes as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"table\": {}, \"payload_words\": {}, \"batch\": {}, \"requests\": {}, \
             \"insert_pct\": {}, \"hot\": {}, \"hot_pct\": {}, \"recent_words\": {}, \"recent\": {}, \"garbage_pairs\": {}, \
             \"ring\": {}}}",
            self.table,
            self.payload_words,
            self.batch,
            self.requests,
            self.insert_pct,
            self.hot,
            self.hot_pct,
            self.recent_words,
            self.recent,
            self.garbage_pairs,
            self.ring
        )
    }
}

/// Field indices of a resource record.
const F_ID: usize = 0;
const F_FD: usize = 1;
const F_BLOCK: usize = 2;
const F_BACK: usize = 3;
const F_PAYLOAD: usize = 4;

/// One scheduled operation: a table slot, and whether to insert there.
#[derive(Copy, Clone)]
struct Op {
    slot: u32,
    insert: bool,
}

/// What one request observed, checked after its timer stops.
#[derive(Default)]
struct Seen {
    /// `(slot, id read, id the shadow expects, record consistent)` per
    /// lookup.
    lookups: Vec<(u32, i64, i64, bool)>,
    /// `(id, back-reference intact, fd closed and block freed)` per
    /// record handed back.
    returned: Vec<(i64, bool, bool)>,
    /// Ids dropped by inserts.
    dropped: Vec<i64>,
    /// Pause of each collection in the request stream (ns).
    pauses_ns: Vec<u64>,
    /// Fd opens the OS refused.
    open_errors: u64,
}

impl Seen {
    /// Forgets the previous request's observations (pauses accumulate).
    fn next_request(&mut self) {
        self.lookups.clear();
        self.returned.clear();
        self.dropped.clear();
        self.open_errors = 0;
    }
}

struct World {
    sizes: Sizes,
    pool: Arc<SegmentPool>,
    heap: Heap,
    os: SimOs,
    arena: ExtArena,
    guardian: Guardian,
    tag: Rooted,
    table: Rooted,
    ring: Rooted,
    ring_pos: usize,
    recent: Rooted,
    recent_pos: usize,
    paths: Vec<String>,
    /// Shadow of the table: the id each slot holds.
    ids: Vec<i64>,
    next_id: i64,
    schedule: Vec<Op>,
    skip_close: bool,
}

impl World {
    fn new(seed: u64, sizes: Sizes, skip_close: bool) -> World {
        let pool = SegmentPool::unbounded();
        let mut heap = Heap::with_pool(GcConfig::default(), Arc::clone(&pool), None);
        let guardian = heap.make_guardian();
        let tag = {
            let t = heap.make_symbol("resource");
            heap.root(t)
        };
        let table = {
            let v = heap.make_vector(sizes.table, Value::FALSE);
            heap.root(v)
        };
        let ring = {
            let v = heap.make_vector(sizes.ring, Value::FALSE);
            heap.root(v)
        };
        let recent = {
            let v = heap.make_vector(sizes.recent, Value::FALSE);
            heap.root(v)
        };
        let mut rng = Rng::new(seed, 3);
        // Exactly `insert_pct`% of the operations insert and `hot_pct`% of
        // those hit the hot slots, in seeded order, so seeds differ in
        // order and slots but not in the mix.
        let ops = sizes.requests * sizes.batch;
        let inserts = ops * sizes.insert_pct as usize / 100;
        let hot = inserts * sizes.hot_pct as usize / 100;
        let mut kinds: Vec<u8> = (0..ops)
            .map(|i| u8::from(i < inserts) + u8::from(i < hot))
            .collect();
        rng.shuffle(&mut kinds);
        let schedule = kinds
            .iter()
            .map(|&k| {
                let slots = if k == 2 { sizes.hot } else { sizes.table };
                Op {
                    slot: rng.below(slots as u64) as u32,
                    insert: k > 0,
                }
            })
            .collect();
        let mut w = World {
            paths: (0..sizes.table).map(|s| format!("res/{s}")).collect(),
            ids: vec![-1; sizes.table],
            os: SimOs::with_fd_limit(usize::MAX),
            arena: ExtArena::new(),
            pool,
            heap,
            guardian,
            tag,
            table,
            ring,
            ring_pos: 0,
            recent,
            recent_pos: 0,
            next_id: 0,
            schedule,
            skip_close,
            sizes,
        };
        let mut off = Tracer::off();
        let mut seen = Seen::default();
        for slot in 0..w.sizes.table {
            w.insert(slot, &mut off, 0, &mut seen);
        }
        // Tenure the table, its records and their guardian entries into
        // the oldest generation.
        let oldest = w.heap.config().max_generation();
        w.heap.collect(oldest);
        w
    }

    fn insert(&mut self, slot: usize, tr: &mut Tracer, req: u32, seen: &mut Seen) {
        tr.enter(Name::RuntimeAcquire, req);
        let fd = self.os.open_output(&self.paths[slot]);
        let block = self.arena.malloc(64 + (slot % 8) * 16);
        tr.exit();
        let Ok(fd) = fd else {
            seen.open_errors += 1;
            let _ = self.arena.free(block);
            return;
        };
        let id = self.next_id;
        self.next_id += 1;
        tr.enter(Name::GcMutator, req);
        let h = &mut self.heap;
        let payload = h.make_vector(self.sizes.payload_words, Value::fixnum(id));
        let rec = h.make_record(
            self.tag.get(),
            &[
                Value::fixnum(id),
                Value::fixnum(i64::from(fd.0)),
                Value::fixnum(block.0 as i64),
                Value::FALSE,
                payload,
            ],
        );
        let back = h.weak_cons(rec, Value::fixnum(slot as i64));
        h.record_set(rec, F_BACK, back);
        h.vector_set(self.table.get(), slot, rec);
        tr.exit();
        tr.enter(Name::GuardianRegister, req);
        self.guardian.register(h, rec);
        tr.exit();
        let old = std::mem::replace(&mut self.ids[slot], id);
        if old >= 0 {
            seen.dropped.push(old);
        }
    }

    fn lookup(&mut self, slot: usize, tr: &mut Tracer, req: u32, seen: &mut Seen) {
        tr.enter(Name::GcMutator, req);
        let h = &mut self.heap;
        let rec = h.vector_ref(self.table.get(), slot);
        let id = h.record_ref(rec, F_ID).as_fixnum();
        let back = h.record_ref(rec, F_BACK);
        let payload = h.record_ref(rec, F_PAYLOAD);
        let ok = h.car(back) == rec
            && h.cdr(back) == Value::fixnum(slot as i64)
            && h.vector_ref(payload, self.sizes.payload_words - 1) == Value::fixnum(id);
        let kept = h.make_vector(self.sizes.recent_words, Value::fixnum(id));
        h.vector_set(self.recent.get(), self.recent_pos, kept);
        let mut list = Value::NIL;
        for i in 0..self.sizes.garbage_pairs {
            list = h.cons(Value::fixnum(i as i64), list);
        }
        let cached = h.weak_cons(list, Value::fixnum(id));
        h.vector_set(self.ring.get(), self.ring_pos, cached);
        tr.exit();
        self.ring_pos = (self.ring_pos + 1) % self.sizes.ring;
        self.recent_pos = (self.recent_pos + 1) % self.sizes.recent;
        seen.lookups.push((slot as u32, id, self.ids[slot], ok));
    }

    /// The safe point ending every operation: a policy collection, then
    /// the guardian drain with each returned record's resources released.
    fn safe_point(&mut self, tr: &mut Tracer, req: u32, seen: &mut Seen) {
        tr.enter(Name::GcCollect, req);
        let pause = self.heap.maybe_collect().map(|r| r.duration);
        tr.exit();
        if let Some(d) = pause {
            seen.pauses_ns.push(d.as_nanos() as u64);
        }
        self.drain(tr, req, seen);
    }

    fn drain(&mut self, tr: &mut Tracer, req: u32, seen: &mut Seen) {
        loop {
            tr.enter(Name::GuardianPoll, req);
            let got = self.guardian.poll(&mut self.heap).map(|rec| {
                let h = &self.heap;
                let back = h.record_ref(rec, F_BACK);
                (
                    h.record_ref(rec, F_ID).as_fixnum(),
                    h.record_ref(rec, F_FD).as_fixnum(),
                    h.record_ref(rec, F_BLOCK).as_fixnum(),
                    h.car(back) == rec,
                )
            });
            tr.exit();
            let Some((id, fd, block, back_ok)) = got else {
                break;
            };
            let skip = std::mem::take(&mut self.skip_close);
            tr.enter(Name::RuntimeRelease, req);
            let closed = skip || self.os.close(Fd(fd as u32)).is_ok();
            let freed = self.arena.free(BlockId(block as u64)).is_ok();
            tr.exit();
            seen.returned.push((id, back_ok, closed && freed));
        }
    }

    fn open_fds(&self) -> u64 {
        let s = self.os.stats();
        s.opens - s.closes
    }
}

/// Shadow bookkeeping across requests.
#[derive(Default)]
struct Shadow {
    /// Dropped ids not yet handed back.
    pending: HashSet<i64>,
    dropped: u64,
    returned: u64,
}

impl Shadow {
    /// Checks one request's observations; returns the first problem.
    fn check(&mut self, seen: &Seen) -> Option<String> {
        let mut problem = None;
        let mut note = |what: String| {
            problem.get_or_insert(what);
        };
        for &id in &seen.dropped {
            self.pending.insert(id);
            self.dropped += 1;
        }
        for &(slot, id, expected, consistent) in &seen.lookups {
            if id != expected || !consistent {
                note(format!(
                    "lookup of slot {slot} read id {id} (expected {expected}), consistent {consistent}"
                ));
            }
        }
        for &(id, back_ok, released) in &seen.returned {
            self.returned += 1;
            if !self.pending.remove(&id) {
                note(format!(
                    "guardian handed back id {id}, which was not dropped or came back twice"
                ));
            }
            if !back_ok {
                note(format!("weak back-reference of id {id} was broken"));
            }
            if !released {
                note(format!("resources of id {id} were already released"));
            }
        }
        if seen.open_errors > 0 {
            note(format!("SimOs refused {} opens", seen.open_errors));
        }
        problem
    }
}

/// Runs one epoch: set up, the timed request stream, then the oracle.
pub fn epoch(opts: &Opts, mut tr: Tracer) -> Epoch {
    let sizes = Sizes::for_scale(opts.scale);
    let t = Instant::now();
    let mut w = World::new(
        opts.seed,
        sizes.clone(),
        opts.fault == Some(crate::Fault::SkipClose),
    );
    let setup_s = t.elapsed().as_secs_f64();

    let mut base = Sheet::default();
    base.add_heap(&mut w.heap);
    let pool_base = w.pool.stats();
    let mut failures = Failures::default();
    let mut shadow = Shadow::default();
    let mut latencies = Vec::with_capacity(sizes.requests);
    let mut backlog_sum = 0u64;
    let (mut fds_peak, mut blocks_peak) = (0u64, 0u64);
    let mut seen = Seen::default();
    let schedule = std::mem::take(&mut w.schedule);
    for (r, ops) in schedule.chunks(sizes.batch).enumerate() {
        let req = r as u32;
        seen.next_request();
        let start = Instant::now();
        tr.enter(Name::Request, req);
        for op in ops {
            if op.insert {
                w.insert(op.slot as usize, &mut tr, req, &mut seen);
            } else {
                w.lookup(op.slot as usize, &mut tr, req, &mut seen);
            }
            w.safe_point(&mut tr, req, &mut seen);
        }
        tr.exit();
        latencies.push(start.elapsed().as_nanos() as u64);

        if let Some(problem) = shadow.check(&seen) {
            failures.add(1, || format!("request {r}: {problem}"));
        }
        backlog_sum += shadow.dropped - shadow.returned;
        fds_peak = fds_peak.max(w.open_fds());
        blocks_peak = blocks_peak.max(w.arena.live_blocks() as u64);
    }

    let pool = w.pool.stats();
    let mut sheet = Sheet::default();
    sheet.add_heap(&mut w.heap);
    sheet.minus(&base);
    sheet.set_pool(&pool, &pool_base);
    sheet.set_pauses(&mut seen.pauses_ns);
    sheet.set("runtime.open_fds_peak", fds_peak as f64);
    sheet.set("runtime.ext_live_blocks_peak", blocks_peak as f64);
    let request_ns: u64 = latencies.iter().sum();
    sheet.finish(&tr, latencies.len(), request_ns);

    // Final oracle, outside the timed phase: two full collections with
    // drains hand back everything dropped.
    let mut off = Tracer::off();
    let oldest = w.heap.config().max_generation();
    for _ in 0..2 {
        seen.next_request();
        w.heap.collect(oldest);
        w.drain(&mut off, 0, &mut seen);
        if let Some(problem) = shadow.check(&seen) {
            failures.add(1, || format!("final drain: {problem}"));
        }
    }
    failures.add(shadow.pending.len() as u64, || {
        format!(
            "{} dropped records never handed back ({} dropped, {} returned)",
            shadow.pending.len(),
            shadow.dropped,
            shadow.returned
        )
    });
    if let Err(e) = w.heap.verify() {
        failures.add(1, || format!("heap verify: {e:?}"));
    }
    let table = sizes.table as u64;
    failures.add(w.open_fds().abs_diff(table), || {
        format!("{} fds open, table holds {table}", w.open_fds())
    });
    let blocks = w.arena.live_blocks() as u64;
    failures.add(blocks.abs_diff(table), || {
        format!("{blocks} blocks live, table holds {table}")
    });
    let h = &w.heap;
    let mismatched = (0..sizes.table)
        .filter(|&s| {
            let rec = h.vector_ref(w.table.get(), s);
            h.record_ref(rec, F_ID).as_fixnum() != w.ids[s]
        })
        .count() as u64;
    failures.add(mismatched, || {
        format!("{mismatched} table slots disagree with the shadow")
    });

    let n = latencies.len().max(1) as f64;
    Epoch {
        setup_s,
        latencies_ns: latencies,
        failed: failures.count,
        failures: failures.notes,
        backlog_mean: backlog_sum as f64 / n,
        peak_heap_mb: (pool.peak_outstanding * SEGMENT_BYTES) as f64 / 1e6,
        sheet,
        tracer: tr,
    }
}
