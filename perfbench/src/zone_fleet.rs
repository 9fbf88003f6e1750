//! `zone_fleet`: a `ZoneManager` over one shared `SegmentPool` with
//! eight zones, alternating typed (`gc-api`) and Scheme-VM, each with a
//! 64 KiB collection trigger and the autotuner active. A seeded
//! steady-state stream opens, works and evicts sessions, keeping each
//! zone's live sessions in the hundreds; one request is one timed
//! `ZoneManager::dispatch`.
//!
//! The oracle is a model of every zone: its live sessions and their
//! work counters, from which the benchmark recomputes the zone's result
//! checksum after every request (a Scheme work request's result is the
//! length of the list its churn program builds). After `quiesce`, every
//! evicted session has been reclaimed, the open fds and live blocks
//! equal the live sessions, and `Zone::verify` passes.

use crate::trace::{Name, Tracer};
use crate::{quantile, Epoch, Failures, Fault, Opts, Rng, Scale, Sheet};
use guardians_gc::AutotuneMode;
use guardians_segments::SEGMENT_BYTES;
use guardians_zones::{Request, ZoneConfig, ZoneManager};
use std::collections::HashMap;
use std::time::Instant;

/// Workload size.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Zones; even ids are typed, odd ids Scheme.
    pub zones: u64,
    /// Requests per epoch.
    pub requests: usize,
    /// Below this many live sessions a zone mostly opens.
    pub live_lo: usize,
    /// Above this many live sessions a zone mostly evicts.
    pub live_hi: usize,
    /// Each zone's collection trigger, bytes.
    pub trigger_bytes: usize,
}

impl Sizes {
    /// The size for `scale`.
    pub fn for_scale(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                zones: 8,
                requests: 45_000,
                live_lo: 150,
                live_hi: 300,
                trigger_bytes: 64 << 10,
            },
            Scale::Small => Sizes {
                zones: 4,
                requests: 4_000,
                live_lo: 40,
                live_hi: 80,
                trigger_bytes: 64 << 10,
            },
        }
    }

    /// The sizes as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"zones\": {}, \"requests\": {}, \"live_lo\": {}, \"live_hi\": {}, \
             \"trigger_bytes\": {}, \"autotune\": \"active\", \"engine\": \"serial\"}}",
            self.zones, self.requests, self.live_lo, self.live_hi, self.trigger_bytes
        )
    }
}

fn is_typed(zone: u64) -> bool {
    zone.is_multiple_of(2)
}

/// The seeded stream: `(zone, request)` pairs. Each zone's live-session
/// count drifts between `live_lo` and `live_hi`; session ids are never
/// reused within a zone.
fn schedule(seed: u64, sizes: &Sizes) -> Vec<(u64, Request)> {
    let mut rng = Rng::new(seed, 1);
    let mut live: Vec<Vec<u64>> = vec![Vec::new(); sizes.zones as usize];
    let mut next = vec![0u64; sizes.zones as usize];
    (0..sizes.requests)
        .map(|_| {
            let z = rng.below(sizes.zones);
            let lv = &mut live[z as usize];
            let (open_pct, evict_pct) = if lv.len() < sizes.live_lo {
                (70, 5)
            } else if lv.len() > sizes.live_hi {
                (5, 70)
            } else {
                (20, 20)
            };
            let roll = rng.below(100);
            let req = if lv.is_empty() || roll < open_pct {
                let s = next[z as usize];
                next[z as usize] += 1;
                lv.push(s);
                Request::Open { session: s }
            } else if roll < open_pct + evict_pct {
                let i = rng.below(lv.len() as u64) as usize;
                Request::Evict {
                    session: lv.swap_remove(i),
                }
            } else {
                let i = rng.below(lv.len() as u64) as usize;
                Request::Work {
                    session: lv[i],
                    amount: rng.range(1, 64) as u32,
                }
            };
            (z, req)
        })
        .collect()
}

/// The zone layer's checksum fold.
fn mix(checksum: u64, x: u64) -> u64 {
    (checksum ^ x).wrapping_mul(0x100_0000_01b3)
}

/// The benchmark's model of one zone.
#[derive(Default)]
struct Model {
    /// Live sessions and their accumulated work units.
    hits: HashMap<u64, i64>,
    /// The zone's checksum as last read.
    checksum: u64,
}

impl Model {
    /// Applies `req` and returns the checksum the zone should report.
    fn apply(&mut self, typed: bool, req: Request) -> u64 {
        let c = self.checksum;
        match req {
            Request::Open { session } => {
                if self.hits.contains_key(&session) {
                    return c;
                }
                self.hits.insert(session, 0);
                mix(c, session.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            }
            Request::Work { session, amount } => {
                let Some(h) = self.hits.get_mut(&session) else {
                    return c;
                };
                *h += i64::from(amount);
                let mut digest = (session << 17) ^ *h as u64;
                if !typed {
                    // `(zchurn n)` evaluates to the length of an n-element
                    // list, and the zone folds the printed result in.
                    let n = 8 + amount % 64;
                    for b in n.to_string().bytes() {
                        digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                    }
                }
                mix(c, digest)
            }
            Request::Evict { session } => {
                if self.hits.remove(&session).is_none() {
                    return c;
                }
                mix(c, session.rotate_left(32) | 1)
            }
        }
    }
}

/// Runs one epoch: set up, the timed request stream, then the oracle.
pub fn epoch(opts: &Opts, mut tr: Tracer) -> Epoch {
    let sizes = Sizes::for_scale(opts.scale);
    let t = Instant::now();
    let mut mgr = ZoneManager::new();
    for z in 0..sizes.zones {
        let base = if is_typed(z) {
            ZoneConfig::typed()
        } else {
            ZoneConfig::scheme()
        };
        let config = base
            .with_trigger_bytes(sizes.trigger_bytes)
            .with_autotune(AutotuneMode::Active);
        mgr.create_zone(z, &config);
    }
    let stream = schedule(opts.seed, &sizes);
    let setup_s = t.elapsed().as_secs_f64();

    let mut base = Sheet::default();
    for z in 0..sizes.zones {
        base.add_heap(zone_heap(&mut mgr, z));
    }
    let pool_base = mgr.pool_stats();
    let mut models: Vec<Model> = (0..sizes.zones).map(|_| Model::default()).collect();
    let mut failures = Failures::default();
    let mut latencies = Vec::with_capacity(stream.len());
    let (mut typed_ns, mut scheme_ns) = (Vec::new(), Vec::new());
    let mut pauses = Vec::new();
    let zn = sizes.zones as usize;
    let (mut backlog, mut fds, mut blocks) = (vec![0u64; zn], vec![0u64; zn], vec![0u64; zn]);
    let (mut backlog_sum, mut fds_peak, mut blocks_peak) = (0u64, 0u64, 0u64);
    for (r, &(z, req)) in stream.iter().enumerate() {
        if opts.fault == Some(Fault::ExtraOpen) && r == stream.len() / 2 {
            mgr.dispatch(0, Request::Open { session: 1 << 40 });
        }
        let (c0, g0) = {
            let s = zone_ref(&mgr, z).heap().stats();
            (s.collections, s.total_gc_time)
        };
        let rq = r as u32;
        let start = Instant::now();
        tr.enter(Name::Request, rq);
        tr.enter(Name::ZonesDispatch, rq);
        mgr.dispatch(z, req);
        if tr.is_on() {
            let gc = zone_ref(&mgr, z).heap().stats().total_gc_time - g0;
            tr.credit(Name::GcCollect, gc.as_nanos() as u64);
        }
        tr.exit();
        tr.exit();
        let ns = start.elapsed().as_nanos() as u64;
        latencies.push(ns);
        if is_typed(z) {
            typed_ns.push(ns);
        } else {
            scheme_ns.push(ns);
        }

        let zone = zone_ref(&mgr, z);
        let s = zone.heap().stats();
        crate::add_pauses(&mut pauses, s.collections - c0, s.total_gc_time - g0);
        let obs = zone.observables();
        let model = &mut models[z as usize];
        let want = model.apply(is_typed(z), req);
        if obs.checksum != want {
            failures.add(1, || {
                format!("request {r} to zone {z} ({req:?}): checksum mismatch")
            });
        }
        model.checksum = obs.checksum;
        let zi = z as usize;
        backlog[zi] = obs.sessions_evicted - obs.reclaimed_sessions;
        fds[zi] = obs.open_fds;
        blocks[zi] = obs.ext_live_blocks;
        backlog_sum += backlog.iter().sum::<u64>();
        fds_peak = fds_peak.max(fds.iter().sum());
        blocks_peak = blocks_peak.max(blocks.iter().sum());
    }

    let pool = mgr.pool_stats();
    let mut sheet = Sheet::default();
    let (mut requests, mut reclaimed) = (0u64, 0u64);
    for z in 0..sizes.zones {
        sheet.add_heap(zone_heap(&mut mgr, z));
        let obs = zone_ref(&mgr, z).observables();
        requests += obs.requests;
        reclaimed += obs.reclaimed_sessions;
    }
    sheet.minus(&base);
    sheet.set_pool(&pool, &pool_base);
    sheet.set_pauses(&mut pauses);
    sheet.set("runtime.open_fds_peak", fds_peak as f64);
    sheet.set("runtime.ext_live_blocks_peak", blocks_peak as f64);
    sheet.set("zones.requests", requests as f64);
    sheet.set("zones.reclaimed_sessions", reclaimed as f64);
    typed_ns.sort_unstable();
    scheme_ns.sort_unstable();
    sheet.set(
        "zones.typed.dispatch_p50_us",
        quantile(&typed_ns, 0.5) as f64 / 1e3,
    );
    sheet.set(
        "zones.scheme.dispatch_p50_us",
        quantile(&scheme_ns, 0.5) as f64 / 1e3,
    );
    let request_ns: u64 = latencies.iter().sum();
    sheet.finish(&tr, latencies.len(), request_ns);

    // Final oracle, outside the timed phase.
    mgr.quiesce();
    for z in 0..sizes.zones {
        let zone = zone_ref(&mgr, z);
        let o = zone.observables();
        let live = models[z as usize].hits.len() as u64;
        failures.add(o.sessions_evicted.abs_diff(o.reclaimed_sessions), || {
            format!(
                "zone {z}: {} evicted, {} reclaimed after quiesce",
                o.sessions_evicted, o.reclaimed_sessions
            )
        });
        failures.add(o.live_sessions.abs_diff(live), || {
            format!(
                "zone {z}: {} live sessions, model has {live}",
                o.live_sessions
            )
        });
        failures.add(o.open_fds.abs_diff(live), || {
            format!("zone {z}: {} fds open for {live} live sessions", o.open_fds)
        });
        failures.add(o.ext_live_blocks.abs_diff(live), || {
            format!(
                "zone {z}: {} blocks live for {live} live sessions",
                o.ext_live_blocks
            )
        });
        if let Err(e) = zone.verify() {
            failures.add(1, || format!("zone {z}: verify: {e:?}"));
        }
    }

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

fn zone_ref(mgr: &ZoneManager, z: u64) -> &guardians_zones::Zone {
    mgr.zone(z).expect("every zone lives for the whole epoch")
}

fn zone_heap(mgr: &mut ZoneManager, z: u64) -> &mut guardians_gc::Heap {
    mgr.zone_mut(z)
        .expect("every zone lives for the whole epoch")
        .heap_mut()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_live_sessions_in_band() {
        let sizes = Sizes::for_scale(Scale::Small);
        let stream = schedule(9, &sizes);
        assert_eq!(stream, schedule(9, &sizes));
        let mut live = vec![0i64; sizes.zones as usize];
        for &(z, req) in &stream {
            match req {
                Request::Open { .. } => live[z as usize] += 1,
                Request::Evict { .. } => live[z as usize] -= 1,
                Request::Work { .. } => {}
            }
        }
        for l in live {
            assert!(l as usize >= sizes.live_lo / 2 && l as usize <= sizes.live_hi * 2);
        }
    }
}
