//! `scheme_vm`: one interpreter on the bytecode VM (`EvalMode::Vm`)
//! with a preloaded set of procedures — non-tail recursion, list churn
//! through higher-order procedures, a tail loop, and a small
//! guardian-churn procedure — evaluating a seeded mix of short call
//! forms, one `eval_to_string` per request.
//!
//! The oracle computes every result in Rust. The guardian-churn
//! procedure returns `(registered-sum handed-back-count
//! handed-back-sum)`: the first element is checked exactly, the other
//! two feed a shadow of registered and handed-back objects — nothing may
//! come back that was not registered, and after a final pair of full
//! collections everything registered has come back once.

use crate::trace::{Name, Tracer};
use crate::{Epoch, Failures, Fault, Opts, Rng, Scale, Sheet};
use guardians_gc::{GcConfig, Heap, SegmentPool};
use guardians_scheme::{EvalMode, Interp};
use guardians_segments::SEGMENT_BYTES;
use std::sync::Arc;
use std::time::Instant;

/// The procedures every epoch loads before its requests.
pub const PROGRAM: &str = "
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(define (sum-to n) (if (= n 0) 0 (+ n (sum-to (- n 1)))))
(define (iota n)
  (let lp ((i (- n 1)) (acc '()))
    (if (< i 0) acc (lp (- i 1) (cons i acc)))))
(define (filter keep? l)
  (cond ((null? l) '())
        ((keep? (car l)) (cons (car l) (filter keep? (cdr l))))
        (else (filter keep? (cdr l)))))
(define (fold f acc l) (if (null? l) acc (fold f (f acc (car l)) (cdr l))))
(define (odd-scale n k)
  (fold + 0 (map (lambda (x) (* x k)) (filter odd? (iota n)))))
(define (mod-loop n m)
  (let lp ((i 0) (acc 0))
    (if (= i n) acc (lp (+ i 1) (modulo (+ acc (* i i)) m)))))
(define G (make-guardian))
(define (gdrain)
  (let lp ((n 0) (s 0))
    (let ((x (G)))
      (if x (lp (+ n 1) (+ s (car x) (cdr x))) (list n s)))))
(define (gchurn k base)
  (let reg ((i 0) (sum 0))
    (if (< i k)
        (begin (G (cons base i)) (reg (+ i 1) (+ sum base i)))
        (cons sum (gdrain)))))
";

/// Workload size.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Requests (evaluated forms) per epoch.
    pub requests: usize,
}

impl Sizes {
    /// The size for `scale`.
    pub fn for_scale(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes { requests: 4_000 },
            Scale::Small => Sizes { requests: 1_500 },
        }
    }

    /// The sizes as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"mix\": \"fib 8-14 | sum-to 20-200 | odd-scale 20-200 x 1-9 \
             | mod-loop 50-800 mod 2-1000 | gchurn 4-24\"}}",
            self.requests
        )
    }
}

/// One call form of the mix.
#[derive(Copy, Clone, Debug)]
enum Call {
    Fib(u64),
    SumTo(u64),
    OddScale(u64, u64),
    ModLoop(u64, u64),
    GChurn(u64, u64),
}

impl Call {
    /// A call of kind `kind % 5` with seeded arguments.
    fn generate(kind: usize, rng: &mut Rng) -> Call {
        match kind % 5 {
            0 => Call::Fib(rng.range(8, 14)),
            1 => Call::SumTo(rng.range(20, 200)),
            2 => Call::OddScale(rng.range(20, 200), rng.range(1, 9)),
            3 => Call::ModLoop(rng.range(50, 800), rng.range(2, 1000)),
            _ => Call::GChurn(rng.range(4, 24), rng.range(0, 100_000)),
        }
    }

    fn form(self) -> String {
        match self {
            Call::Fib(n) => format!("(fib {n})"),
            Call::SumTo(n) => format!("(sum-to {n})"),
            Call::OddScale(n, k) => format!("(odd-scale {n} {k})"),
            Call::ModLoop(n, m) => format!("(mod-loop {n} {m})"),
            Call::GChurn(k, base) => format!("(gchurn {k} {base})"),
        }
    }

    /// The exact result, or for `gchurn` the registered sum (the first
    /// element of its result).
    fn expected(self) -> u64 {
        match self {
            Call::Fib(n) => {
                let (mut a, mut b) = (0u64, 1u64);
                for _ in 0..n {
                    (a, b) = (b, a + b);
                }
                a
            }
            Call::SumTo(n) => n * (n + 1) / 2,
            Call::OddScale(n, k) => (0..n).filter(|x| x % 2 == 1).map(|x| x * k).sum(),
            Call::ModLoop(n, m) => (0..n).fold(0, |acc, i| (acc + i * i) % m),
            Call::GChurn(k, base) => k * base + k * (k - 1) / 2,
        }
    }
}

/// Parses `(sum n s)` as printed by `gchurn`.
fn parse_churn(out: &str) -> Option<(u64, u64, u64)> {
    let inner = out.strip_prefix('(')?.strip_suffix(')')?;
    let mut it = inner.split(' ').map(str::parse::<u64>);
    let r = (it.next()?.ok()?, it.next()?.ok()?, it.next()?.ok()?);
    it.next().is_none().then_some(r)
}

/// Parses `(n s)` as printed by `gdrain`.
fn parse_drain(out: &str) -> Option<(u64, u64)> {
    let inner = out.strip_prefix('(')?.strip_suffix(')')?;
    let (n, s) = inner.split_once(' ')?;
    Some((n.parse().ok()?, s.parse().ok()?))
}

/// Registered and handed-back totals of the guardian-churn requests.
#[derive(Default)]
struct Shadow {
    registered: u64,
    registered_sum: u64,
    returned: u64,
    returned_sum: u64,
}

/// Runs one epoch: set up, the timed request stream, then the oracle.
pub fn epoch(opts: &Opts, mut tr: Tracer) -> Epoch {
    let sizes = Sizes::for_scale(opts.scale);
    let t = Instant::now();
    let pool = SegmentPool::unbounded();
    let heap = Heap::with_pool(GcConfig::default(), Arc::clone(&pool), None);
    let mut interp = Interp::with_heap(heap, EvalMode::Vm);
    let loaded = interp.eval_str(PROGRAM).map(|_| ());
    let mut rng = Rng::new(opts.seed, 2);
    // Every kind appears equally often, in seeded order, so seeds differ
    // in order and arguments but not in the mix.
    let mut kinds: Vec<usize> = (0..sizes.requests).collect();
    rng.shuffle(&mut kinds);
    let calls: Vec<Call> = kinds.iter().map(|&k| Call::generate(k, &mut rng)).collect();
    let forms: Vec<String> = calls.iter().map(|c| c.form()).collect();
    let mut expected: Vec<u64> = calls.iter().map(|c| c.expected()).collect();
    let setup_s = t.elapsed().as_secs_f64();

    let mut failures = Failures::default();
    if let Err(e) = loaded {
        failures.add(1, || format!("program failed to load: {e}"));
    }
    if opts.fault == Some(Fault::CorruptExpected) {
        expected[0] += 1;
    }
    let mut base = Sheet::default();
    base.add_heap(interp.heap_mut());
    let pool_base = pool.stats();
    let mut shadow = Shadow::default();
    let mut latencies = Vec::with_capacity(sizes.requests);
    let mut pauses = Vec::new();
    let mut backlog_sum = 0u64;
    for (r, form) in forms.iter().enumerate() {
        let req = r as u32;
        let (c0, g0) = {
            let s = interp.heap().stats();
            (s.collections, s.total_gc_time)
        };
        let start = Instant::now();
        tr.enter(Name::Request, req);
        tr.enter(Name::SchemeEval, req);
        let out = interp.eval_to_string(form);
        if tr.is_on() {
            let gc = interp.heap().stats().total_gc_time - g0;
            tr.credit(Name::GcCollect, gc.as_nanos() as u64);
        }
        tr.exit();
        tr.exit();
        latencies.push(start.elapsed().as_nanos() as u64);

        let s = interp.heap().stats();
        crate::add_pauses(&mut pauses, s.collections - c0, s.total_gc_time - g0);
        let ok = match (&out, calls[r]) {
            (Ok(out), Call::GChurn(k, _)) => match parse_churn(out) {
                Some((sum, n, s)) => {
                    shadow.registered += k;
                    shadow.registered_sum += sum;
                    shadow.returned += n;
                    shadow.returned_sum += s;
                    sum == expected[r] && shadow.returned <= shadow.registered
                }
                None => false,
            },
            (Ok(out), _) => *out == expected[r].to_string(),
            (Err(_), _) => false,
        };
        if !ok {
            failures.add(1, || {
                format!(
                    "request {r} {form} returned {out:?}, expected {}",
                    expected[r]
                )
            });
        }
        backlog_sum += shadow.registered - shadow.returned;
    }

    let stream_pool = pool.stats();
    let mut sheet = Sheet::default();
    sheet.add_heap(interp.heap_mut());
    sheet.minus(&base);
    sheet.set_pool(&stream_pool, &pool_base);
    sheet.set_pauses(&mut pauses);
    sheet.set("scheme.evals", latencies.len() as f64);
    let request_ns: u64 = latencies.iter().sum();
    sheet.finish(&tr, latencies.len(), request_ns);

    // Final oracle: after two full collections every registered object
    // has been handed back exactly once.
    match interp.eval_to_string("(begin (collect 3) (collect 3) (gdrain))") {
        Ok(out) => match parse_drain(&out) {
            Some((n, s)) => {
                shadow.returned += n;
                shadow.returned_sum += s;
            }
            None => failures.add(1, || format!("final drain printed {out:?}")),
        },
        Err(e) => failures.add(1, || format!("final drain failed: {e}")),
    }
    failures.add(shadow.registered.abs_diff(shadow.returned), || {
        format!(
            "guardian handed back {} of {} registered objects",
            shadow.returned, shadow.registered
        )
    });
    failures.add(
        u64::from(shadow.registered_sum != shadow.returned_sum),
        || "handed-back objects differ from the registered ones".to_string(),
    );
    if let Err(e) = interp.heap().verify() {
        failures.add(1, || format!("heap verify: {e:?}"));
    }

    let n = latencies.len().max(1) as f64;
    Epoch {
        setup_s,
        latencies_ns: latencies,
        failed: failures.count,
        failures: failures.notes,
        backlog_mean: backlog_sum as f64 / n,
        peak_heap_mb: (stream_pool.peak_outstanding * SEGMENT_BYTES) as f64 / 1e6,
        sheet,
        tracer: tr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rust_oracle_values() {
        assert_eq!(Call::Fib(10).expected(), 55);
        assert_eq!(Call::SumTo(100).expected(), 5050);
        assert_eq!(Call::OddScale(6, 2).expected(), 2 * (1 + 3 + 5));
        assert_eq!(Call::ModLoop(4, 5).expected(), (1 + 4 + 9) % 5);
        assert_eq!(Call::GChurn(3, 10).expected(), 10 + 11 + 12);
    }

    #[test]
    fn churn_results_parse() {
        assert_eq!(parse_churn("(33 2 21)"), Some((33, 2, 21)));
        assert_eq!(parse_churn("(33 2)"), None);
        assert_eq!(parse_drain("(0 0)"), Some((0, 0)));
    }
}
