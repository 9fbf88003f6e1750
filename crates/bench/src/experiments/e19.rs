//! **E19 — Bytecode VM vs naive Scheme evaluation throughput.**
//!
//! The paper's measurements run *Scheme programs* on the collector, so
//! interpreter speed bounds how much guardian/collector behaviour an
//! experiment can exercise per second. The naive evaluator re-walks the
//! source cons structure and searches association-list environments on
//! every evaluation; the VM analyzes each form once (lexical addressing,
//! slot-indexed frames), lowers it to flat bytecode — a linear
//! `Vec<Insn>` with u32 operands, jump-resolved control flow — and runs
//! it through a direct-threaded dispatch loop with fused
//! super-instructions and per-call-site inline caches. Both tiers keep
//! every program value on the collected heap and collect at the same
//! safe points (every application). This experiment times both on the
//! same workloads and checks the printed results are byte-identical —
//! the speedup must come from evaluation mechanics, never from
//! semantics.

use guardians_scheme::{Interp, InterpConfig};
use guardians_workloads::Table;
use std::time::Instant;

/// One workload's outcome under the naive and VM tiers.
#[derive(Debug, Clone)]
pub struct E19Row {
    pub workload: &'static str,
    pub iters: usize,
    pub naive_ns_per_eval: f64,
    pub vm_ns_per_eval: f64,
    /// naive time / VM time.
    pub speedup: f64,
    /// Both tiers printed the same result.
    pub identical: bool,
}

struct Workload {
    name: &'static str,
    /// Definitions evaluated once per interpreter (untimed).
    setup: &'static str,
    /// The expression evaluated `iters` times (timed).
    driver: &'static str,
}

fn workloads(quick: bool) -> Vec<(Workload, usize)> {
    let scale = if quick { 1 } else { 4 };
    vec![
        (
            Workload {
                name: "fib (non-tail recursion)",
                setup: "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
                driver: "(fib 15)",
            },
            8 * scale,
        ),
        (
            Workload {
                name: "list churn (allocation + HOFs)",
                setup: "(define (iota n) \
                          (let lp ((i 0) (acc '())) \
                            (if (= i n) (reverse acc) (lp (+ i 1) (cons i acc))))) \
                        (define (filter p l) \
                          (cond ((null? l) '()) \
                                ((p (car l)) (cons (car l) (filter p (cdr l)))) \
                                (else (filter p (cdr l))))) \
                        (define (churn n) \
                          (length (map (lambda (x) (* x x)) \
                                       (filter odd? (iota n)))))",
                driver: "(churn 250)",
            },
            20 * scale,
        ),
        (
            Workload {
                name: "tail loop (lexical addressing)",
                setup: "(define (tri n) \
                          (do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i n) s)))",
                driver: "(tri 20000)",
            },
            10 * scale,
        ),
        (
            Workload {
                name: "guardian churn (collects at safe points)",
                setup: "(define (gchurn n) \
                          (let ((g (make-guardian))) \
                            (let lp ((i 0)) \
                              (unless (= i n) (g (cons i i)) (lp (+ i 1)))) \
                            (collect 3) \
                            (let drain ((k 0)) \
                              (if (g) (drain (+ k 1)) k))))",
                driver: "(gchurn 500)",
            },
            6 * scale,
        ),
    ]
}

fn time_mode(config: InterpConfig, w: &Workload, iters: usize) -> (f64, String) {
    let mut it = Interp::with_interp_config(config);
    it.eval_str(w.setup).expect("workload setup evaluates");
    // One untimed evaluation to warm inline caches and the code table.
    let mut result = it.eval_to_string(w.driver).expect("workload runs");
    let start = Instant::now();
    for _ in 0..iters {
        result = it.eval_to_string(w.driver).expect("workload runs");
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    (ns, result)
}

/// Geometric mean of the per-workload speedups.
pub fn geomean_speedup(rows: &[E19Row]) -> f64 {
    let log_sum: f64 = rows.iter().map(|r| r.speedup.ln()).sum();
    (log_sum / rows.len().max(1) as f64).exp()
}

/// Runs the experiment.
pub fn run(quick: bool) -> (Table, Vec<E19Row>) {
    let mut table = Table::new(
        "E19: bytecode VM vs naive Scheme evaluation throughput",
        &[
            "workload",
            "iters",
            "naive us/eval",
            "vm us/eval",
            "speedup",
            "identical",
        ],
    );
    let mut rows = Vec::new();
    for (w, iters) in workloads(quick) {
        let (naive_ns, naive_result) = time_mode(InterpConfig::naive(), &w, iters);
        let (vm_ns, vm_result) = time_mode(InterpConfig::vm(), &w, iters);
        let row = E19Row {
            workload: w.name,
            iters,
            naive_ns_per_eval: naive_ns,
            vm_ns_per_eval: vm_ns,
            speedup: naive_ns / vm_ns,
            identical: naive_result == vm_result,
        };
        table.row(&[
            w.name.to_string(),
            format!("{}", row.iters),
            format!("{:.0}", row.naive_ns_per_eval / 1e3),
            format!("{:.0}", row.vm_ns_per_eval / 1e3),
            format!("{:.2}x", row.speedup),
            if row.identical { "yes" } else { "NO" }.to_string(),
        ]);
        rows.push(row);
    }
    table.note(super::env_note(1, None));
    table.note(format!(
        "geomean speedup across workloads: {:.2}x",
        geomean_speedup(&rows)
    ));
    table.note("vm = one-time analysis (analyze.rs) lowered to flat bytecode (compile.rs) run by a direct-threaded dispatch loop with fused super-instructions and per-call-site inline caches (vm.rs); naive = the original cons-walking evaluator (InterpConfig::naive)");
    table.note("both tiers run the same heap configuration and collect at the same safe points (every application); 'identical' checks printed results byte for byte");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_matches_naive_and_is_faster() {
        let (_t, rows) = run(true);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.identical, "{}: results diverged", row.workload);
            assert!(
                row.speedup > 1.0,
                "{}: vm ({:.0} ns) not faster than naive ({:.0} ns)",
                row.workload,
                row.vm_ns_per_eval,
                row.naive_ns_per_eval
            );
        }
    }
}
