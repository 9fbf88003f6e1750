//! The scheme-differential campaign leg: the same guardian-heavy Scheme
//! workload run under the naive reference evaluator (the anchor) and the
//! bytecode VM, on the trace's GC configuration.
//!
//! The heap-op rig checks the *collector* against the shadow oracle;
//! this leg checks the *evaluator tiers* against each other on top of
//! the same collector: per-form results, error messages, and everything
//! printed to the simulated OS must be byte-identical. The naive tier
//! allocates differently by design (association-list environments), so
//! heap counters are not compared; the VM's exact allocation sequence is
//! pinned by the scheme crate's pre-recorded counter goldens.
//!
//! The trace's `ablate_weak_pass_first` and `fail_acquisition_at` knobs
//! are deliberately ignored here: both perturb allocation-order-derived
//! behaviour, which differs across tiers by design.

use crate::ops::TortureConfig;
use crate::rig::Failure;
use guardians_gc::GcConfig;
use guardians_scheme::{EvalMode, Interp, InterpConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Outcome of a clean differential run.
#[derive(Clone, Debug)]
pub struct SchemeDiffStats {
    /// Top-level forms evaluated (per tier).
    pub forms: usize,
    /// Collections the VM run performed.
    pub collections: u64,
    /// Successful guardian polls the VM run observed.
    pub polled: u64,
}

fn gc_config(cfg: &TortureConfig) -> GcConfig {
    GcConfig {
        generations: cfg.generations,
        promotion: cfg.promotion,
        flat_protected: cfg.flat_protected,
        workers: cfg.workers,
        pause_budget: cfg.pause_budget.map(Duration::from_micros),
        ..GcConfig::default()
    }
}

/// Generates a deterministic guardian/weak/churn Scheme workload from
/// `seed`: roughly `nforms` body forms of list churn, guardian
/// registrations of fresh garbage, weak pairs watching dying objects,
/// keep-list trimming, and forced collections — followed by a fixed
/// epilogue that collects everything and drains both guardians, so every
/// seed exercises resurrection order and weak-pair breaking.
pub fn scheme_program(seed: u64, nforms: usize) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
    let mut forms = vec![
        "(define G (make-guardian))".to_string(),
        "(define H (make-guardian))".to_string(),
        "(define keep '())".to_string(),
        "(define W '())".to_string(),
    ];
    let drain = |g: &str| {
        format!("(let loop ((x ({g}))) (if x (begin (display x) (newline) (loop ({g}))) #f))")
    };
    let mut n = 0u32;
    while forms.len() < nforms.max(8) {
        match rng.gen_range(0..10) {
            0..=2 => {
                // A chained list kept reachable through the keep list;
                // the named-let loop churns pairs at the safe point.
                let len = rng.gen_range(5..40);
                forms.push(format!(
                    "(define k{n} (let loop ((i {len}) (acc '())) \
                     (if (= i 0) acc (loop (- i 1) (cons i acc)))))"
                ));
                forms.push(format!("(set! keep (cons k{n} keep))"));
                n += 1;
            }
            3..=4 => {
                // Register fresh garbage with a guardian (sometimes both,
                // chaining the paper's (G H) style via the shared pair).
                let g = if rng.gen_range(0..2) == 0 { "G" } else { "H" };
                forms.push(format!("({g} (cons 'a{n} {}))", rng.gen_range(0..100)));
                n += 1;
            }
            5 => {
                // A weak pair watching a fresh (immediately dead) pair.
                forms.push(format!("(set! W (cons (weak-cons (cons {n} {n}) '()) W))"));
                n += 1;
            }
            6 => {
                // Trim the keep list so old chains become garbage.
                forms.push("(if (pair? keep) (set! keep (cdr keep)) #f)".into());
            }
            7..=8 => {
                // Collect (young generations dominate) and drain.
                let gen = [0, 0, 1, 2][rng.gen_range(0..4usize)];
                forms.push(format!("(collect {gen})"));
                forms.push(drain("G"));
                forms.push(drain("H"));
            }
            _ => {
                // Probe every weak car: broken ones print #f.
                forms.push("(for-each (lambda (w) (display (weak-car w)) (newline)) W)".into());
            }
        }
    }
    forms.push("(collect 3)".into());
    forms.push(drain("G"));
    forms.push(drain("H"));
    forms.push("(for-each (lambda (w) (display (weak-car w)) (newline)) W)".into());
    forms
}

/// Per-form results (or error strings), everything printed to the
/// simulated OS, and the tier's heap stats.
struct TierRun {
    results: Vec<Result<String, String>>,
    output: String,
    collections: u64,
    polled: u64,
}

fn run_tier(mode: EvalMode, cfg: &TortureConfig, forms: &[String]) -> TierRun {
    let mut it = Interp::with_interp_config(InterpConfig {
        gc: gc_config(cfg),
        mode,
    });
    let results = forms
        .iter()
        .map(|f| it.eval_to_string(f).map_err(|e| e.to_string()))
        .collect();
    let (collections, polled) = (
        it.heap().stats().collections,
        it.heap().stats().guardian_polls,
    );
    TierRun {
        results,
        output: it.take_output(),
        collections,
        polled,
    }
}

/// Runs the seed's Scheme workload under the naive anchor and under the
/// VM, comparing every observable. Returns the VM run's stats on
/// success.
///
/// # Errors
///
/// The first divergence, as a [`Failure`] whose `op_index` is the index
/// of the diverging top-level form.
pub fn run_scheme_differential(
    seed: u64,
    nforms: usize,
    cfg: &TortureConfig,
) -> Result<SchemeDiffStats, Failure> {
    let forms = scheme_program(seed, nforms);
    let fail = |op_index: usize, message: String| Failure {
        seed: Some(seed),
        op_index,
        op: None,
        message,
    };
    let anchor = run_tier(EvalMode::Naive, cfg, &forms);
    let vm = run_tier(EvalMode::Vm, cfg, &forms);
    for (i, (a, b)) in anchor.results.iter().zip(&vm.results).enumerate() {
        if a != b {
            return Err(fail(
                i,
                format!(
                    "scheme vm tier diverged from the naive anchor on form {:?}: {a:?} vs {b:?}",
                    forms[i]
                ),
            ));
        }
    }
    if anchor.output != vm.output {
        return Err(fail(
            forms.len(),
            format!(
                "scheme vm tier printed different output than the naive anchor:\n\
                 anchor: {:?}\nvm:     {:?}",
                anchor.output, vm.output
            ),
        ));
    }
    Ok(SchemeDiffStats {
        forms: forms.len(),
        collections: vm.collections,
        polled: vm.polled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_generation_is_deterministic() {
        assert_eq!(scheme_program(9, 40), scheme_program(9, 40));
        assert_ne!(scheme_program(9, 40), scheme_program(10, 40));
    }

    #[test]
    fn vm_leg_agrees_on_a_small_seed() {
        let stats = run_scheme_differential(1, 40, &TortureConfig::default())
            .unwrap_or_else(|f| panic!("{f}"));
        assert!(stats.collections > 0, "workload exercised the collector");
        assert!(stats.polled > 0, "workload drained a guardian");
    }
}
