//! The benchmark's own tests: every workload's oracle passes on a short
//! run and fails when a fault is injected, the deterministic metrics
//! repeat for a seed, a second seed passes, a traced run reports every
//! per-layer metric, and `BENCHMARK.json` lists the metrics this program
//! reports.

use guardians_perfbench::{run, Fault, Opts, Report, Scale, Workload, END_TO_END, PER_LAYER};

fn short(seed: u64, trace: bool, fault: Option<Fault>) -> Opts {
    Opts {
        seed,
        seconds: 0.0,
        trace,
        fault,
        scale: Scale::Small,
    }
}

fn fault_for(w: Workload) -> Fault {
    match w {
        Workload::ZoneFleet => Fault::ExtraOpen,
        Workload::SchemeVm => Fault::CorruptExpected,
        Workload::GuardianPool => Fault::SkipClose,
    }
}

fn deterministic(r: &Report) -> Vec<(String, u64)> {
    let e = &r.epochs[0];
    let mut v: Vec<(String, u64)> = e
        .sheet
        .deterministic()
        .into_iter()
        .map(|(n, x)| (n.to_string(), x.to_bits()))
        .collect();
    v.push(("reclaim_backlog".into(), e.backlog_mean.to_bits()));
    v.push(("peak_heap_mb".into(), e.peak_heap_mb.to_bits()));
    v
}

#[test]
fn every_oracle_passes_on_a_short_run() {
    for w in Workload::ALL {
        let r = run(w, &short(7, false, None));
        assert!(r.correct(), "{}: {:?}", w.label(), r.failures);
        assert!(r.epochs.len() >= 2, "a run compares at least two epochs");
        assert!(r.attempted > 0);
        for &(name, _, _) in &END_TO_END {
            assert!(r.end_to_end[name] > 0.0, "{}: {name} reads 0", w.label());
        }
    }
}

#[test]
fn an_injected_fault_fails_the_oracle() {
    for w in Workload::ALL {
        let r = run(w, &short(7, false, Some(fault_for(w))));
        assert!(!r.correct(), "{}: the fault went unnoticed", w.label());
        assert!(r.result_json().starts_with("{\"correct\": false,"));
    }
}

#[test]
fn a_fault_for_another_workload_changes_nothing() {
    let r = run(Workload::SchemeVm, &short(7, false, Some(Fault::SkipClose)));
    assert!(r.correct(), "{:?}", r.failures);
}

#[test]
fn deterministic_metrics_repeat_for_a_seed_and_a_second_seed_passes() {
    for w in Workload::ALL {
        let a = run(w, &short(11, false, None));
        let b = run(w, &short(11, false, None));
        assert_eq!(deterministic(&a), deterministic(&b), "{}", w.label());
        let c = run(w, &short(12, false, None));
        assert!(c.correct(), "{} seed 12: {:?}", w.label(), c.failures);
        assert_ne!(deterministic(&a), deterministic(&c), "{}", w.label());
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    for w in Workload::ALL {
        let r = run(w, &short(5, true, None));
        assert!(r.correct(), "{}: {:?}", w.label(), r.failures);
        assert!(r.epochs.iter().any(|e| e.tracer.is_on()));
        assert!(r.epochs.iter().any(|e| !e.tracer.is_on()));
        for &(name, _, _) in &PER_LAYER {
            assert!(r.per_layer.contains_key(name), "{}: {name}", w.label());
        }
        let json = r.result_json();
        for &(name, unit, _) in &PER_LAYER {
            assert!(json.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(r.per_layer["trace.spans"] > 0.0);
        assert!(r.per_layer["trace.request_s"] > 0.0);
        let share = r.per_layer["trace.unattributed_share"];
        assert!((0.0..1.0).contains(&share), "{}: {share}", w.label());
    }
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(
            "\"name\": \"{name}\",\n      \"unit\": \"{unit}\",\n      \"better\": \"{better}\""
        );
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\"", w.label())));
    }
}
