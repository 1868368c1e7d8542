//! Tests of the benchmark itself: metric names, the manifest, the result
//! line and the output checks.

use lazyctrl_core::{ControlMode, DetailedRun, Experiment, ExperimentConfig};
use lazyctrl_obs::json::{self, Value};
use lazyctrl_trace::realistic::{generate, RealTraceConfig};
use lazyctrl_trace::Trace;

use crate::metrics::{self, Values, END_TO_END, PER_LAYER};
use crate::outcome;

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    for (name, unit) in &all {
        assert!(metrics::valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
    }
    let mut names: Vec<&str> = all.iter().map(|&(n, _)| n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names repeat");
}

#[test]
fn valid_name_rejects_bad_names() {
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "slash/name",
        "ünïcode",
        &"x".repeat(65),
    ] {
        assert!(!metrics::valid_name(bad), "{bad:?} accepted");
    }
    for good in [
        "a",
        "9lives",
        "sim.events",
        "core.allocs_per_event",
        "a-b_c.d",
    ] {
        assert!(metrics::valid_name(good), "{good:?} rejected");
    }
}

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(manifest: &Value, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn manifest_declares_exactly_the_metrics_the_benchmark_reports() {
    let m = manifest();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(declared(&m, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&m, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = m
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    let ours: Vec<String> = crate::workload::Workload::ALL
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(workloads, ours);
}

#[test]
fn result_line_is_one_json_object_with_units() {
    let mut v = Values::default();
    v.set("flows_per_s", 1234.5);
    v.set("setup_s", f64::NAN);
    let line = metrics::result_line(true, 3, 0, &v);
    let parsed = json::parse(&line).expect("result line parses");
    assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(parsed.get("attempted").and_then(Value::as_f64), Some(3.0));
    let flows = parsed
        .get("metrics")
        .and_then(|m| m.get("flows_per_s"))
        .expect("flows_per_s");
    assert_eq!(flows.get("value").and_then(Value::as_f64), Some(1234.5));
    assert_eq!(flows.get("unit").and_then(Value::as_str), Some("1/s"));
    let setup = parsed.get("metrics").and_then(|m| m.get("setup_s"));
    assert_eq!(
        setup.and_then(|s| s.get("value")).and_then(Value::as_f64),
        Some(0.0)
    );
}

/// A small checked run: the realistic surrogate cut to 2,000 flows.
fn small_run() -> (Trace, u64, DetailedRun) {
    let mut tc = RealTraceConfig::small();
    tc.num_flows = 2_000;
    let trace = generate(&tc);
    let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic).with_group_size_limit(5);
    cfg.emit_arp = true;
    cfg.record_flow_latencies = true;
    let horizon = crate::horizon_ns(&trace, &cfg);
    let run = Experiment::new(trace.clone(), cfg).run_detailed();
    (trace, horizon, run)
}

#[test]
fn output_check_accepts_an_honest_run_and_rejects_doctored_ones() {
    let (trace, horizon, run) = small_run();
    let o = outcome::derive(&trace, horizon, true, &run).expect("honest run passes");
    assert_eq!(o.started(), trace.flows.len() as u64);
    assert_eq!(o.trace_delivered + o.failed(), o.started());
    assert_eq!(o.setup_ns.len() as u64, o.trace_delivered);

    // The report claims a flow that never started.
    let mut doctored = run.clone();
    doctored.report.flows_started += 1;
    assert!(outcome::derive(&trace, horizon, true, &doctored).is_err());

    // A delivery the log does not hold.
    let mut doctored = run.clone();
    doctored.report.delivered_flows += 1;
    assert!(outcome::derive(&trace, horizon, true, &doctored).is_err());

    // A frame emitted that no started flow or response accounts for.
    let mut doctored = run.clone();
    for (k, v) in &mut doctored.counters {
        if k == "frames_emitted" {
            *v += 1;
        }
    }
    assert!(outcome::derive(&trace, horizon, true, &doctored).is_err());

    // Any changed report field fails the repeat comparison.
    let mut doctored = run.report.clone();
    doctored.packet_ins += 1;
    assert!(crate::same_report(&run.report, &run.report));
    assert!(!crate::same_report(&run.report, &doctored));
}

#[test]
fn output_check_rejects_a_wrong_flow_count() {
    let (mut trace, horizon, run) = small_run();
    let extra = *trace.flows.last().expect("flows");
    trace.flows.push(extra);
    assert!(outcome::derive(&trace, horizon, true, &run).is_err());
    trace.flows.truncate(trace.flows.len() - 2);
    assert!(outcome::derive(&trace, horizon, true, &run).is_err());
}

#[test]
fn percentiles_are_nearest_rank() {
    let xs: Vec<u64> = (1..=1000).collect();
    assert_eq!(outcome::percentile(&xs, 0.5), 500);
    assert_eq!(outcome::percentile(&xs, 0.999), 999);
    assert_eq!(outcome::samples_beyond(xs.len(), 0.999), 1);
    assert_eq!(outcome::percentile(&[], 0.5), 0);
}

#[test]
fn args_parse_and_reject() {
    let parse = |s: &str| crate::parse_args(s.split_whitespace().map(str::to_owned));
    let a = parse("--workload real_dynamic --seed 7 --seconds 10 --trace 1").expect("valid");
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("real_dynamic", 7, 10.0, true)
    );
    for bad in [
        "--seed 1",
        "--workload x --trace 2",
        "--workload x --seconds 0",
        "--workload x --seed",
        "--workload x --bogus 1",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} accepted");
    }
}

#[test]
fn loop_window_counts_only_allocations_inside_the_loop() {
    let (_, _, mut run) = small_run();
    run.phases.build_s = 100e-9;
    run.phases.run_s = 1_000e-9;
    let e = |at_ns, bytes| crate::alloc::Entry { at_ns, bytes };
    // The call starts at 1_000 ns and its first allocation lands at
    // 1_010 ns: the loop starts in [1_100, 1_110) and ends in
    // [2_100, 2_110).
    let entries = [
        e(900, 1),
        e(1_010, 2),
        e(1_105, 4),
        e(1_110, 8),
        e(2_099, 16),
        e(2_105, 32),
        e(2_200, 64),
    ];
    let a = crate::loop_window(&entries, 1_000, &run);
    let want = crate::LoopAllocs {
        count: 2,
        bytes: 24,
        ambiguous: 2,
        ambiguous_bytes: 36,
    };
    assert_eq!(a, want);
    // A run that counted the first ambiguous allocation inside the loop
    // fits the same true count; one with a third sure allocation does not.
    let inside = crate::LoopAllocs {
        count: 3,
        bytes: 28,
        ambiguous: 0,
        ambiguous_bytes: 0,
    };
    assert!(a.agrees(&inside) && inside.agrees(&a));
    let more = crate::LoopAllocs { count: 5, ..inside };
    assert!(!a.agrees(&more));
}
