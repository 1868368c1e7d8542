//! Hot-path performance baseline: runs fixed workloads, prints a table,
//! and emits `BENCH_perf.json` (events/sec, flow-setups/sec, peak-RSS
//! proxy, wall time per scenario) — the trajectory baseline future PRs
//! measure against.
//!
//! Workloads (all deterministic, seed 7):
//!
//! * `heap_calibrator` — no simulator code at all: a fixed synthetic
//!   hold schedule (pop the earliest event, re-schedule it a
//!   pseudo-random delay later) on the [`HeapQueue`] reference. Its
//!   events/sec measure the host, not the simulator, so `--check` divides
//!   hardware speed out of every other row with it.
//! * `flow_setup_throughput` — Syn-A under a single lazy controller with
//!   explicit ARP resolution for every fresh pair: the paper's flow-setup
//!   operation, end to end. `LAZYCTRL_SCALE=paper` runs the full ×10
//!   topology (2713 switches, 65090 hosts, 500 k flows); the default
//!   quick scale runs the ⅛ topology.
//! * `steady_state` — same trace without ARP emission (warm-path mix).
//! * `flow_setup_throughput_bw` — the headline workload with every
//!   control-plane channel class capacitated far above the offered load.
//!   No link ever saturates, so the row measures the pure bookkeeping
//!   cost of the fair-share bandwidth model (wire lengths, per-link
//!   watermarks); it is asserted within 5% of the plain row's
//!   events/sec (best of four alternating runs each, to ride out
//!   runner noise).
//! * `scenario:<name>` — wall-clock of three registry scenarios.
//!
//! Peak RSS is sampled **per scenario**: the kernel's high-water mark is
//! reset before each workload, so a row's `peak_rss_kb` belongs to that
//! workload alone instead of carrying the run-wide maximum forward.
//!
//! ```sh
//! cargo run --release -p lazyctrl-bench --bin repro_perf            # writes ./BENCH_perf.json
//! cargo run --release -p lazyctrl-bench --bin repro_perf -- \
//!     --out /tmp/BENCH_perf.json --check BENCH_perf.json           # CI: fail on >25% regression
//! ```
//!
//! The committed `BENCH_perf.json` carries the quick, paper and x10
//! rows (the `--check` gate only compares rows matching the current
//! scale, and CI's quick job never exercises the others). A run's
//! `--out` file contains only the current scale — to refresh the
//! committed artifact, run every scale on one idle host and merge the
//! rows, rather than committing a single run's output and silently
//! dropping the other scales' baselines.

use std::time::Instant;

use lazyctrl_bench::{render_table, syn_a_trace, Scale};
use lazyctrl_core::scenarios::{run_built_detailed, ScenarioRegistry};
use lazyctrl_core::{BandwidthModel, ControlMode, Experiment, ExperimentConfig};
use lazyctrl_obs::PhaseTimings;
use lazyctrl_sim::{HeapQueue, SimDuration, SimTime};
use lazyctrl_trace::Trace;

/// Peak resident set size proxy (kB) — `VmHWM` on Linux, 0 elsewhere.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Resets the kernel's RSS high-water mark (`echo 5 > /proc/self/clear_refs`),
/// so the next [`peak_rss_kb`] read is *this scenario's* peak rather than
/// the run-wide maximum carried forward from every workload before it.
/// Returns false where unsupported (non-Linux, restricted procfs); the
/// sample then degrades to the old monotone process-wide behaviour.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

struct Measurement {
    name: String,
    wall_s: f64,
    events: u64,
    flows: u64,
    peak_rss_kb: u64,
    /// Trace-build vs event-loop vs report-collection wall split (the
    /// engine's own phase timers; `wall_s` additionally covers trace
    /// cloning and driver overhead around them).
    phases: PhaseTimings,
    /// Flow-setup latency tail (virtual time, ms) — p99/p999 of the
    /// end-to-end delivery histogram, 0.0 when the run delivered nothing.
    p99_latency_ms: f64,
    p999_latency_ms: f64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    fn phase_cell(&self) -> String {
        format!(
            "{:.2}/{:.2}/{:.2}",
            self.phases.build_s, self.phases.run_s, self.phases.report_s
        )
    }

    fn json_line(&self, scale: Scale) -> String {
        format!(
            "{{\"scale\": \"{}\", \"name\": \"{}\", \"wall_s\": {:.3}, \
             \"events\": {}, \"events_per_sec\": {:.0}, \"flow_setups_per_sec\": {:.0}, \
             \"peak_rss_kb\": {}, \"build_s\": {:.3}, \"run_s\": {:.3}, \"report_s\": {:.3}, \
             \"p99_latency_ms\": {:.3}, \"p999_latency_ms\": {:.3}}}",
            scale.label(),
            self.name,
            self.wall_s,
            self.events,
            self.events_per_sec(),
            self.flows as f64 / self.wall_s,
            self.peak_rss_kb,
            self.phases.build_s,
            self.phases.run_s,
            self.phases.report_s,
            self.p99_latency_ms,
            self.p999_latency_ms,
        )
    }
}

/// Runs one workload. Peak RSS is recorded as 0 when per-scenario reset
/// is unsupported (`rss_ok` false): a monotone process-wide high-water
/// mark is garbage per row, and a 0 sample is never gated downstream.
fn run_workload(
    name: &str,
    trace: &Trace,
    arp: bool,
    rss_ok: bool,
    bandwidth: Option<&BandwidthModel>,
) -> Measurement {
    let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic)
        .with_group_size_limit(46)
        .with_seed(7);
    cfg.emit_arp = arp;
    if let Some(bw) = bandwidth.cloned() {
        cfg = cfg.with_bandwidth(bw);
    }
    if rss_ok {
        reset_peak_rss();
    }
    let t0 = Instant::now();
    let detailed = Experiment::new(trace.clone(), cfg).run_detailed();
    Measurement {
        name: name.to_owned(),
        wall_s: t0.elapsed().as_secs_f64(),
        events: detailed.report.events_processed,
        flows: detailed.report.flows_started,
        peak_rss_kb: if rss_ok { peak_rss_kb() } else { 0 },
        phases: detailed.phases,
        p99_latency_ms: detailed.report.p99_latency_ms,
        p999_latency_ms: detailed.report.p999_latency_ms,
    }
}

/// Events held pending by the calibrator's hold schedule.
const CALIBRATOR_PENDING: u64 = 100_000;
/// Pop-and-reschedule steps per calibrator pass.
const CALIBRATOR_STEPS: u64 = 2_000_000;
/// Calibrator passes; the row keeps the median pass.
const CALIBRATOR_PASSES: usize = 3;

/// One calibrator pass: the classic hold model on the [`HeapQueue`]
/// reference. `CALIBRATOR_PENDING` events are pre-scheduled over one
/// virtual second; each step pops the earliest and re-schedules it up to
/// 2 ms later, with delays from a fixed linear congruential sequence.
/// Returns the wall time of the steps (the pre-fill is not timed).
fn calibrator_pass() -> f64 {
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: u64| {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 33) % bound
    };
    let mut q: HeapQueue<u64> = HeapQueue::new();
    for i in 0..CALIBRATOR_PENDING {
        q.schedule(SimTime::from_nanos(next(1_000_000_000)), i);
    }
    let t0 = Instant::now();
    for _ in 0..CALIBRATOR_STEPS {
        let (now, ev) = q.pop().expect("the hold schedule never drains");
        q.schedule(now + SimDuration::from_nanos(next(2_000_000)), ev);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(q.len() as u64, CALIBRATOR_PENDING);
    wall_s
}

/// The calibrator row: the median of `CALIBRATOR_PASSES` passes.
fn calibrator_row() -> Measurement {
    let mut walls: Vec<f64> = (0..CALIBRATOR_PASSES).map(|_| calibrator_pass()).collect();
    walls.sort_by(f64::total_cmp);
    Measurement {
        name: CALIBRATOR.to_owned(),
        wall_s: walls[CALIBRATOR_PASSES / 2],
        events: CALIBRATOR_STEPS,
        flows: 0,
        peak_rss_kb: 0,
        phases: PhaseTimings::default(),
        p99_latency_ms: 0.0,
        p999_latency_ms: 0.0,
    }
}

/// One committed baseline row (parsed from a file this binary wrote).
struct BaselineRow {
    scale: String,
    name: String,
    events_per_sec: f64,
    wall_s: f64,
    peak_rss_kb: u64,
}

/// Extracts the scenario rows from a baseline file written by this binary
/// (one scenario object per line).
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    let field = |line: &str, key: &str| -> Option<String> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_owned())
    };
    text.lines()
        .filter(|l| l.contains("\"events_per_sec\"") && l.contains("\"name\""))
        .filter_map(|l| {
            Some(BaselineRow {
                scale: field(l, "scale")?,
                name: field(l, "name")?,
                events_per_sec: field(l, "events_per_sec")?.parse().ok()?,
                wall_s: field(l, "wall_s")?.parse().ok()?,
                peak_rss_kb: field(l, "peak_rss_kb")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
            })
        })
        .collect()
}

/// The row that calibrates hardware speed between the machine that
/// committed the baseline and the machine running the check. It runs no
/// simulator code (see [`calibrator_pass`]), so a slowdown anywhere in
/// the simulator cannot slow the calibrator too and cancel itself out.
const CALIBRATOR: &str = "heap_calibrator";

/// Committed entries faster than this are dominated by scheduler noise
/// and are reported but never gated.
const MIN_GATED_WALL_S: f64 = 0.25;

/// Maximum fraction of events/sec the *unsaturated* bandwidth model may
/// cost on the headline workload. The model is on the dispatch hot path,
/// so its bookkeeping (wire lengths + per-link watermarks) must stay in
/// the noise; a bigger gap means the fast path regressed.
const BW_OVERHEAD_TOLERANCE: f64 = 0.05;

/// A peak-RSS regression must exceed the >25% ratio *and* this absolute
/// growth: quick-scale baselines are ~30 MB, where environment (malloc
/// arenas, runner image) moves several percent without any code change.
const RSS_NOISE_FLOOR_KB: u64 = 16_384;

fn main() {
    let mut out_path = String::from("BENCH_perf.json");
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--check" => check_path = Some(args.next().expect("--check needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let scale = Scale::from_env();
    println!("lazyctrl repro_perf (scale: {})\n", scale.label());

    // Probe per-scenario RSS sampling once up front; when the reset is
    // unsupported (non-Linux, restricted procfs) every row carries 0 and
    // the RSS gate below is skipped — a monotone process-wide high-water
    // mark compared against per-scenario baselines is worse than nothing.
    let rss_ok = reset_peak_rss();
    if !rss_ok {
        println!("warning: peak-RSS reset unsupported; RSS columns carry 0 and the RSS gate is skipped\n");
    }

    let trace = syn_a_trace(scale);
    println!(
        "Syn-A: {} switches, {} hosts, {} flows\n",
        trace.topology.num_switches,
        trace.topology.num_hosts(),
        trace.num_flows()
    );

    let mut measurements = vec![
        calibrator_row(),
        run_workload("flow_setup_throughput", &trace, true, rss_ok, None),
        run_workload("steady_state", &trace, false, rss_ok, None),
    ];

    // Bandwidth-model overhead row: every channel class capacitated at
    // 10 GB/s — orders of magnitude above the offered control-plane load,
    // so no link ever queues and the row isolates the model's bookkeeping
    // cost (wire-length computation + per-link watermark updates) on the
    // headline workload. The off-path guarantee (capacity `None` ⇒ one
    // array read) is asserted separately: this *on-but-unsaturated* row
    // must stay within `BW_OVERHEAD_TOLERANCE` of the plain row.
    {
        // Every *control-plane* class is capacitated — the classes the
        // overload ladder prices. The data class stays unmodeled, as in
        // the congestion scenarios themselves: LazyCtrl's core–edge
        // separation keeps the tunnelled data path at line rate, and
        // per-frame pricing of it is deliberately out of the 5% budget.
        let mut bw = BandwidthModel::unmodeled();
        for class in lazyctrl_core::ChannelClass::ALL {
            if class != lazyctrl_core::ChannelClass::Data {
                bw = bw.with_capacity(class, 10_000_000_000);
            }
        }
        // Run-to-run wall noise on shared runners can exceed the whole 5%
        // budget at ~1 s per run, so the gate runs four back-to-back
        // (plain, bw) pairs and takes each round's ratio: adjacent runs
        // see the same machine conditions, so a round's ratio cancels
        // drift that would poison a cross-block comparison. The *best*
        // round is the cleanest observation of the intrinsic overhead —
        // noise only ever inflates the measured cost, never hides it
        // below the true value for a whole round's pair.
        let one = |bandwidth: Option<&BandwidthModel>, name: &str| {
            run_workload(name, &trace, true, rss_ok, bandwidth)
        };
        let mut best_ratio = f64::MIN;
        let mut bw_row: Option<Measurement> = None;
        let mut plain_wall = f64::MAX;
        for round in 0..4 {
            let plain = one(None, "flow_setup_throughput");
            let bw_run = one(Some(&bw), "flow_setup_throughput_bw");
            let ratio = bw_run.events_per_sec() / plain.events_per_sec();
            println!(
                "bandwidth overhead round {round}: {:.0} ev/s vs {:.0} plain ({ratio:.3}x)",
                bw_run.events_per_sec(),
                plain.events_per_sec(),
            );
            best_ratio = best_ratio.max(ratio);
            plain_wall = plain_wall.min(plain.wall_s);
            if bw_row
                .as_ref()
                .is_none_or(|b| bw_run.events_per_sec() > b.events_per_sec())
            {
                bw_row = Some(bw_run);
            }
        }
        println!("bandwidth overhead (unsaturated, best of 4 rounds): {best_ratio:.3}x\n");
        // Gate only above the timer-noise floor, like every other gate.
        if plain_wall >= MIN_GATED_WALL_S {
            assert!(
                best_ratio >= 1.0 - BW_OVERHEAD_TOLERANCE,
                "unsaturated bandwidth model cost {:.1}% events/sec in every round \
                 (tolerance {:.0}%)",
                (1.0 - best_ratio) * 100.0,
                BW_OVERHEAD_TOLERANCE * 100.0,
            );
        }
        measurements.push(bw_row.expect("four rounds ran"));
    }

    // Registry scenarios, wall-timed (verdicts are repro_scenario's job).
    // Peak RSS is reset before each scenario (see `reset_peak_rss`), so
    // every row carries that scenario's own high-water mark.
    let registry = ScenarioRegistry::builtin();
    for name in ["cold_cache", "crash_under_load", "peer_sync_storm"] {
        let s = registry.get(name).expect("built-in scenario");
        let (strace, cfg, plan) = s.build(0xC1);
        if rss_ok {
            reset_peak_rss();
        }
        let t0 = Instant::now();
        let (run, detailed) = run_built_detailed(s, strace, cfg, plan);
        measurements.push(Measurement {
            name: format!("scenario:{name}"),
            wall_s: t0.elapsed().as_secs_f64(),
            events: run.report.events_processed,
            flows: run.report.flows_started,
            peak_rss_kb: if rss_ok { peak_rss_kb() } else { 0 },
            phases: detailed.phases,
            p99_latency_ms: run.report.p99_latency_ms,
            p999_latency_ms: run.report.p999_latency_ms,
        });
    }

    let mut rows = Vec::new();
    for m in &measurements {
        rows.push(vec![
            m.name.clone(),
            format!("{:.3}", m.wall_s),
            m.phase_cell(),
            m.events.to_string(),
            format!("{:.0}", m.events_per_sec()),
            format!("{:.0}", m.flows as f64 / m.wall_s),
            format!("{:.2}/{:.2}", m.p99_latency_ms, m.p999_latency_ms),
            m.peak_rss_kb.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "wall (s)",
                "build/run/report (s)",
                "events",
                "events/s",
                "flow-setups/s",
                "p99/p999 (ms)",
                "peak RSS (kB)",
            ],
            &rows,
        )
    );

    // ---- BENCH_perf.json ------------------------------------------------
    let mut json = String::from("{\n  \"schema\": 1,\n  \"scenarios\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str("    ");
        json.push_str(&m.json_line(scale));
        json.push_str(if i + 1 < measurements.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_perf.json");
    println!("wrote {out_path}");

    // ---- regression gate ------------------------------------------------
    // Absolute events/sec moves with hardware, so the committed numbers
    // are first rescaled by how this machine's calibrator run (pure
    // `HeapQueue` work, no simulator code) compares to the committed one;
    // after that normalization, a >25% drop is a real simulator
    // regression, not a slower runner. Sub-`MIN_GATED_WALL_S` entries
    // are reported but not gated (pure timer noise at that size).
    //
    // Peak RSS is gated too (>25% growth fails): memory is far less
    // hardware-sensitive than wall time, and per-scenario sampling (see
    // `reset_peak_rss`) makes the committed numbers attributable. Rows
    // whose committed sample is 0 (non-Linux writer) are skipped.
    if let Some(path) = check_path {
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let rows = parse_baseline(&committed);
        let calibration = rows
            .iter()
            .find(|r| r.scale == scale.label() && r.name == CALIBRATOR && r.events_per_sec > 0.0)
            .and_then(|base| {
                measurements
                    .iter()
                    .find(|m| m.name == CALIBRATOR)
                    .map(|m| (m.events_per_sec() / base.events_per_sec).clamp(0.1, 10.0))
            })
            .unwrap_or(1.0);
        println!("hardware calibration ({CALIBRATOR}): {calibration:.2}x committed");
        let rss_sampling_works = rss_ok;
        let mut failures = 0;
        for base in rows {
            if base.scale != scale.label() || base.events_per_sec <= 0.0 || base.name == CALIBRATOR
            {
                continue;
            }
            let gated = base.wall_s >= MIN_GATED_WALL_S;
            let Some(m) = measurements.iter().find(|m| m.name == base.name) else {
                // A committed row with no fresh counterpart means a
                // workload was renamed or dropped; losing its gate must
                // be loud, not silent.
                if gated {
                    println!(
                        "check {}: MISSING from this run (committed row has no counterpart)",
                        base.name
                    );
                    failures += 1;
                }
                continue;
            };
            let ratio = m.events_per_sec() / (base.events_per_sec * calibration);
            let verdict = match (gated, ratio < 0.75) {
                (true, true) => "REGRESSION",
                (true, false) => "ok",
                (false, _) => "not gated (too short)",
            };
            println!(
                "check {}: {:.0} ev/s vs committed {:.0} ({ratio:.2}x normalized) — {verdict}",
                base.name,
                m.events_per_sec(),
                base.events_per_sec,
            );
            if gated && ratio < 0.75 {
                failures += 1;
            }
            if gated && rss_sampling_works && base.peak_rss_kb > 0 && m.peak_rss_kb > 0 {
                let rss_ratio = m.peak_rss_kb as f64 / base.peak_rss_kb as f64;
                // Small baselines move double-digit percent on allocator
                // arena count / runner image alone, so the ratio gate
                // also requires absolute growth past a noise floor — a
                // real engine regression (e.g. reverting the pooled
                // slab) adds tens of MB even at quick scale.
                let grew_kb = m.peak_rss_kb.saturating_sub(base.peak_rss_kb);
                let regressed = rss_ratio > 1.25 && grew_kb > RSS_NOISE_FLOOR_KB;
                let rss_verdict = if regressed { "RSS REGRESSION" } else { "ok" };
                println!(
                    "check {}: peak RSS {} kB vs committed {} kB ({rss_ratio:.2}x) — {rss_verdict}",
                    base.name, m.peak_rss_kb, base.peak_rss_kb,
                );
                if regressed {
                    failures += 1;
                }
            }
        }
        if failures > 0 {
            eprintln!(
                "{failures} check(s) regressed >25% vs {path} (events/sec hardware-normalized, \
                 peak RSS absolute)"
            );
            std::process::exit(1);
        }
    }
}
