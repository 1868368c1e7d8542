//! `lcbench`: the LazyCtrl simulator's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path lcbench/Cargo.toml -- \
//!     --workload real_dynamic --seed 1 --seconds 55 --trace 0
//! ```
//!
//! `--workload` names one workload (see `workload.rs`) or `all`, which
//! runs each workload in its own process. Each workload runs a few traces
//! generated from `--seed`. The untraced run (`--trace 0`) checks every
//! trace's outputs, then runs the traces round after round for
//! `--seconds` and reports the end-to-end metrics, their host times
//! scaled by a host-speed probe timed between repeats (`probe.rs`). The
//! traced run (`--trace 1`) reports the per-layer metrics: exact counts
//! from the checking runs, the engine's sampled profile, event-loop
//! allocations and layer drivers. Both write their spans under
//! `.bench_out/`. The last line of standard output is one JSON object
//! with `correct`, `attempted` (simulation runs), `failed` (runs whose
//! output check failed) and the metrics; the exit code is non-zero when
//! any check failed.

mod alloc;
mod layers;
mod metrics;
mod outcome;
mod probe;
#[cfg(test)]
mod tests;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use lazyctrl_core::{
    DetailedRun, Experiment, ExperimentConfig, ExperimentReport, ObsConfig, EVENT_KIND_NAMES,
};
use lazyctrl_trace::Trace;

use layers::Spans;
use metrics::Values;
use outcome::Outcomes;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Untraced rounds (every trace once) each run makes at least.
const MIN_ROUNDS: usize = 2;
/// Interleaved traced/untraced pairs behind `obs.overhead_frac`.
const OBS_PAIRS: usize = 3;
/// Where spans and per-layer rows are written, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: lcbench --workload <syna_cluster_overload|real_dynamic|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::from_name(&args.workload) else {
        eprintln!("lcbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let mut bench = Bench::new(w, args.seed);
    let values = if args.trace {
        bench.traced()
    } else {
        bench.untraced(args.seconds)
    };
    for e in &bench.errors {
        println!("CHECK FAILED: {e}");
    }
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.spans.json"), bench.spans.to_json()))
        .and_then(|()| {
            if args.trace {
                std::fs::write(format!("{stem}.layers.txt"), &bench.layer_rows)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        bench.errors.push(format!("cannot write {stem}.*: {e}"));
    }
    print!("{}", bench.layer_rows);
    for &(name, value) in &values.0 {
        let unit = metrics::unit_of(name).unwrap_or("count");
        println!("metric {}: {name} = {value} {unit}", w.name());
    }
    let correct = bench.errors.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, bench.attempted, bench.failed, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process, so that each one's peak RSS
/// is its own, and passes their output through.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("lcbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("lcbench: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        correct &= out.status.success() && last.contains("\"correct\": true");
        attempted += json_count(last, "attempted");
        failed += json_count(last, "failed");
    }
    println!(
        "{}",
        metrics::result_line(correct, attempted.max(1), failed, &Values::default())
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads a whole-number field from a result line.
fn json_count(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    line.find(&pat)
        .map(|i| &line[i + pat.len()..])
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// One generated trace and the configuration that runs it.
struct Input {
    sub_seed: u64,
    trace: Trace,
    cfg: ExperimentConfig,
    horizon_ns: u64,
}

/// What the checking run of one input established.
struct Checked {
    report: ExperimentReport,
    counters: Vec<(String, u64)>,
    outcomes: Outcomes,
}

/// One untraced (or traced) timing run.
struct Timed {
    setup_s: f64,
    loop_s: f64,
    report_s: f64,
    cpu_s: f64,
    flows: u64,
    profile: Option<lazyctrl_obs::EngineProfile>,
}

/// One workload's run: its inputs, checks and bookkeeping.
struct Bench {
    workload: Workload,
    inputs: Vec<Input>,
    checked: Vec<Option<Checked>>,
    generate_s: f64,
    spans: Spans,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    layer_rows: String,
}

impl Bench {
    /// Generates the workload's traces from `seed`.
    fn new(workload: Workload, seed: u64) -> Bench {
        let mut spans = Spans::new();
        let start = Instant::now();
        let inputs = (0..workload.sub_traces())
            .map(|k| {
                let sub_seed = workload::sub_seed(seed, k);
                let trace = spans.time("trace.generate", |_| workload.trace(sub_seed));
                let cfg = workload.config(sub_seed, &trace);
                let horizon_ns = horizon_ns(&trace, &cfg);
                Input {
                    sub_seed,
                    trace,
                    cfg,
                    horizon_ns,
                }
            })
            .collect::<Vec<_>>();
        Bench {
            workload,
            checked: Vec::new(),
            generate_s: start.elapsed().as_secs_f64(),
            inputs,
            spans,
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
            layer_rows: String::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    /// Runs every input once with the per-flow log on and derives its
    /// outcomes.
    fn check_all(&mut self) {
        for k in 0..self.inputs.len() {
            let input = &self.inputs[k];
            let mut cfg = input.cfg.clone();
            cfg.record_flow_latencies = true;
            let responses = cfg.responses;
            let trace = input.trace.clone();
            let run = self.spans.time("bench.check_run", |s| {
                let exp = s.time("core.experiment_new", |_| Experiment::new(trace, cfg));
                s.time("core.run_detailed", |_| exp.run_detailed())
            });
            self.attempted += 1;
            let input = &self.inputs[k];
            let derived = self.spans.time("bench.derive_outcomes", |_| {
                outcome::derive(&input.trace, input.horizon_ns, responses, &run)
            });
            match derived {
                Ok(outcomes) => self.checked.push(Some(Checked {
                    report: run.report,
                    counters: run.counters,
                    outcomes,
                })),
                Err(e) => {
                    let msg = format!("{} trace {k}: {e}", self.workload.name());
                    self.fail(msg);
                    self.checked.push(None);
                }
            }
        }
    }

    /// One timing run of input `k` under `cfg`, checked against the
    /// input's checking run.
    fn timed(&mut self, k: usize, cfg: ExperimentConfig) -> Timed {
        let trace = self.inputs[k].trace.clone();
        let cpu0 = cpu_time_s();
        let t0 = Instant::now();
        let exp = self
            .spans
            .time("core.experiment_new", |_| Experiment::new(trace, cfg));
        let new_s = t0.elapsed().as_secs_f64();
        let run = self.spans.time("core.run_detailed", |_| exp.run_detailed());
        let cpu_s = cpu_time_s() - cpu0;
        self.attempted += 1;
        if let Some(c) = &self.checked[k] {
            if !same_report(&c.report, &run.report) {
                let msg = format!(
                    "{} trace {k}: a repeat's report differs from the checking run's",
                    self.workload.name()
                );
                self.fail(msg);
            }
        }
        Timed {
            setup_s: new_s + run.phases.build_s,
            loop_s: run.phases.run_s,
            report_s: run.phases.report_s,
            cpu_s,
            flows: run.report.flows_started,
            profile: run.obs.map(|o| o.profile),
        }
    }

    /// Outcomes and exact counts summed over every checked input.
    fn pooled(&self) -> Pooled {
        let mut p = Pooled::default();
        for c in self.checked.iter().flatten() {
            p.add(c);
        }
        p.setup_ns.sort_unstable();
        p
    }

    /// The end-to-end metrics.
    fn untraced(&mut self, seconds: f64) -> Values {
        let start = Instant::now();
        self.check_all();
        let n = self.inputs.len();
        // Each timed repeat, with its index in run order.
        let mut samples: Vec<Vec<(usize, Timed)>> = (0..n).map(|_| Vec::new()).collect();
        let mut peaks_kb: Vec<Vec<f64>> = (0..n).map(|_| Vec::new()).collect();
        // The host probe before the first repeat and after each one.
        let mut probes = vec![probe::seconds()];
        // Repeats go round the traces in turn. After `MIN_ROUNDS` rounds
        // the run stops before a repeat that would likely end past
        // `seconds`, judged by that trace's previous repeat, so a run
        // lasts about `seconds` however long one repeat takes.
        let mut last_s = vec![0.0; n];
        'rounds: for round in 0.. {
            for k in 0..n {
                let elapsed = start.elapsed().as_secs_f64();
                if round >= MIN_ROUNDS && elapsed + last_s[k] > seconds {
                    break 'rounds;
                }
                let cfg = self.inputs[k].cfg.clone();
                // Each repeat's own peak: not the checking runs' logs
                // and joins, nor memory an earlier repeat left mapped.
                reset_peak_rss();
                let t = self.timed(k, cfg);
                peaks_kb[k].push(peak_rss_kb() as f64);
                samples[k].push((probes.len() - 1, t));
                probes.push(probe::seconds());
                last_s[k] = start.elapsed().as_secs_f64() - elapsed;
            }
        }
        let repeats = probes.len() - 1;
        let flows: u64 = samples.iter().map(|s| s[0].1.flows).sum();
        // Repeat `i`'s host times scale by the nominal probe time over
        // the mean of the probes on either side of it.
        let scale = |i: usize| 2.0 * probe::NOMINAL_S / (probes[i] + probes[i + 1]);
        let unscaled = |_: usize| 1.0;
        let per_input = |f: fn(&Timed) -> f64, scale: &dyn Fn(usize) -> f64| -> f64 {
            samples
                .iter()
                .map(|s| median(&s.iter().map(|(i, t)| f(t) * scale(*i)).collect::<Vec<_>>()))
                .sum()
        };
        let setups = |scale: &dyn Fn(usize) -> f64| -> f64 {
            let all: Vec<f64> = samples
                .iter()
                .flatten()
                .map(|(i, t)| t.setup_s * scale(*i))
                .collect();
            median(&all)
        };
        let Pooled {
            started,
            failed,
            frames_undelivered,
            ctrl_msgs,
            setup_ns,
            ..
        } = self.pooled();
        let mut v = Values::default();
        v.set(
            "flows_per_s",
            flows as f64 / per_input(|t| t.loop_s, &scale),
        );
        v.set("cpu_s", per_input(|t| t.cpu_s, &scale));
        v.set("setup_s", setups(&scale));
        let peak_kb = peaks_kb.iter().map(|p| median(p)).fold(0.0, f64::max);
        v.set("peak_rss_mb", peak_kb / 1024.0);
        v.set(
            "setup_p50_ms",
            outcome::percentile(&setup_ns, 0.5) as f64 / 1e6,
        );
        v.set(
            "setup_p999_ms",
            outcome::percentile(&setup_ns, 0.999) as f64 / 1e6,
        );
        v.set(
            "ctrl_msgs_per_flow",
            ctrl_msgs as f64 / started.max(1) as f64,
        );
        v.set(
            "delivered_flow_frac",
            (started - failed) as f64 / started.max(1) as f64,
        );
        self.layer_rows = format!(
            "{}: {n} traces, {repeats} timed repeats; setup latency over {} delivered trace flows \
             ({} beyond p99.9); failed: {failed} of {started} started flows ({:.5}), and \
             {frames_undelivered} emitted frames never delivered, responses included\n\
             {}: host probe {:.4} s median ({:.4} to {:.4}) over {} probes, host times \
             scaled to {} s; unscaled: flows_per_s {:.1}, cpu_s {:.4}, setup_s {:.6}\n",
            self.workload.name(),
            setup_ns.len(),
            outcome::samples_beyond(setup_ns.len(), 0.999),
            failed as f64 / started.max(1) as f64,
            self.workload.name(),
            median(&probes),
            probes.iter().copied().fold(f64::INFINITY, f64::min),
            probes.iter().copied().fold(0.0, f64::max),
            probes.len(),
            probe::NOMINAL_S,
            flows as f64 / per_input(|t| t.loop_s, &unscaled),
            per_input(|t| t.cpu_s, &unscaled),
            setups(&unscaled),
        );
        v
    }

    /// The per-layer metrics.
    fn traced(&mut self) -> Values {
        self.check_all();
        let mut v = Values::default();
        let mut rows = String::new();
        let name = self.workload.name();
        let Some(Some(first)) = self.checked.first() else {
            return v;
        };
        let (first_report, first_counters) = (first.report.clone(), first.counters.clone());

        // Exact counts, pooled over every input's checking run.
        let c = self.pooled();
        let first_events = first_report.events_processed;
        v.set("sim.events", c.events as f64);
        v.set(
            "sim.events_per_flow",
            c.events as f64 / c.started.max(1) as f64,
        );
        v.set("switch.packet_ins", c.packet_ins as f64);
        v.set("bloom.fp_reports", c.fp_reports as f64);
        v.set(
            "bloom.fp_per_packet_in",
            ratio(c.fp_reports as f64, c.packet_ins as f64),
        );
        v.set("partition.regroup_updates", c.regroup_updates as f64);
        v.set("cluster.peer_sync_bytes", c.peer_sync_bytes as f64);
        v.set("cluster.lookups", c.lookups as f64);
        v.set("cluster.setups_shed", c.shed as f64);
        v.set(
            "cluster.admit_frac",
            ratio(c.requests as f64, (c.requests + c.shed) as f64),
        );
        v.set("cluster.queue_highwater", c.queue_highwater as f64);
        v.set("cluster.congestion_signals", c.congestion_signals as f64);
        v.set("cluster.lookup_timeouts", c.lookup_timeouts as f64);
        v.set(
            "core.failed_flow_frac",
            ratio(c.failed as f64, c.started as f64),
        );
        v.set("core.setup_samples", c.setup_ns.len() as f64);
        v.set("core.frames_undelivered", c.frames_undelivered as f64);
        v.set("trace.generate_s", self.generate_s);

        // Event-loop allocations, logged twice on the first input. Which
        // allocations fall in the margins at the loop's ends depends on
        // timing, so the two runs must fit one true count, and the run
        // with fewer ambiguous allocations is reported.
        let allocs = [self.loop_allocs(0), self.loop_allocs(0)];
        match allocs {
            [Ok(a), Ok(b)] if a.agrees(&b) => {
                let best = if a.ambiguous <= b.ambiguous { a } else { b };
                v.set(
                    "core.allocs_per_event",
                    ratio(best.count as f64, first_events as f64),
                );
                v.set(
                    "core.alloc_bytes_per_event",
                    ratio(best.bytes as f64, first_events as f64),
                );
                v.set("core.allocs_ambiguous", best.ambiguous as f64);
            }
            [Ok(a), Ok(b)] => self.fail(format!(
                "{name}: event-loop allocations did not repeat: {a:?} then {b:?}"
            )),
            [Err(e), _] | [_, Err(e)] => self.fail(format!("{name}: {e}")),
        }

        // Traced and untraced runs of the first input, interleaved.
        let base = self.inputs[0].cfg.clone();
        let traced_cfg = base.clone().with_obs(ObsConfig {
            dump_on_failure: false,
            ..ObsConfig::full()
        });
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut profile = None;
        let mut report_s = Vec::new();
        for _ in 0..OBS_PAIRS {
            let p = self.timed(0, base.clone());
            plain.push(p.loop_s);
            report_s.push(p.report_s);
            let t = self.timed(0, traced_cfg.clone());
            traced.push(t.loop_s);
            if profile.is_none() {
                profile = t.profile.map(|p| (p, t.loop_s));
            }
        }
        let plain_s = median(&plain);
        v.set("sim.events_per_s", first_events as f64 / plain_s);
        v.set("core.report_s", median(&report_s));
        v.set("obs.overhead_frac", (median(&traced) - plain_s) / plain_s);
        if let Some((profile, wall_s)) = profile {
            kind_metrics(&mut v, &mut rows, &profile, wall_s);
        } else {
            self.fail(format!("{name}: the traced run returned no profile"));
        }

        // Layer drivers on the first input.
        let input = &self.inputs[0];
        let trace = &input.trace;
        let cfg = &input.cfg;
        let (sub_seed, limit) = (input.sub_seed, cfg.group_size_limit);
        let bandwidth = cfg.bandwidth.clone();
        let mut spans = std::mem::replace(&mut self.spans, Spans::new());
        v.set(
            "sim.queue_ns",
            spans.time("sim.event_queue", |_| layers::queue_ns(trace)),
        );
        v.set(
            "switch.gfib_query_ns",
            spans.time("switch.gfib_query_into", |_| {
                layers::gfib_query_ns(trace, limit.saturating_sub(1))
            }),
        );
        v.set(
            "partition.inigroup_s",
            spans.time("partition.ini_group", |_| {
                layers::inigroup_s(trace, limit, sub_seed)
            }),
        );
        let counter = |n: &str| {
            first_counters
                .iter()
                .find(|(k, _)| k == n)
                .map_or(0, |&(_, x)| x)
        };
        let mix = layers::MessageMix {
            packet_ins: first_report.packet_ins,
            heartbeats: counter("ctrl_heartbeats"),
            lookups: counter("ctrl_lookups"),
            peer_syncs: counter("peer_syncs"),
        };
        let msgs = layers::mix_messages(trace, mix, 4096);
        match spans.time("proto.codec", |_| layers::codec_cost(&msgs)) {
            Ok(cost) => {
                v.set("proto.wire_len_ns", cost.wire_len_ns);
                v.set("proto.encode_ns", cost.encode_ns);
                v.set("proto.decode_ns", cost.decode_ns);
            }
            Err(e) => self.errors.push(format!("{name}: {e}")),
        }
        // Every message event crossed a control-plane channel, and each
        // one is priced when the workload capacitates those channels.
        let priced: f64 = [
            "switch.msg_count",
            "controller.msg_count",
            "cluster.peer_msg_count",
        ]
        .iter()
        .filter_map(|n| v.get(n))
        .sum();
        match spans.time("sim.bandwidth_delay", |_| {
            layers::bw_delay_ns(&bandwidth, trace, &msgs)
        }) {
            Some(ns) => {
                v.set("sim.bw_calls", priced);
                v.set("sim.bw_delay_ns", ns);
            }
            None => {
                v.set("sim.bw_calls", 0.0);
                v.set("sim.bw_delay_ns", 0.0);
            }
        }
        self.spans = spans;
        let controller_timers = v.get("controller.timer_count").unwrap_or(0.0);
        v.set(
            "partition.updates_per_timer",
            ratio(regroup_updates(&first_report) as f64, controller_timers),
        );

        // Emit in declaration order.
        let mut ordered = Values::default();
        for &(n, _) in metrics::PER_LAYER.iter() {
            ordered.set(n, v.get(n).unwrap_or(0.0));
        }
        self.layer_rows = rows;
        ordered
    }

    /// Event-loop allocations and bytes of one untraced run of input `k`,
    /// plus the allocations whose phase the timing cannot tell.
    fn loop_allocs(&mut self, k: usize) -> Result<LoopAllocs, String> {
        let input = &self.inputs[k];
        let (trace, cfg) = (input.trace.clone(), input.cfg.clone());
        let exp = Experiment::new(trace, cfg);
        let log = alloc::Log::arm(LOG_CAPACITY);
        let call_ns = alloc::anchor().elapsed().as_nanos() as u64;
        let run = exp.run_detailed();
        let entries = log.finish();
        self.attempted += 1;
        let entries = entries
            .map_err(|n| format!("allocation log overflowed: {n} allocations > {LOG_CAPACITY}"))?;
        if let Some(c) = &self.checked[k] {
            if !same_report(&c.report, &run.report) {
                self.failed += 1;
                return Err("the allocation-logged run's report differs".to_owned());
            }
        }
        Ok(loop_window(&entries, call_ns, &run))
    }
}

/// Allocation log entries the timing run may take.
const LOG_CAPACITY: usize = 8 << 20;

/// Splits a logged run's allocations by phase.
///
/// `run_detailed` reads its build-phase clock before anything else and
/// allocates right after it, so its start lies between `call_ns` (read
/// just before the call) and the first logged allocation. Shifting that
/// interval by the reported build and loop durations brackets the loop's
/// start and end; allocations inside a bracket are ambiguous and are
/// counted apart. The loop's true figures lie between the two counts and
/// their sums with the ambiguous ones.
fn loop_window(entries: &[alloc::Entry], call_ns: u64, run: &DetailedRun) -> LoopAllocs {
    let first_ns = entries
        .iter()
        .find(|e| e.at_ns >= call_ns)
        .map_or(call_ns, |e| e.at_ns);
    let build_ns = (run.phases.build_s * 1e9).round() as u64;
    let loop_ns = (run.phases.run_s * 1e9).round() as u64;
    let (start_lo, start_hi) = (call_ns + build_ns, first_ns + build_ns);
    let (end_lo, end_hi) = (start_lo + loop_ns, start_hi + loop_ns);
    let mut a = LoopAllocs::default();
    for e in entries {
        if e.at_ns >= start_hi && e.at_ns < end_lo {
            a.count += 1;
            a.bytes += e.bytes;
        } else if (start_lo..start_hi).contains(&e.at_ns) || (end_lo..end_hi).contains(&e.at_ns) {
            a.ambiguous += 1;
            a.ambiguous_bytes += e.bytes;
        }
    }
    a
}

/// Event-loop allocations of one logged run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct LoopAllocs {
    /// Allocations surely inside the loop.
    count: u64,
    bytes: u64,
    /// Allocations within the timing margin at either end of the loop.
    ambiguous: u64,
    ambiguous_bytes: u64,
}

impl LoopAllocs {
    /// Whether both runs fit one true count and byte total, each lying
    /// between a run's sure figure and that plus its ambiguous one.
    fn agrees(&self, o: &LoopAllocs) -> bool {
        self.count.max(o.count) <= (self.count + self.ambiguous).min(o.count + o.ambiguous)
            && self.bytes.max(o.bytes)
                <= (self.bytes + self.ambiguous_bytes).min(o.bytes + o.ambiguous_bytes)
    }
}

/// Outcomes and exact counts summed over checking runs.
#[derive(Debug, Default)]
struct Pooled {
    started: u64,
    failed: u64,
    frames_undelivered: u64,
    ctrl_msgs: u64,
    setup_ns: Vec<u64>,
    events: u64,
    packet_ins: u64,
    fp_reports: u64,
    regroup_updates: u64,
    peer_sync_bytes: u64,
    lookups: u64,
    shed: u64,
    requests: u64,
    queue_highwater: u64,
    congestion_signals: u64,
    lookup_timeouts: u64,
}

impl Pooled {
    fn add(&mut self, c: &Checked) {
        let counter = |n: &str| {
            c.counters
                .iter()
                .find(|(k, _)| k == n)
                .map_or(0, |&(_, x)| x)
        };
        let r = &c.report;
        self.started += c.outcomes.started();
        self.failed += c.outcomes.failed();
        self.frames_undelivered += c.outcomes.frames_undelivered;
        self.ctrl_msgs += r.controller_messages;
        self.setup_ns.extend_from_slice(&c.outcomes.setup_ns);
        self.events += r.events_processed;
        self.packet_ins += r.packet_ins;
        self.fp_reports += counter("fp_reports");
        self.regroup_updates += regroup_updates(r);
        self.lookups += counter("ctrl_lookups");
        if let Some(cl) = &r.cluster {
            self.peer_sync_bytes += cl.peer_sync_bytes.iter().sum::<u64>();
            self.shed += cl.setups_shed.iter().sum::<u64>();
            self.requests += cl.requests_per_controller.iter().sum::<u64>();
            self.queue_highwater = self
                .queue_highwater
                .max(cl.queue_highwater.iter().copied().max().unwrap_or(0));
            self.congestion_signals += cl.congestion_signals.iter().sum::<u64>();
            self.lookup_timeouts += cl.lookup_timeouts.iter().sum::<u64>();
        }
    }
}

/// Per-kind rows from the engine's sampled profile: mean sampled ns and
/// exact count per kind, each layer's extrapolated time and share of
/// sampled time, and the gap between extrapolated and loop wall time.
fn kind_metrics(
    v: &mut Values,
    rows: &mut String,
    profile: &lazyctrl_obs::EngineProfile,
    wall_s: f64,
) {
    use std::fmt::Write as _;
    let kinds = profile.kind_profiles();
    let sampled_total: f64 = kinds.iter().map(|k| k.ns.sum()).sum();
    let mut extrapolated_total = 0.0;
    let _ = writeln!(
        rows,
        "{:<18} {:>10} {:>9} {:>12} {:>14}",
        "kind", "count", "mean ns", "sampled share", "extrapolated s"
    );
    // Extrapolated seconds and sampled share of the kinds in `names`.
    let layer = |names: &[&str]| -> (f64, f64) {
        kinds
            .iter()
            .filter(|k| names.contains(&EVENT_KIND_NAMES[k.kind as usize]))
            .fold((0.0, 0.0), |(s, share), k| {
                let mean = k.ns.mean().unwrap_or(0.0);
                (
                    s + mean * k.count as f64 / 1e9,
                    share + ratio(k.ns.sum(), sampled_total),
                )
            })
    };
    let per_kind: [(&str, &'static str, &'static str); 8] = [
        (
            "local_frame",
            "switch.local_frame_ns",
            "switch.local_frame_count",
        ),
        (
            "tunnel_arrive",
            "switch.tunnel_arrive_ns",
            "switch.tunnel_arrive_count",
        ),
        ("msg_to_switch", "switch.msg_ns", "switch.msg_count"),
        ("switch_timer", "switch.timer_ns", "switch.timer_count"),
        (
            "msg_to_controller",
            "controller.msg_ns",
            "controller.msg_count",
        ),
        (
            "controller_timer",
            "controller.timer_ns",
            "controller.timer_count",
        ),
        (
            "ctrl_peer_msg",
            "cluster.peer_msg_ns",
            "cluster.peer_msg_count",
        ),
        ("cluster_timer", "cluster.timer_ns", "cluster.timer_count"),
    ];
    for (kind, ns_name, count_name) in per_kind {
        let k = kinds
            .iter()
            .find(|k| EVENT_KIND_NAMES[k.kind as usize] == kind);
        v.set(ns_name, k.and_then(|k| k.ns.mean()).unwrap_or(0.0));
        v.set(count_name, k.map_or(0.0, |k| k.count as f64));
    }
    let groups: [(&[&str], &'static str, &'static str); 4] = [
        (
            &[
                "local_frame",
                "tunnel_arrive",
                "msg_to_switch",
                "switch_timer",
            ],
            "switch.dispatch_s",
            "switch.sampled_share",
        ),
        (
            &["msg_to_controller", "controller_timer"],
            "controller.dispatch_s",
            "controller.sampled_share",
        ),
        (
            &["ctrl_peer_msg", "cluster_timer"],
            "cluster.dispatch_s",
            "cluster.sampled_share",
        ),
        (
            &["flow_arrival", "injected", "synthetic_flow"],
            "core.world_dispatch_s",
            "core.sampled_share",
        ),
    ];
    for (names, s_name, share_name) in groups {
        let (s, share) = layer(names);
        extrapolated_total += s;
        v.set(s_name, s);
        v.set(share_name, share);
    }
    for k in &kinds {
        let mean = k.ns.mean().unwrap_or(0.0);
        let _ = writeln!(
            rows,
            "{:<18} {:>10} {:>9.0} {:>12.4} {:>14.4}",
            EVENT_KIND_NAMES[k.kind as usize],
            k.count,
            mean,
            ratio(k.ns.sum(), sampled_total),
            mean * k.count as f64 / 1e9
        );
    }
    let gap = (extrapolated_total - wall_s) / wall_s;
    let _ = writeln!(
        rows,
        "sampled dispatch extrapolated to {extrapolated_total:.4} s against a {wall_s:.4} s \
         traced loop wall: gap {:+.1}% of wall (timer reads and sampling bias, not kernel time)",
        gap * 100.0
    );
    v.set("obs.loop_wall_s", wall_s);
    v.set("obs.sampled_extrapolated_s", extrapolated_total);
    v.set("obs.sampled_gap_frac", gap);
}

/// Incremental regrouping updates over the whole run.
fn regroup_updates(report: &ExperimentReport) -> u64 {
    report
        .updates_per_hour
        .iter()
        .map(|p| p.value.round() as u64)
        .sum()
}

/// True when two reports are bit-identical (floats compared by bits).
fn same_report(a: &ExperimentReport, b: &ExperimentReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The engine's run horizon: the configured one, or the trace's duration
/// plus an hour of drain.
fn horizon_ns(trace: &Trace, cfg: &ExperimentConfig) -> u64 {
    cfg.horizon_hours
        .map_or(trace.duration_ns + 3_600_000_000_000, |h| {
            (h * 3.6e12) as u64
        })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resets the kernel's resident-set high-water mark, so that the next
/// [`peak_rss_kb`] covers only what runs after it. Where the reset is
/// unsupported the mark stays process-wide.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's peak resident set (`VmHWM`), in kB.
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

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: user plus system CPU time of the
/// whole process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds this process has used.
fn cpu_time_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on), and the clock id
    // is a constant the kernel defines; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
