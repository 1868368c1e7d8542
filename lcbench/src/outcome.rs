//! Per-flow outcomes derived from a run's delivery log, and the checks
//! that every started flow ends delivered or counted failed.
//!
//! The report's `delivered_flows` counter also counts response frames and
//! duplicate deliveries, so outcomes come from the per-flow log
//! (`record_flow_latencies`) joined against the trace instead.

use std::collections::{HashMap, HashSet};

use lazyctrl_core::DetailedRun;
use lazyctrl_trace::Trace;

/// The delay between a fresh pair's ARP request and its data frame.
const ARP_LEAD_NS: u64 = 1_000_000;
/// The delay between a first delivery and the destination's response.
const RESPONSE_DELAY_NS: u64 = 200_000;

/// What became of every started flow and every emitted frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcomes {
    /// Trace flows started (arrival at or before the horizon).
    pub trace_started: u64,
    /// Flows injected by traffic bursts (`burst_flows`).
    pub burst_started: u64,
    /// Trace flows whose data frame reached the destination host.
    pub trace_delivered: u64,
    /// Burst flows whose data frame reached the destination host.
    pub burst_delivered: u64,
    /// Emitted frames never delivered, responses included.
    pub frames_undelivered: u64,
    /// Virtual ns from each delivered trace flow's arrival in the trace
    /// to its first data frame reaching the destination, sorted.
    pub setup_ns: Vec<u64>,
}

impl Outcomes {
    /// Flows started: trace plus injected.
    pub fn started(&self) -> u64 {
        self.trace_started + self.burst_started
    }

    /// Started flows whose data never reached the destination.
    pub fn failed(&self) -> u64 {
        self.started() - self.trace_delivered - self.burst_delivered
    }
}

/// Nearest-rank percentile of sorted samples (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile's position.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Joins a run's delivery log against its trace and checks that every
/// started flow and every emitted frame is accounted for.
///
/// # Errors
///
/// Returns a description of the first accounting rule the run breaks.
pub fn derive(
    trace: &Trace,
    horizon_ns: u64,
    responses: bool,
    run: &DetailedRun,
) -> Result<Outcomes, String> {
    let counter = |name: &str| {
        run.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    };
    let report = &run.report;
    let log = &run.flow_latencies;
    if log.len() as u64 != report.delivered_flows {
        return Err(format!(
            "delivery log holds {} frames but the report counts {} deliveries",
            log.len(),
            report.delivered_flows
        ));
    }

    // Every delivery keyed by (src, dst, emit ns), with its delivery time.
    let mut deliveries: HashMap<(u32, u32, u64), Vec<u64>> = HashMap::new();
    let mut delivered_at: HashSet<(u32, u32, u64)> = HashSet::new();
    let mut pairs: HashSet<(u32, u32)> = HashSet::new();
    for &((src, dst, emit), ms) in log {
        let at = emit + (ms * 1e6).round() as u64;
        deliveries.entry((src, dst, emit)).or_default().push(at);
        delivered_at.insert((src, dst, at));
        pairs.insert((src.min(dst), src.max(dst)));
    }
    for times in deliveries.values_mut() {
        times.sort_unstable();
        times.reverse();
    }

    let mut trace_started = 0u64;
    let mut setup_ns = Vec::new();
    let mut matched: HashSet<(u32, u32, u64)> = HashSet::new();
    for f in trace.flows.iter().filter(|f| f.time_ns <= horizon_ns) {
        trace_started += 1;
        let (src, dst) = (f.src.0, f.dst.0);
        for emit in [f.time_ns, f.time_ns + ARP_LEAD_NS] {
            let key = (src, dst, emit);
            if matched.contains(&key) {
                continue;
            }
            if let Some(&first) = deliveries.get(&key).and_then(|t| t.last()) {
                setup_ns.push(first - f.time_ns);
                matched.insert(key);
                break;
            }
        }
    }
    let trace_delivered = setup_ns.len() as u64;
    setup_ns.sort_unstable();

    let mut duplicate_deliveries = 0u64;
    let mut responses_delivered = 0u64;
    let mut burst_delivered = 0u64;
    for (&(src, dst, emit), times) in &deliveries {
        duplicate_deliveries += times.len() as u64 - 1;
        if matched.contains(&(src, dst, emit)) {
            continue;
        }
        let is_response = emit >= RESPONSE_DELAY_NS
            && delivered_at.contains(&(dst, src, emit - RESPONSE_DELAY_NS));
        if is_response {
            responses_delivered += 1;
        } else {
            burst_delivered += 1;
        }
    }

    let burst_started = counter("burst_flows");
    let flows_started = report.flows_started;
    if trace_started + burst_started != flows_started {
        return Err(format!(
            "{trace_started} trace flows plus {burst_started} burst flows != {flows_started} started"
        ));
    }
    if burst_delivered > burst_started {
        return Err(format!(
            "{burst_delivered} unmatched deliveries exceed the {burst_started} burst flows"
        ));
    }
    let frames_emitted = counter("frames_emitted");
    let ingress_down = counter("ingress_down_drops");
    let responses_emitted = if responses { pairs.len() as u64 } else { 0 };
    let expected = flows_started - ingress_down + responses_emitted;
    if frames_emitted != expected {
        return Err(format!(
            "{frames_emitted} frames emitted, but {flows_started} started flows less \
             {ingress_down} dropped at a dark ingress plus {responses_emitted} responses \
             make {expected}"
        ));
    }
    if responses_delivered > responses_emitted {
        return Err(format!(
            "{responses_delivered} responses delivered but only {responses_emitted} emitted"
        ));
    }
    let unique_deliveries = report.delivered_flows - duplicate_deliveries;
    Ok(Outcomes {
        trace_started,
        burst_started,
        trace_delivered,
        burst_delivered,
        frames_undelivered: frames_emitted - unique_deliveries,
        setup_ns,
    })
}
