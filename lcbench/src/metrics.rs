//! Metric names, units and the benchmark's result line.

use std::fmt::Write as _;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("flows_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_p50_ms", "ms"),
    ("setup_p999_ms", "ms"),
    ("ctrl_msgs_per_flow", "count"),
    ("delivered_flow_frac", "fraction"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("sim.events", "count"),
    ("sim.events_per_flow", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.queue_ns", "ns"),
    ("sim.bw_calls", "count"),
    ("sim.bw_delay_ns", "ns"),
    ("core.allocs_per_event", "count"),
    ("core.alloc_bytes_per_event", "B"),
    ("core.allocs_ambiguous", "count"),
    ("core.world_dispatch_s", "s"),
    ("core.report_s", "s"),
    ("core.sampled_share", "fraction"),
    ("core.failed_flow_frac", "fraction"),
    ("core.setup_samples", "count"),
    ("core.frames_undelivered", "count"),
    ("switch.dispatch_s", "s"),
    ("switch.sampled_share", "fraction"),
    ("switch.local_frame_ns", "ns"),
    ("switch.local_frame_count", "count"),
    ("switch.tunnel_arrive_ns", "ns"),
    ("switch.tunnel_arrive_count", "count"),
    ("switch.msg_ns", "ns"),
    ("switch.msg_count", "count"),
    ("switch.timer_ns", "ns"),
    ("switch.timer_count", "count"),
    ("switch.packet_ins", "count"),
    ("switch.gfib_query_ns", "ns"),
    ("bloom.fp_reports", "count"),
    ("bloom.fp_per_packet_in", "fraction"),
    ("controller.dispatch_s", "s"),
    ("controller.sampled_share", "fraction"),
    ("controller.msg_ns", "ns"),
    ("controller.msg_count", "count"),
    ("controller.timer_ns", "ns"),
    ("controller.timer_count", "count"),
    ("partition.inigroup_s", "s"),
    ("partition.regroup_updates", "count"),
    ("partition.updates_per_timer", "count"),
    ("cluster.dispatch_s", "s"),
    ("cluster.sampled_share", "fraction"),
    ("cluster.peer_msg_ns", "ns"),
    ("cluster.peer_msg_count", "count"),
    ("cluster.timer_ns", "ns"),
    ("cluster.timer_count", "count"),
    ("cluster.peer_sync_bytes", "B"),
    ("cluster.lookups", "count"),
    ("cluster.setups_shed", "count"),
    ("cluster.admit_frac", "fraction"),
    ("cluster.queue_highwater", "count"),
    ("cluster.congestion_signals", "count"),
    ("cluster.lookup_timeouts", "count"),
    ("proto.wire_len_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("trace.generate_s", "s"),
    ("obs.overhead_frac", "fraction"),
    ("obs.loop_wall_s", "s"),
    ("obs.sampled_extrapolated_s", "s"),
    ("obs.sampled_gap_frac", "fraction"),
];

#[cfg(test)]
/// True when `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit a metric is declared with.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Named metric values in declaration order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    /// Sets a metric's value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "undeclared metric {name}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The benchmark's last output line: one JSON object with `correct`,
/// `attempted`, `failed` and every metric with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, &(name, value)) in values.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let unit = unit_of(name).unwrap_or("count");
        // JSON has no NaN or infinity; a metric without a value reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
