//! The flight recorder: a preallocated ring of compact trace records.
//!
//! Records are 32-byte `Copy` structs; pushing one is an index increment and
//! a slot write — no allocation, no branching beyond the wrap mask. When the
//! ring is full the oldest record is overwritten, so after a long run the
//! recorder holds the *tail* of history: exactly what you want when a verdict
//! fails at the end.

use serde::{Deserialize, Serialize};

/// One trace record. Meaning of `a`/`b` depends on `kind` (see
/// [`crate::intern::kind`]); `trace_id == 0` means "not flow-scoped".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Virtual time of the record, nanoseconds.
    pub t_ns: u64,
    /// Flow-scoped correlation ID (see [`pair_trace_id`]/[`dst_trace_id`]),
    /// or `0` when the record is not tied to a single flow.
    pub trace_id: u64,
    /// Record kind ([`crate::intern::kind`]).
    pub kind: u16,
    /// Originating subsystem ([`crate::intern::subsys`]).
    pub subsys: u16,
    /// Kind-specific payload (e.g. switch ID, controller ID, event kind).
    pub a: u32,
    /// Kind-specific payload (e.g. peer ID, output count).
    pub b: u32,
}

/// Trace ID for a (src, dst) host pair. Host IDs are offset by one so that
/// host 0 still produces a nonzero ID (`0` is reserved for "no flow").
pub fn pair_trace_id(src: u64, dst: u64) -> u64 {
    ((src + 1) << 32) | (dst + 1)
}

/// Trace ID for a destination-only record (FlowMods match on `dl_dst`, so
/// install-side records are only destination-joinable).
pub fn dst_trace_id(dst: u64) -> u64 {
    dst + 1
}

/// Destination host encoded in either form of trace ID (the low half).
pub fn trace_id_dst(trace_id: u64) -> u64 {
    (trace_id & 0xffff_ffff).wrapping_sub(1)
}

/// Recorder occupancy statistics, exported with every telemetry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecorderStats {
    /// Ring capacity in records (power of two).
    pub capacity: u64,
    /// Total records pushed over the run.
    pub recorded: u64,
    /// Records still in the ring (`min(recorded, capacity)`).
    pub retained: u64,
    /// Records overwritten by wraparound (`recorded - retained`).
    pub dropped: u64,
}

/// Fixed-capacity overwrite-oldest ring buffer of [`TraceRecord`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<TraceRecord>,
    mask: usize,
    /// Total records ever pushed; `head = recorded & mask` is the next slot.
    recorded: u64,
}

impl FlightRecorder {
    /// Create a recorder with at least `capacity` slots (rounded up to a
    /// power of two, minimum 8). The ring is preallocated up front so the
    /// hot path never allocates.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let zero = TraceRecord {
            t_ns: 0,
            trace_id: 0,
            kind: 0,
            subsys: 0,
            a: 0,
            b: 0,
        };
        Self {
            ring: vec![zero; cap],
            mask: cap - 1,
            recorded: 0,
        }
    }

    /// Push a record, overwriting the oldest if the ring is full.
    #[inline]
    pub fn push(&mut self, rec: TraceRecord) {
        let slot = (self.recorded as usize) & self.mask;
        self.ring[slot] = rec;
        self.recorded += 1;
    }

    /// Convenience push from parts.
    #[inline]
    pub fn record(&mut self, t_ns: u64, trace_id: u64, kind: u16, subsys: u16, a: u32, b: u32) {
        self.push(TraceRecord {
            t_ns,
            trace_id,
            kind,
            subsys,
            a,
            b,
        });
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.recorded.min(self.ring.len() as u64) as usize
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Total records ever pushed (hot-path counter read; see [`stats`]
    /// for the full occupancy breakdown).
    ///
    /// [`stats`]: FlightRecorder::stats
    #[inline]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> RecorderStats {
        let retained = self.len() as u64;
        RecorderStats {
            capacity: self.ring.len() as u64,
            recorded: self.recorded,
            retained,
            dropped: self.recorded - retained,
        }
    }

    /// Iterate retained records oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let len = self.len();
        let start = (self.recorded as usize).wrapping_sub(len);
        (0..len).map(move |i| &self.ring[(start + i) & self.mask])
    }

    /// Records for one flow, oldest → newest. Matches records whose
    /// `trace_id` equals `pair_trace_id(src, dst)` *or* `dst_trace_id(dst)`,
    /// so the destination-joinable FlowMod leg is included in the pair chain.
    pub fn flow_chain(&self, src: u64, dst: u64) -> Vec<TraceRecord> {
        let pair = pair_trace_id(src, dst);
        let dst_only = dst_trace_id(dst);
        self.iter()
            .filter(|r| r.trace_id == pair || r.trace_id == dst_only)
            .copied()
            .collect()
    }

    /// Clear all records (capacity is kept).
    pub fn clear(&mut self) {
        self.recorded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::kind;

    fn rec(t: u64, kind: u16) -> TraceRecord {
        TraceRecord {
            t_ns: t,
            trace_id: 0,
            kind,
            subsys: 0,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn record_is_compact() {
        assert!(std::mem::size_of::<TraceRecord>() <= 32);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRecorder::new(0).capacity(), 8);
        assert_eq!(FlightRecorder::new(9).capacity(), 16);
        assert_eq!(FlightRecorder::new(16).capacity(), 16);
    }

    #[test]
    fn wraparound_keeps_newest() {
        let mut fr = FlightRecorder::new(8);
        for t in 0..20 {
            fr.push(rec(t, 0));
        }
        let stats = fr.stats();
        assert_eq!(stats.capacity, 8);
        assert_eq!(stats.recorded, 20);
        assert_eq!(stats.retained, 8);
        assert_eq!(stats.dropped, 12);
        let times: Vec<u64> = fr.iter().map(|r| r.t_ns).collect();
        assert_eq!(times, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn flow_chain_joins_pair_and_dst_ids() {
        let mut fr = FlightRecorder::new(64);
        let (src, dst) = (3, 7);
        fr.record(10, pair_trace_id(src, dst), kind::FLOW_START, 4, 0, 0);
        fr.record(20, pair_trace_id(src, dst), kind::PACKET_IN_SENT, 1, 0, 0);
        fr.record(30, dst_trace_id(dst), kind::FLOW_MOD_SENT, 2, 0, 0);
        fr.record(35, pair_trace_id(9, 9), kind::FLOW_START, 4, 0, 0); // other flow
        fr.record(40, dst_trace_id(dst), kind::FLOW_MOD_RECV, 1, 0, 0);
        fr.record(50, pair_trace_id(src, dst), kind::FRAME_DELIVERED, 1, 0, 0);
        let chain = fr.flow_chain(src, dst);
        let kinds: Vec<u16> = chain.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                kind::FLOW_START,
                kind::PACKET_IN_SENT,
                kind::FLOW_MOD_SENT,
                kind::FLOW_MOD_RECV,
                kind::FRAME_DELIVERED
            ]
        );
        assert_eq!(trace_id_dst(chain[0].trace_id), dst);
    }
}
