//! Spans around the benchmark's calls into each layer, and drivers that
//! time single layers' public functions on inputs taken from a workload's
//! trace and seed.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use lazyctrl_core::{BandwidthModel, ChannelClass};
use lazyctrl_net::{MacAddr, PortNo, SwitchId};
use lazyctrl_partition::{Sgi, SgiConfig};
use lazyctrl_proto::codec::MessageCodec;
use lazyctrl_proto::{
    Action, ClusterMsg, CtrlHeartbeatMsg, FlowMatch, FlowModCommand, FlowModMsg, HostEntry,
    LookupRequestMsg, Message, OfMessage, PacketInMsg, PacketInReason, PeerSyncMsg,
};
use lazyctrl_sim::{EventQueue, LinkId, SimTime};
use lazyctrl_switch::{build_gfib_update, Gfib};
use lazyctrl_trace::intensity::IntensityMatrix;
use lazyctrl_trace::Trace;

/// Minimum host time each driver measures, so that one timer read is a
/// negligible share of it.
const DRIVER_MIN_S: f64 = 0.2;

/// One span: a named interval of the benchmark's own calls.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function the span covers, named `<crate>.<call>`.
    pub name: &'static str,
    /// Start, ns since the span log's origin.
    pub start_ns: u64,
    /// End, ns since the span log's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Spans kept in memory and written out when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty log whose times count from now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Repeats `pass` until at least [`DRIVER_MIN_S`] has passed, and returns
/// host ns per operation, given the operations one pass performs.
fn ns_per_op(ops_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        pass();
        passes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= DRIVER_MIN_S {
            return elapsed * 1e9 / (passes as f64 * ops_per_pass.max(1) as f64);
        }
    }
}

/// `sim.queue_ns`: host ns per schedule plus pop on an [`EventQueue`] fed
/// with the trace's own flow arrival times.
pub fn queue_ns(trace: &Trace) -> f64 {
    let times: Vec<SimTime> = trace
        .flows
        .iter()
        .map(|f| SimTime::from_nanos(f.time_ns))
        .collect();
    ns_per_op(times.len(), || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i as u32);
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    })
}

/// `switch.gfib_query_ns`: host ns per [`Gfib::query_into`] on a G-FIB
/// holding `peers` peer filters built from the trace's hosts, queried for
/// the trace's destination MACs.
pub fn gfib_query_ns(trace: &Trace, peers: usize) -> f64 {
    let by_switch = trace.topology.hosts_by_switch();
    let mut gfib = Gfib::new();
    for (s, hosts) in by_switch.iter().enumerate().skip(1).take(peers) {
        let update = build_gfib_update(SwitchId::new(s as u32), 1, hosts.iter().map(|h| h.mac()));
        gfib.apply_update(&update);
    }
    let macs: Vec<MacAddr> = trace.flows.iter().map(|f| f.dst.mac()).collect();
    let mut out = Vec::new();
    ns_per_op(macs.len(), || {
        for &mac in &macs {
            out.clear();
            gfib.query_into(mac, &mut out);
            black_box(&out);
        }
    })
}

/// `partition.inigroup_s`: host seconds per bootstrap grouping of the
/// trace's first-hour intensity graph, configured as the controller
/// configures it.
pub fn inigroup_s(trace: &Trace, group_size_limit: usize, seed: u64) -> f64 {
    let graph = IntensityMatrix::from_trace_window(trace, 0, 3_600_000_000_000).to_graph();
    let cfg = SgiConfig::new(group_size_limit)
        .with_thresholds(0.0, 0.0)
        .with_min_improvement(0.10)
        .with_seed(seed)
        .with_parallelism(1);
    let (mut busy_s, mut calls) = (0.0, 0u32);
    while busy_s < DRIVER_MIN_S {
        let g = graph.clone();
        let start = Instant::now();
        let sgi = Sgi::ini_group(g, cfg.clone());
        busy_s += start.elapsed().as_secs_f64();
        black_box(sgi.partition().num_groups());
        calls += 1;
    }
    busy_s / f64::from(calls)
}

/// Message counts that set the codec and bandwidth drivers' mix.
#[derive(Debug, Clone, Copy, Default)]
pub struct MessageMix {
    /// PacketIns (each answered by one FlowMod).
    pub packet_ins: u64,
    /// Controller heartbeats.
    pub heartbeats: u64,
    /// Peer host lookups.
    pub lookups: u64,
    /// Peer syncs.
    pub peer_syncs: u64,
}

/// Builds `n` messages drawn in the mix's proportions, with hosts and
/// switches taken from the trace's flows.
pub fn mix_messages(trace: &Trace, mix: MessageMix, n: usize) -> Vec<Message> {
    let weights = [
        mix.packet_ins,
        mix.packet_ins,
        mix.heartbeats,
        mix.lookups,
        mix.peer_syncs,
    ];
    let total: u64 = weights.iter().sum::<u64>().max(1);
    let mut out = Vec::with_capacity(n);
    for (i, f) in trace.flows.iter().cycle().take(n).enumerate() {
        // Deterministic stratified pick: message i takes the kind whose
        // cumulative weight covers i's position in the mix.
        let pos = (i as u64 * total / n as u64) % total;
        let mut acc = 0;
        let kind = weights
            .iter()
            .position(|&w| {
                acc += w;
                pos < acc
            })
            .unwrap_or(0);
        let sw = trace.topology.switch_of(f.dst);
        let xid = i as u32;
        let msg = match kind {
            0 => Message::of(
                xid,
                OfMessage::PacketIn(PacketInMsg {
                    buffer_id: u32::MAX,
                    in_port: PortNo((f.src.0 % 48) as u16 + 1),
                    reason: PacketInReason::NoMatch,
                    data: f.time_ns.to_be_bytes().to_vec().into(),
                }),
            ),
            1 => Message::of(
                xid,
                OfMessage::flow_mod(FlowModMsg {
                    command: FlowModCommand::Add,
                    flow_match: FlowMatch::for_pair(f.src.mac(), f.dst.mac()),
                    priority: 100,
                    idle_timeout: 60,
                    hard_timeout: 0,
                    cookie: f.time_ns,
                    actions: vec![Action::Output(PortNo((f.dst.0 % 48) as u16 + 1))],
                }),
            ),
            2 => Message::cluster(
                xid,
                ClusterMsg::Heartbeat(CtrlHeartbeatMsg {
                    from: i as u32 % 4,
                    seq: i as u64,
                    load_rps: 100.0,
                    owned_groups: 8,
                    term: 1,
                    leader: i % 4 == 0,
                }),
            ),
            3 => Message::cluster(
                xid,
                ClusterMsg::LookupRequest(LookupRequestMsg {
                    from: i as u32 % 4,
                    mac: f.dst.mac(),
                }),
            ),
            _ => Message::cluster(
                xid,
                ClusterMsg::PeerSync(Box::new(PeerSyncMsg {
                    origin: i as u32 % 4,
                    seq: i as u64,
                    chunk: 0,
                    summary: false,
                    entries: vec![HostEntry {
                        mac: f.dst.mac(),
                        switch: sw,
                        port: PortNo((f.dst.0 % 48) as u16 + 1),
                        tenant: trace.topology.tenant_of(f.dst),
                    }],
                    removed: Vec::new(),
                })),
            ),
        };
        out.push(msg);
    }
    out
}

/// Host ns per message for `wire_len`, `encode` and framed decode through
/// [`MessageCodec`].
#[derive(Debug, Clone, Copy)]
pub struct CodecCost {
    /// ns per [`Message::wire_len`].
    pub wire_len_ns: f64,
    /// ns per [`Message::encode`].
    pub encode_ns: f64,
    /// ns per message framed and decoded by [`MessageCodec`].
    pub decode_ns: f64,
}

/// Times the codec over `msgs`.
///
/// # Errors
///
/// Fails when a decoded message differs from the one encoded, or when
/// `wire_len` disagrees with the encoded length.
pub fn codec_cost(msgs: &[Message]) -> Result<CodecCost, String> {
    let mut wire = Vec::new();
    for m in msgs {
        let bytes = m.encode();
        if bytes.len() != m.wire_len() {
            return Err(format!(
                "wire_len {} != encoded length {} for {m:?}",
                m.wire_len(),
                bytes.len()
            ));
        }
        wire.extend_from_slice(&bytes);
    }
    let mut codec = MessageCodec::new();
    codec.feed(&wire);
    let decoded = codec
        .drain()
        .map_err(|e| format!("codec rejected its own bytes: {e}"))?;
    if decoded != msgs {
        return Err("decoded messages differ from the encoded ones".to_owned());
    }
    let wire_len_ns = ns_per_op(msgs.len(), || {
        for m in msgs {
            black_box(black_box(m).wire_len());
        }
    });
    let encode_ns = ns_per_op(msgs.len(), || {
        for m in msgs {
            black_box(black_box(m).encode());
        }
    });
    let decode_ns = ns_per_op(msgs.len(), || {
        let mut codec = MessageCodec::new();
        codec.feed(black_box(&wire));
        while let Ok(Some(m)) = codec.next_message() {
            black_box(m);
        }
    });
    Ok(CodecCost {
        wire_len_ns,
        encode_ns,
        decode_ns,
    })
}

/// `sim.bw_delay_ns`: host ns per [`BandwidthModel::delay`] call under the
/// workload's capacities, pricing `msgs` on switch-to-controller links at
/// the trace's arrival times. Returns `None` when the model prices nothing.
pub fn bw_delay_ns(model: &BandwidthModel, trace: &Trace, msgs: &[Message]) -> Option<f64> {
    if !model.class_enabled(ChannelClass::Control) {
        return None;
    }
    let calls: Vec<(LinkId, u64, SimTime)> = msgs
        .iter()
        .zip(trace.flows.iter().cycle())
        .map(|(m, f)| {
            let from = trace.topology.switch_of(f.src).0;
            let link = LinkId::new(from, SwitchId::CONTROLLER.0, ChannelClass::Control);
            (link, m.wire_len() as u64, SimTime::from_nanos(f.time_ns))
        })
        .collect();
    Some(ns_per_op(calls.len(), || {
        let mut model = model.clone();
        for &(link, bytes, now) in &calls {
            black_box(model.delay(link, bytes, now));
        }
    }))
}
