//! Hot-path benches: the timing wheel against the heap reference, end-to-end
//! flow-setup throughput, message-dispatch micro-benches (sink-vs-Vec
//! handler dispatch, boxed-vs-inline `Message` moves), and the cluster
//! dissemination strategies — one `cargo bench -p lazyctrl-bench --bench
//! perf` entry point for the numbers `repro_perf` tracks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lazyctrl_core::{ControlMode, DisseminationStrategy, Experiment, ExperimentConfig};
use lazyctrl_net::{EtherType, EthernetFrame, HostId, PortNo, SwitchId, TenantId, VlanTag};
use lazyctrl_proto::{
    ClusterMsg, GroupAssignMsg, KeepAliveMsg, LazyMsg, Message, OfMessage, OutputSink, PacketInMsg,
    PacketInReason,
};
use lazyctrl_sim::{EventQueue, HeapQueue, SimDuration, SimTime};
use lazyctrl_switch::{EdgeSwitch, SwitchOutput};
use lazyctrl_trace::realistic::{generate as generate_real, RealTraceConfig};
use lazyctrl_trace::synthetic::{generate as generate_syn, SyntheticConfig};

fn cluster_trace() -> lazyctrl_trace::Trace {
    let mut tc = RealTraceConfig::small();
    tc.num_flows = 3_000;
    generate_real(&tc)
}

/// The two queues the `event_queue` bench drives side by side.
trait BenchQueue: Default {
    fn schedule(&mut self, at: SimTime, event: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl BenchQueue for EventQueue<u64> {
    fn schedule(&mut self, at: SimTime, event: u64) {
        EventQueue::schedule(self, at, event)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
}

impl BenchQueue for HeapQueue<u64> {
    fn schedule(&mut self, at: SimTime, event: u64) {
        HeapQueue::schedule(self, at, event)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        HeapQueue::pop(self)
    }
}

/// Mimics a simulation's schedule shape: a large pre-scheduled horizon
/// (flow arrivals) plus short-delay churn (deliveries, timers) popped in
/// order.
fn drive_queue<Q: BenchQueue>(pre: u64, churn: u64) -> u64 {
    let mut q = Q::default();
    // Pre-schedule `pre` arrivals spread over 24 virtual hours.
    let horizon_ns: u64 = 24 * 3_600_000_000_000;
    for i in 0..pre {
        q.schedule(SimTime::from_nanos(i * (horizon_ns / pre)), i);
    }
    let mut handled = 0u64;
    while let Some((now, ev)) = q.pop() {
        handled += 1;
        // Every popped pre-scheduled event chains `churn` short-delay
        // follow-ups (sub-ms latencies), like frame deliveries would.
        if ev < pre {
            for c in 0..churn {
                q.schedule(now + SimDuration::from_micros(50 + 150 * c), pre + handled);
            }
        }
    }
    handled
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    group.bench_function("wheel", |b| {
        b.iter(|| drive_queue::<EventQueue<u64>>(20_000, 4))
    });
    group.bench_function("heap", |b| {
        b.iter(|| drive_queue::<HeapQueue<u64>>(20_000, 4))
    });
    group.finish();
}

fn bench_flow_setup_throughput(c: &mut Criterion) {
    let trace = generate_syn(&SyntheticConfig::syn_a().scaled_down(32));
    let mut group = c.benchmark_group("flow_setup_throughput");
    group.sample_size(10);
    group.bench_function("syn_a_32", |b| {
        b.iter(|| {
            let cfg = ExperimentConfig::new(ControlMode::LazyStatic)
                .with_group_size_limit(46)
                .with_seed(7);
            Experiment::new(trace.clone(), cfg).run()
        })
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// message_dispatch: the two hot-path layouts, individually attributable
// ---------------------------------------------------------------------------

/// A grouped switch with a locally learned host, ready to forward.
fn dispatch_switch() -> EdgeSwitch {
    let mut sw = EdgeSwitch::new(SwitchId::new(1));
    let ga = GroupAssignMsg {
        group: lazyctrl_net::GroupId::new(0),
        epoch: 1,
        members: vec![SwitchId::new(1), SwitchId::new(2), SwitchId::new(3)],
        designated: SwitchId::new(2),
        backups: vec![SwitchId::new(3)],
        ring_prev: SwitchId::new(3),
        ring_next: SwitchId::new(2),
        sync_interval_ms: 1000,
        keepalive_interval_ms: 1000,
        group_size_limit: 3,
    };
    let mut sink = OutputSink::new();
    sw.handle_control_message(0, &Message::lazy(1, LazyMsg::group_assign(ga)), &mut sink);
    sink.clear();
    // Host 20 is local on port 7 → traffic to it is a pure datapath hit.
    let learn = EthernetFrame::tagged(
        HostId::new(20).mac(),
        HostId::new(99).mac(),
        VlanTag::for_tenant(TenantId::new(1)),
        EtherType::IPV4,
        vec![0; 8],
    );
    sw.handle_local_frame(0, PortNo::new(7), learn, &mut sink);
    sink.clear();
    sw
}

/// Sink-vs-Vec handler dispatch: the same warm-path frame handled with
/// the world's reused scratch sink versus a fresh sink per event (the
/// allocation pattern the old `Vec<SwitchOutput>` returns had). The gap
/// between the two is exactly the per-event allocation cost the sink
/// refactor removed.
fn bench_handler_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("message_dispatch/handler");
    let frame = EthernetFrame::tagged(
        HostId::new(10).mac(),
        HostId::new(20).mac(),
        VlanTag::for_tenant(TenantId::new(1)),
        EtherType::IPV4,
        vec![0; 8],
    );
    group.bench_function("sink_reused", |b| {
        let mut sw = dispatch_switch();
        let mut sink = OutputSink::new();
        let mut now = 0u64;
        b.iter(|| {
            now += 1_000;
            sw.handle_local_frame(now, PortNo::new(1), frame.clone(), &mut sink);
            let n = sink.len();
            sink.clear();
            n
        })
    });
    group.bench_function("sink_fresh_per_event", |b| {
        let mut sw = dispatch_switch();
        let mut now = 0u64;
        b.iter(|| {
            now += 1_000;
            let mut sink: OutputSink<SwitchOutput> = OutputSink::new();
            sw.handle_local_frame(now, PortNo::new(1), frame.clone(), &mut sink);
            sink.len()
        })
    });
    group.finish();
}

/// The pre-boxing ~88-byte message layout, reconstructed locally: the
/// same families with every payload inline. Only used to move through a
/// scheduler, so the variants never need constructing beyond the two
/// hot ones.
#[allow(dead_code)]
#[derive(Clone)]
enum InlineBody {
    Of(OfMessage),
    Lazy(InlineLazy),
    Cluster(ClusterMsg),
}

#[allow(dead_code)]
#[derive(Clone)]
enum InlineLazy {
    GroupAssign(GroupAssignMsg),
    KeepAlive(KeepAliveMsg),
}

#[allow(dead_code)]
#[derive(Clone)]
struct InlineMessage {
    xid: u32,
    body: InlineBody,
}

/// Boxed-vs-inline `Message` moves: a realistic hot mix (PacketIns and
/// keep-alives) scheduled and popped through the timing wheel, once as
/// today's ≤64-byte boxed-variant `Message` and once as the old fully
/// inline layout. The delta is the per-entry copy cost the boxing
/// removed from every scheduler entry and channel hop.
fn bench_message_moves(c: &mut Criterion) {
    let mut group = c.benchmark_group("message_dispatch/moves");
    let frame = EthernetFrame::tagged(
        HostId::new(10).mac(),
        HostId::new(20).mac(),
        VlanTag::for_tenant(TenantId::new(1)),
        EtherType::IPV4,
        vec![0; 8],
    );
    let data = bytes::Bytes::from(frame.encode());
    let packet_in = |xid: u32| {
        OfMessage::PacketIn(PacketInMsg {
            buffer_id: u32::MAX,
            in_port: PortNo::new(1),
            reason: PacketInReason::NoMatch,
            data: data.clone(),
        })
        .pipe_of(xid)
    };
    let keepalive = |xid: u32| {
        Message::lazy(
            xid,
            LazyMsg::KeepAlive(KeepAliveMsg {
                from: SwitchId::new(7),
                seq: xid as u64,
            }),
        )
    };
    const N: u32 = 4_096;
    group.bench_function("boxed_message_64b", |b| {
        b.iter(|| {
            let mut q: EventQueue<Message> = EventQueue::new();
            for i in 0..N {
                let msg = if i % 4 == 0 {
                    keepalive(i)
                } else {
                    packet_in(i)
                };
                q.schedule(SimTime::from_nanos(i as u64 * 50_000), msg);
            }
            let mut n = 0u32;
            while let Some((_, msg)) = q.pop() {
                n = n.wrapping_add(msg.xid);
            }
            n
        })
    });
    group.bench_function("inline_message_88b", |b| {
        b.iter(|| {
            let mut q: EventQueue<InlineMessage> = EventQueue::new();
            for i in 0..N {
                let body = if i % 4 == 0 {
                    InlineBody::Lazy(InlineLazy::KeepAlive(KeepAliveMsg {
                        from: SwitchId::new(7),
                        seq: i as u64,
                    }))
                } else {
                    InlineBody::Of(OfMessage::PacketIn(PacketInMsg {
                        buffer_id: u32::MAX,
                        in_port: PortNo::new(1),
                        reason: PacketInReason::NoMatch,
                        data: data.clone(),
                    }))
                };
                q.schedule(
                    SimTime::from_nanos(i as u64 * 50_000),
                    InlineMessage { xid: i, body },
                );
            }
            let mut n = 0u32;
            while let Some((_, msg)) = q.pop() {
                n = n.wrapping_add(msg.xid);
            }
            n
        })
    });
    group.finish();
}

/// Small helper: wrap an [`OfMessage`] like `Message::of` (kept local so
/// the closure above reads naturally).
trait PipeOf {
    fn pipe_of(self, xid: u32) -> Message;
}
impl PipeOf for OfMessage {
    fn pipe_of(self, xid: u32) -> Message {
        Message::of(xid, self)
    }
}

fn bench_dissemination(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_dissemination");
    group.sample_size(10);
    for strategy in [
        DisseminationStrategy::Flood,
        DisseminationStrategy::Ring,
        DisseminationStrategy::tree(),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, &s| {
                b.iter(|| {
                    let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic)
                        .with_group_size_limit(8)
                        .with_seed(3)
                        .with_cluster(8)
                        .with_horizon_hours(2.0)
                        .with_dissemination(s)
                        .with_cluster_flush_ms(20_000);
                    cfg.sync_interval_ms = 10_000;
                    Experiment::new(cluster_trace(), cfg).run()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_flow_setup_throughput,
    bench_handler_dispatch,
    bench_message_moves,
    bench_dissemination
);
criterion_main!(benches);
