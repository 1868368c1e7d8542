//! The benchmark's workloads: a trace generated from the seed plus the
//! experiment configuration that runs it.
//!
//! Every workload drives one process on one thread: the sequential engine
//! (`workers: None`) and `sgi_parallelism: 1`.

use lazyctrl_core::{
    BandwidthModel, ChannelClass, ControlMode, DisseminationStrategy, EventPlan, ExperimentConfig,
};
use lazyctrl_trace::realistic::{generate as generate_real, RealTraceConfig};
use lazyctrl_trace::synthetic::{generate as generate_syn, SyntheticConfig};
use lazyctrl_trace::Trace;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Syn-A trace on a four-member cluster with every control class
    /// capacitated, bounded ingress queues, and a migration followed by a
    /// traffic burst.
    SynaClusterOverload,
    /// The realistic-trace surrogate under dynamic regrouping.
    RealDynamic,
}

/// Cluster members in the overload workload.
pub const OVERLOAD_CONTROLLERS: usize = 4;
/// Ingress queue slots per member.
pub const OVERLOAD_SLOTS: usize = 8;
/// Virtual ingress service cost per message (ns).
pub const OVERLOAD_COST_NS: u64 = 2_000_000;
/// Capacity of every control-plane channel class (bytes/s).
pub const OVERLOAD_CLASS_BPS: u64 = 200_000;
/// Virtual hour of the migration and the burst that follows it.
pub const OVERLOAD_AT_HOURS: f64 = 12.0;
/// Burst size as a multiple of the host count, spread over one minute.
pub const OVERLOAD_BURST_SCALE: f64 = 2.0;
/// Hosts moved by the migration before the burst.
pub const OVERLOAD_MIGRATE_BATCH: u32 = 1_000;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::SynaClusterOverload, Workload::RealDynamic];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SynaClusterOverload => "syna_cluster_overload",
            Workload::RealDynamic => "real_dynamic",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's trace from the benchmark seed.
    pub fn trace(self, seed: u64) -> Trace {
        match self {
            Workload::SynaClusterOverload => {
                let mut cfg = SyntheticConfig::syn_a().scaled_down(8);
                cfg.seed = trace_seed(seed);
                generate_syn(&cfg)
            }
            Workload::RealDynamic => {
                let mut cfg = RealTraceConfig::small();
                cfg.num_flows = 120_000;
                cfg.seed = trace_seed(seed);
                generate_real(&cfg)
            }
        }
    }

    /// The experiment configuration (untraced, no per-flow log).
    pub fn config(self, seed: u64, trace: &Trace) -> ExperimentConfig {
        let base = |mode: ControlMode, limit: usize| {
            let mut cfg = ExperimentConfig::new(mode)
                .with_group_size_limit(limit)
                .with_seed(seed)
                .with_sgi_parallelism(1);
            cfg.emit_arp = true;
            cfg.workers = None;
            cfg
        };
        match self {
            Workload::SynaClusterOverload => {
                let mut bw = BandwidthModel::unmodeled();
                for class in ChannelClass::ALL {
                    if class != ChannelClass::Data {
                        bw = bw.with_capacity(class, OVERLOAD_CLASS_BPS);
                    }
                }
                let batch = OVERLOAD_MIGRATE_BATCH.min(trace.topology.num_hosts() as u32 / 2);
                let plan = EventPlan::new()
                    .migrate_hosts(OVERLOAD_AT_HOURS - 0.01, batch)
                    .traffic_burst(OVERLOAD_AT_HOURS, OVERLOAD_BURST_SCALE);
                base(ControlMode::LazyStatic, 46)
                    .with_cluster(OVERLOAD_CONTROLLERS)
                    .with_dissemination(DisseminationStrategy::tree())
                    .with_bandwidth(bw)
                    .with_ingress_slots(OVERLOAD_SLOTS)
                    .with_ingress_cost_ns(OVERLOAD_COST_NS)
                    .with_plan(plan)
            }
            Workload::RealDynamic => base(ControlMode::LazyDynamic, 5),
        }
    }

    /// Traces one run pools. Inputs generated from different seeds vary
    /// in events per flow, control messages per flow and failed flows;
    /// pooling several traces keeps a run's figures steady across seeds.
    pub fn sub_traces(self) -> usize {
        match self {
            Workload::SynaClusterOverload => 2,
            Workload::RealDynamic => 8,
        }
    }
}

/// The seed of trace `k` in a run with benchmark seed `seed`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(k as u64)
}

/// Maps the benchmark seed to the trace generator's seed, so that seed 0
/// is not the generator's own default and nearby seeds differ widely.
fn trace_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
