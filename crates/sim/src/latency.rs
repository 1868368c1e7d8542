//! Delivery-latency model for the four logical channel classes.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::SimDuration;

/// The logical channel a message travels on (§III-B.3 plus the data path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelClass {
    /// Edge-to-edge tunnelled data traffic over the IP underlay (one
    /// logical hop thanks to core–edge separation).
    Data,
    /// Controller ⟷ switch control link (OpenFlow channel).
    Control,
    /// Controller ⟷ designated switch state link.
    State,
    /// Intra-group peer link.
    Peer,
    /// Controller ⟷ controller peer link (the `lazyctrl-cluster` layer:
    /// C-LIB replication, ownership transfers, controller heartbeats).
    /// Cluster members live in the same management pod, so this is faster
    /// than a control link but slower than the switch-local peer mesh.
    CtrlPeer,
}

impl ChannelClass {
    /// Number of channel classes (for dense per-class tables).
    pub const COUNT: usize = 5;

    /// Every channel class, in dense-index order.
    pub const ALL: [ChannelClass; Self::COUNT] = [
        ChannelClass::Data,
        ChannelClass::Control,
        ChannelClass::State,
        ChannelClass::Peer,
        ChannelClass::CtrlPeer,
    ];

    /// Dense index of this class in `0..COUNT`.
    pub const fn index(self) -> usize {
        match self {
            ChannelClass::Data => 0,
            ChannelClass::Control => 1,
            ChannelClass::State => 2,
            ChannelClass::Peer => 3,
            ChannelClass::CtrlPeer => 4,
        }
    }
}

/// Base one-way latencies per channel class, with optional multiplicative
/// jitter.
///
/// Defaults are calibrated to the paper's testbed numbers: data-plane
/// operations "very fast ... processed at line speed" with intra-group
/// cold-cache forwarding at 0.83 ms total, and a controller round trip
/// costing several milliseconds more (15.06 ms OpenFlow cold-cache
/// including ARP flooding and rule installation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// One-way datapath latency between two edge switches.
    pub data: SimDuration,
    /// One-way control link latency.
    pub control: SimDuration,
    /// One-way state link latency.
    pub state: SimDuration,
    /// One-way peer link latency.
    pub peer: SimDuration,
    /// One-way controller-to-controller peer link latency.
    pub ctrl_peer: SimDuration,
    /// Uniform jitter amplitude as a fraction of the base latency
    /// (0.1 = ±10%). Zero for fully deterministic latencies.
    pub jitter_frac: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            // GigE edge / 10GigE mesh numbers from the prototype setup.
            data: SimDuration::from_micros(120),
            control: SimDuration::from_micros(900),
            state: SimDuration::from_micros(900),
            peer: SimDuration::from_micros(150),
            ctrl_peer: SimDuration::from_micros(400),
            jitter_frac: 0.05,
        }
    }
}

impl LatencyModel {
    /// A jitter-free copy (for byte-exact latency assertions in tests).
    pub fn deterministic(mut self) -> Self {
        self.jitter_frac = 0.0;
        self
    }

    /// Base latency for a class.
    pub fn base(&self, class: ChannelClass) -> SimDuration {
        match class {
            ChannelClass::Data => self.data,
            ChannelClass::Control => self.control,
            ChannelClass::State => self.state,
            ChannelClass::Peer => self.peer,
            ChannelClass::CtrlPeer => self.ctrl_peer,
        }
    }

    /// Multiplies the base latency of one channel class by `factor`
    /// (fault injection: a congested control network, a degraded
    /// underlay). Factors compose multiplicatively, so degrading by `f`
    /// and later by `1/f` restores the original latency up to rounding.
    ///
    /// # Panics
    ///
    /// Panics on NaN, infinite, zero or negative factors.
    pub fn degrade(&mut self, class: ChannelClass, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "degrade factor {factor} must be finite and positive"
        );
        let slot = match class {
            ChannelClass::Data => &mut self.data,
            ChannelClass::Control => &mut self.control,
            ChannelClass::State => &mut self.state,
            ChannelClass::Peer => &mut self.peer,
            ChannelClass::CtrlPeer => &mut self.ctrl_peer,
        };
        *slot = slot.mul_f64(factor);
    }

    /// Validates the jitter configuration.
    ///
    /// # Panics
    ///
    /// Panics if `jitter_frac` is negative, non-finite, or ≥ 1. Called
    /// once at world construction so [`sample`](LatencyModel::sample)
    /// stays assert-free on the per-message hot path.
    pub fn validate(&self) {
        assert!(
            self.jitter_frac.is_finite() && (0.0..1.0).contains(&self.jitter_frac),
            "jitter_frac {} out of [0,1)",
            self.jitter_frac
        );
    }

    /// Samples the delivery latency for one message.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `jitter_frac` is invalid — callers
    /// [`validate`](LatencyModel::validate) once up front.
    pub fn sample<R: Rng>(&self, class: ChannelClass, rng: &mut R) -> SimDuration {
        debug_assert!(self.jitter_frac.is_finite() && (0.0..1.0).contains(&self.jitter_frac));
        let base = self.base(class);
        if self.jitter_frac == 0.0 {
            return base;
        }
        let factor = 1.0 + rng.gen_range(-self.jitter_frac..=self.jitter_frac);
        base.mul_f64(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_model_returns_base() {
        let m = LatencyModel::default().deterministic();
        let mut rng = StdRng::seed_from_u64(1);
        for class in [
            ChannelClass::Data,
            ChannelClass::Control,
            ChannelClass::State,
            ChannelClass::Peer,
            ChannelClass::CtrlPeer,
        ] {
            assert_eq!(m.sample(class, &mut rng), m.base(class));
        }
    }

    #[test]
    fn jitter_stays_in_band() {
        let m = LatencyModel {
            jitter_frac: 0.1,
            ..LatencyModel::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let base = m.base(ChannelClass::Control).as_nanos() as f64;
        for _ in 0..1000 {
            let s = m.sample(ChannelClass::Control, &mut rng).as_nanos() as f64;
            assert!(
                s >= base * 0.9 - 1.0 && s <= base * 1.1 + 1.0,
                "sample {s} out of band"
            );
        }
    }

    #[test]
    fn control_is_slower_than_data_by_default() {
        let m = LatencyModel::default();
        assert!(m.base(ChannelClass::Control) > m.base(ChannelClass::Data));
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let m = LatencyModel::default();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                m.sample(ChannelClass::Peer, &mut a),
                m.sample(ChannelClass::Peer, &mut b)
            );
        }
    }

    #[test]
    fn degrade_scales_one_class_and_composes() {
        let mut m = LatencyModel::default();
        let base = m.base(ChannelClass::Control);
        m.degrade(ChannelClass::Control, 10.0);
        assert_eq!(m.base(ChannelClass::Control), base.mul_f64(10.0));
        assert_eq!(
            m.base(ChannelClass::Data),
            LatencyModel::default().base(ChannelClass::Data),
            "other classes untouched"
        );
        m.degrade(ChannelClass::Control, 0.1);
        assert_eq!(m.base(ChannelClass::Control), base);
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn degrade_rejects_nan() {
        LatencyModel::default().degrade(ChannelClass::Control, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn degrade_rejects_negative() {
        LatencyModel::default().degrade(ChannelClass::Control, -1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn degrade_rejects_infinite() {
        LatencyModel::default().degrade(ChannelClass::Control, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "out of [0,1)")]
    fn bad_jitter_panics() {
        LatencyModel {
            jitter_frac: 1.5,
            ..LatencyModel::default()
        }
        .validate();
    }
}
