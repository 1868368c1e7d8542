//! Differential property test: the timing-wheel scheduler pops the exact
//! same `(time, seq, event)` sequence as the retained `BinaryHeap`
//! reference under arbitrary schedules — equal-time bursts, sub-tick
//! spacings, day-scale horizons and far-future (top-level) times
//! included, with pops interleaved between schedules so the wheel's
//! cursor advances mid-stream. Relative schedules (`now + delay`, the
//! driver loop's `schedule_in` pattern) draw their delays from the
//! default channel latencies, so most land in the wheel's low levels
//! just ahead of the cursor, as they do in a real run.

use lazyctrl_sim::{ChannelClass, EventQueue, HeapQueue, LatencyModel, SimTime};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// Schedule one event at an absolute time.
    Schedule(u64),
    /// Schedule one event `d` ns after the last popped event's time.
    ScheduleIn(u64),
    /// Schedule a burst of events at the same time (tie-break stress).
    Burst(u64, u8),
    /// Pop up to `n` events, comparing the wheel and the heap pop by pop.
    Pop(u8),
    /// Pop up to `n` events bounded by a horizon (the driver loop's
    /// `pop_until` fast path).
    PopUntil(u64, u8),
}

/// Times spanning every wheel level: sub-tick, short-delay, day-horizon
/// and the far-future top level.
fn arb_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4_096,
        0u64..10_000_000,
        0u64..86_400_000_000_000,
        (u64::MAX - 1_000_000)..u64::MAX,
    ]
}

/// Relative delays: zero (a same-instant follow-up) or a sample from one
/// of the four switch-facing channel classes' default latency range,
/// `base × (1 ± jitter)`.
fn arb_delay() -> impl Strategy<Value = u64> {
    let m = LatencyModel::default();
    let range = |class: ChannelClass| {
        let base = m.base(class).as_nanos() as f64;
        let lo = (base * (1.0 - m.jitter_frac)) as u64;
        let hi = (base * (1.0 + m.jitter_frac)) as u64;
        lo..=hi
    };
    prop_oneof![
        Just(0u64),
        range(ChannelClass::Data),
        range(ChannelClass::Control),
        range(ChannelClass::State),
        range(ChannelClass::Peer),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_time().prop_map(Op::Schedule),
        arb_delay().prop_map(Op::ScheduleIn),
        (arb_time(), 1u8..16).prop_map(|(t, n)| Op::Burst(t, n)),
        (1u8..16).prop_map(Op::Pop),
        (arb_time(), 1u8..16).prop_map(|(t, n)| Op::PopUntil(t, n)),
    ]
}

fn drive(ops: &[Op]) {
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut next_event = 0u32;
    // Time of the last popped event: the driver loop's `now`.
    let mut now = SimTime::ZERO;
    for op in ops {
        match *op {
            Op::Schedule(t) => {
                wheel.schedule(SimTime::from_nanos(t), next_event);
                heap.schedule(SimTime::from_nanos(t), next_event);
                next_event += 1;
            }
            Op::ScheduleIn(d) => {
                let at = SimTime::from_nanos(now.as_nanos().saturating_add(d));
                wheel.schedule(at, next_event);
                heap.schedule(at, next_event);
                next_event += 1;
            }
            Op::Burst(t, n) => {
                for _ in 0..n {
                    wheel.schedule(SimTime::from_nanos(t), next_event);
                    heap.schedule(SimTime::from_nanos(t), next_event);
                    next_event += 1;
                }
            }
            Op::Pop(n) => {
                for _ in 0..n {
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "wheel and heap diverged mid-stream");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                    if a.is_none() {
                        break;
                    }
                }
            }
            Op::PopUntil(t, n) => {
                let until = SimTime::from_nanos(t);
                for _ in 0..n {
                    let a = wheel.pop_until(until);
                    let b = heap.pop_until(until);
                    assert_eq!(a, b, "wheel and heap diverged under a horizon");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
        assert_eq!(wheel.len(), heap.len());
    }
    // Drain what remains; the full tail must agree too.
    loop {
        let a = wheel.pop();
        let b = heap.pop();
        assert_eq!(a, b, "wheel and heap diverged in the drain");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
    assert_eq!(wheel.popped_total(), heap.popped_total());
}

proptest! {
    #[test]
    fn wheel_pops_exactly_like_the_heap(
        ops in proptest::collection::vec(arb_op(), 1..120)
    ) {
        drive(&ops);
    }
}

#[test]
fn horizon_wrap_across_every_level() {
    // One event per wheel level, scheduled in reverse, with a burst at
    // each boundary; then interleaved pops and re-schedules into the
    // past (relative to the advanced cursor).
    let mut ops = Vec::new();
    for level in (0..9).rev() {
        let t = 1u64 << (13 + 6 * level); // at/above each level boundary
        ops.push(Op::Burst(t.saturating_sub(1), 3));
        ops.push(Op::Schedule(t));
        ops.push(Op::Schedule(t.saturating_add(1)));
    }
    ops.push(Op::Pop(10));
    ops.push(Op::ScheduleIn(0)); // a same-instant follow-up
    ops.push(Op::ScheduleIn(120_000)); // one data-path hop later
    ops.push(Op::Schedule(0)); // into the past of the advanced cursor
    ops.push(Op::Pop(255));
    drive(&ops);
}
