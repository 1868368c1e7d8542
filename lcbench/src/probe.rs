//! A fixed probe that gauges how fast the host is right now.
//!
//! On a shared host the simulator's speed drifts with the neighbours'
//! load: over minutes the same repeat of the same trace takes anywhere
//! from 1.0 to 1.8 s. The probe is fixed code that shares nothing with
//! the simulator: a branch-heavy walk over a table that fits in L1, then
//! a dependent chain of loads through a buffer far larger than the
//! caches, about a fifth of its time. Its time follows the host's drift
//! and nothing in the simulator. The untraced run times the probe
//! between repeats and scales each repeat's host times to
//! [`NOMINAL_S`].
//!
//! Recorded over 6 and 8 minutes of `real_dynamic` repeats on a 2-vCPU
//! Xeon VM, a repeat's loop time had a standard deviation of 13–15%
//! around its trace's median, and 9.5–9.6% once scaled by this probe; the
//! spread of 55-second runs over the same records fell from 10–11% to
//! 3–5% (quartiles over median). A probe of the memory part alone helped
//! in one of those records and not in the other.

use std::time::Instant;

/// Entries of the branch-heavy part's table (16 KiB).
const TABLE: usize = 4096;
/// Steps of the branch-heavy part.
const BRANCH_STEPS: usize = 10_000_000;
/// Words of the memory part's buffer: 128 MiB, well beyond any cache
/// share the host gives.
const WORDS: usize = 1 << 24;
/// Dependent loads of the memory part.
const CHASE_STEPS: usize = 500_000;

/// The probe time host-time metrics are scaled to: about the probe's
/// time on that VM when its neighbours are quiet.
pub const NOMINAL_S: f64 = 0.09;

/// Seconds one probe takes. Its buffer is freed before returning, so
/// the probe leaves the peak RSS of the next repeat alone.
pub fn seconds() -> f64 {
    let mut words: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut table = [0u32; TABLE];
    let start = Instant::now();
    let (mut x, mut sum) = (0x1234_5678_9ABC_DEF0u64, 0u64);
    for _ in 0..BRANCH_STEPS {
        // xorshift64: each step's branch is taken at random.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize % TABLE;
        if table[i] & 1 == 0 {
            table[i] = table[i].wrapping_add((x >> 32) as u32);
            sum ^= u64::from(table[i]);
        } else if x & 2 == 0 {
            table[i] >>= 1;
        } else {
            sum = sum.wrapping_add(u64::from(table[(i + 7) % TABLE]));
        }
    }
    let mut at = 12_345usize;
    for _ in 0..CHASE_STEPS {
        // The next index depends on the loaded word, so the loads
        // cannot overlap: each step costs one memory round trip.
        let w = words[at];
        sum = sum.wrapping_add(w);
        at = (w as usize ^ at.wrapping_mul(31)) & (WORDS - 1);
        words[at] ^= 1;
    }
    let s = start.elapsed().as_secs_f64();
    std::hint::black_box((sum, &table));
    s
}
