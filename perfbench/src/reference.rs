//! The host-speed reference: a fixed piece of CPU work that shares no
//! code with the simulator, timed between the replays so each run can
//! scale its times to a host of fixed speed.
//!
//! On a shared host the same binary runs in a fast and a slow mode that
//! last from seconds to minutes, about 1.5× apart, so whole runs land in
//! one mode or the other. The reference slows with the mode as the
//! simulator does, while a change to the simulator leaves it untouched.
//! It mixes general-purpose standard-library work, which slows somewhat
//! less than a replay, with random loads over a working set twice a
//! core's L2, which slow more.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The reference's median seconds on the host the benchmark is scaled
/// to: a 2-vCPU Sapphire Rapids-class KVM guest in its fast mode. Scaled
/// times read as wall seconds on that host.
pub const NOMINAL_S: f64 = 0.021;

/// Records the work is sized by.
const RECORDS: usize = 40_000;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Slots of the pointer-chase cycle: 4 MiB of `u32`, twice a core's L2.
const CHASE_SLOTS: usize = 1 << 20;

/// Loads the chase makes per run.
const CHASE_STEPS: usize = 60_000;

/// The host-speed reference: its work and a random single cycle
/// through [`CHASE_SLOTS`] slots, built once.
pub struct Reference {
    next: Vec<u32>,
}

impl Reference {
    pub fn new() -> Self {
        // Sattolo's shuffle of the identity is a single cycle through
        // every slot.
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut state = 0x1234_5678_9abc_def1_u64;
        for i in (1..next.len()).rev() {
            let j = (xorshift(&mut state) % i as u64) as usize;
            next.swap(i, j);
        }
        Self { next }
    }

    /// Runs the reference once and returns its wall seconds.
    pub fn time_once(&self) -> f64 {
        let started = Instant::now();
        black_box(work(black_box(RECORDS)));
        let mut slot = 0u32;
        for _ in 0..CHASE_STEPS {
            slot = self.next[slot as usize];
        }
        black_box(slot);
        started.elapsed().as_secs_f64()
    }
}

/// Allocation, sorting, hashing, an ordered map, a binary-heap event
/// loop and float formatting and parsing: standard-library work of the
/// kinds an event-driven simulator does.
fn work(records: usize) -> u64 {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut events: Vec<(f64, u64, u32)> = (0..records as u64)
        .map(|id| {
            let at = (xorshift(&mut state) >> 11) as f64 * 1e-6;
            (at, id, (xorshift(&mut state) % 1024) as u32)
        })
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut per_key: HashMap<u64, u32> = HashMap::new();
    let mut ordered: BTreeMap<u32, u64> = BTreeMap::new();
    for &(_, id, tokens) in &events {
        *per_key.entry(id % 4099).or_default() += tokens;
        ordered.insert(tokens ^ id as u32, id);
    }

    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = events
        .iter()
        .take(4096)
        .map(|&(at, _, tokens)| Reverse((at.to_bits(), tokens)))
        .collect();
    let mut digest = 0u64;
    for _ in 0..records {
        let Reverse((at, tokens)) = heap.pop().unwrap_or(Reverse((0, 0)));
        digest = digest.wrapping_add(u64::from(tokens));
        heap.push(Reverse((at + (xorshift(&mut state) >> 40), tokens)));
    }

    let mut text = String::new();
    for &(at, _, _) in events.iter().take(records / 4) {
        text += &format!("{at:?},");
    }
    let parsed: f64 = text
        .split(',')
        .filter_map(|field| field.parse::<f64>().ok())
        .sum();
    digest ^ (per_key.len() as u64 + ordered.len() as u64) ^ parsed.to_bits()
}
