//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared, and their speed moves in
//! steps of up to 2.5× over minutes, far more than any change worth
//! measuring. A [`Calibrator`] times a fixed kernel of the benchmark's
//! own — pointer chasing through a 256 KiB table, word-parallel grid
//! dilation, priority-queue churn and number formatting, the kinds of
//! work the workloads do — in short slices between a workload's ops. Its median slice time against
//! [`NOMINAL_SLICE_NS`] gives the host's speed during the run, and the
//! end-to-end timings are reported at the nominal speed: a time is
//! multiplied by it, a rate divided. The kernel calls no library code, so
//! a change to the library never moves it.

use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::nanos;
use crate::stats::median;

/// The median slice time on the baseline host in a fast stretch (README):
/// speed 1.0.
const NOMINAL_SLICE_NS: f64 = 130_000.0;
/// A slice is due when this long has passed since the last one.
const INTERVAL: Duration = Duration::from_millis(50);
/// Room reserved for slice times (over 10 minutes of slices).
const SLICES_CAP: usize = 1 << 14;

/// Slots in the pointer-chasing table (256 KiB).
const CHASE_WORDS: u32 = 1 << 16;
const CHASE_STEPS: usize = 6_000;
/// A 256×256 bit grid, one `u64` per 64 cells of a row.
const GRID_WORDS: usize = 256 * 4;
const DILATIONS: usize = 48;
const HEAP_PUSHES: u64 = 1_500;
const FORMATTED: u64 = 600;
/// Room for the formatted numbers (at most 20 digits and a comma each).
const TEXT_BYTES: usize = 21 * FORMATTED as usize;

/// Times the kernel in slices and reports the host's speed.
pub struct Calibrator {
    /// A single cycle through every slot, in random order.
    chase: Vec<u32>,
    grid: Vec<u64>,
    /// Working buffers, allocated once.
    scratch: Vec<u64>,
    heap: BinaryHeap<u64>,
    text: String,
    slices_ns: Vec<u64>,
    last: Option<Instant>,
}

impl Calibrator {
    /// Builds the kernel's tables.
    pub fn new() -> Calibrator {
        // Sattolo's shuffle of the identity, driven by SplitMix64, gives
        // one cycle over all slots.
        let mut chase: Vec<u32> = (0..CHASE_WORDS).collect();
        let mut state = 0x6361_6c69_6272_6174; // "calibrat"
        for i in (1..CHASE_WORDS as usize).rev() {
            let j = (rand::splitmix64(&mut state) % i as u64) as usize;
            chase.swap(i, j);
        }
        let grid = (0..GRID_WORDS as u64)
            .map(|i| {
                let mut s = i;
                rand::splitmix64(&mut s) & rand::splitmix64(&mut s)
            })
            .collect();
        Calibrator {
            chase,
            grid,
            scratch: vec![0; GRID_WORDS],
            heap: BinaryHeap::with_capacity(HEAP_PUSHES as usize),
            text: String::with_capacity(TEXT_BYTES),
            slices_ns: Vec::with_capacity(SLICES_CAP),
            last: None,
        }
    }

    /// Runs a slice when one is due; call between ops, on the thread
    /// that runs them. Returns the slice's start and end, for a traced
    /// run's span.
    pub fn tick(&mut self) -> Option<(Instant, Instant)> {
        self.last
            .is_none_or(|last| last.elapsed() >= INTERVAL)
            .then(|| self.slice())
    }

    /// Runs one slice now: the kernel twice, timing the second run, so
    /// the time does not depend on what the workload left in the caches.
    pub fn slice(&mut self) -> (Instant, Instant) {
        black_box(self.kernel());
        let started = Instant::now();
        black_box(self.kernel());
        let done = Instant::now();
        self.last = Some(done);
        self.slices_ns.push(nanos(done - started));
        (started, done)
    }

    /// One run of the kernel. It allocates nothing, so it leaves the
    /// workload's heap as it found it.
    fn kernel(&mut self) -> u64 {
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.chase[at as usize];
        }
        self.scratch.copy_from_slice(&self.grid);
        for _ in 0..DILATIONS {
            for row in self.scratch.chunks_exact_mut(4) {
                let mut carry = 0;
                for w in row {
                    let next = *w >> 63;
                    *w |= (*w << 1) | carry;
                    *w &= black_box(0xfff7_ffef_fbff_dfff);
                    carry = next;
                }
            }
        }
        self.heap.clear();
        let mut state = u64::from(at);
        for k in 0..HEAP_PUSHES {
            self.heap.push(rand::splitmix64(&mut state) >> 40);
            if k % 3 == 0 {
                self.heap.pop();
            }
        }
        self.text.clear();
        for k in 0..FORMATTED {
            let _ = write!(self.text, "{},", k.wrapping_mul(0x9e37_79b9));
        }
        let parsed: u64 = self
            .text
            .split(',')
            .filter_map(|t| t.parse::<u64>().ok())
            .fold(0, u64::wrapping_add);
        let heap_top = self.heap.peek().copied().unwrap_or(0);
        self.scratch.iter().fold(parsed ^ heap_top, |a, &w| a ^ w)
    }

    /// The host's speed over the slices so far: nominal slice time over
    /// the median slice time (above 1 on a faster host).
    pub fn speed(&self) -> f64 {
        let ns: Vec<f64> = self.slices_ns.iter().map(|&n| n as f64).collect();
        NOMINAL_SLICE_NS / median(&ns).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_table_is_one_cycle() {
        let mut cal = Calibrator::new();
        let mut at = 0u32;
        let mut steps = 0;
        loop {
            at = cal.chase[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_WORDS as usize);
        // The first tick is due; the next is not, until the interval ends.
        assert!(cal.tick().is_some());
        assert!(cal.tick().is_none());
        assert_eq!(cal.slices_ns.len(), 1);
        assert!(cal.speed() > 0.0);
    }
}
