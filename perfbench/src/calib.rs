//! Host-speed calibration: a fixed kernel that belongs to the benchmark,
//! not to the program, timed in CPU time next to the work it calibrates.
//!
//! On a shared host a vCPU's speed jumps by tens of percent from one
//! second to the next (a busy hyper-thread sibling, a lower clock), and
//! CPU time moves with it. The kernel is the same arithmetic as the
//! MixBernoulli decode's inner loop (a pairwise leaky-ReLU layer, a small
//! projection and a logistic) on fixed data, so it slows down with the
//! host as the decode does. One pass takes a few ms. Passes interleaved
//! with the work, every step or every few tens of ms, follow the host's
//! speed through the run; dividing the work's CPU time by the passes'
//! CPU time cancels it, and a change to the program moves only the
//! numerator.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// One pass's CPU time on the host the benchmark was tuned on (2 vCPUs
/// of a Xeon Sapphire Rapids, where passes read 1.9–2.8 ms as the host's
/// speed moved). `setup_s` is given in seconds at this speed.
pub const REFERENCE_PASS_MS: f64 = 2.0;

/// Rows of the kernel's pairwise loop: `ROWS × (ROWS − 1)` pairs.
const ROWS: usize = 160;
/// Hidden width of the pairwise layer.
const HIDDEN: usize = 16;
/// Outputs per pair.
const OUT: usize = 4;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Reading of a CPU-time clock, in ms, at nanosecond resolution. The
/// kernel leaves out time the vCPU was stolen by the hypervisor.
fn cpu_clock_ms(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// CPU time of this process, every thread included, in ms.
pub fn process_cpu_ms() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in ms.
fn thread_cpu_ms() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// The kernel's fixed inputs.
pub struct Kernel {
    rows: Vec<[f32; HIDDEN]>,
    bias: [f32; HIDDEN],
    weights: [[f32; OUT]; HIDDEN],
}

impl Kernel {
    pub fn new() -> Kernel {
        // A fixed linear congruential sequence in [-1, 1): the same
        // inputs on every run and every seed.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        };
        let rows = (0..ROWS).map(|_| [0.0; HIDDEN].map(|_: f32| next())).collect();
        let bias = [0.0; HIDDEN].map(|_: f32| next());
        let weights = [[0.0; OUT]; HIDDEN].map(|r| r.map(|_: f32| next()));
        Kernel { rows, bias, weights }
    }

    /// One pass over every ordered pair of rows.
    fn pass(&self) -> f64 {
        let mut total = 0.0f64;
        let mut h = [0.0f32; HIDDEN];
        for (i, a) in self.rows.iter().enumerate() {
            for (j, b) in self.rows.iter().enumerate() {
                if i == j {
                    continue;
                }
                for x in 0..HIDDEN {
                    let v = a[x] - b[x] + self.bias[x];
                    h[x] = if v > 0.0 { v } else { 0.2 * v };
                }
                for k in 0..OUT {
                    let mut o = 0.0f32;
                    for (hx, w) in h.iter().zip(&self.weights) {
                        o += hx * w[k];
                    }
                    total += (1.0 / (1.0 + (-o).exp())) as f64;
                }
            }
        }
        total
    }

    /// CPU ms of one pass on the calling thread.
    pub fn pass_ms(&self) -> f64 {
        let before = thread_cpu_ms();
        black_box(black_box(self).pass());
        thread_cpu_ms() - before
    }

    /// Wall ms of one pass while `threads` threads run passes at once:
    /// the median of `passes` passes on each thread, averaged over the
    /// threads. Unlike [`Kernel::pass_ms`] it includes time stolen from
    /// the vCPUs, as a multi-threaded set-up's wall time does.
    pub fn wall_pass_ms(&self, threads: usize, passes: usize) -> f64 {
        let per_thread: Vec<f64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.max(1))
                .map(|_| {
                    scope.spawn(|| {
                        let walls: Vec<f64> = (0..passes.max(1))
                            .map(|_| {
                                let started = Instant::now();
                                black_box(black_box(self).pass());
                                started.elapsed().as_secs_f64() * 1e3
                            })
                            .collect();
                        median(&walls).expect("at least one pass")
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("calibration thread panicked")).collect()
        });
        per_thread.iter().sum::<f64>() / per_thread.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_takes_measurable_time() {
        let k = Kernel::new();
        assert_eq!(k.pass().to_bits(), Kernel::new().pass().to_bits());
        let before = process_cpu_ms();
        let ms = k.pass_ms();
        assert!(process_cpu_ms() - before >= ms);
        assert!(ms > 0.0 && ms.is_finite(), "kernel CPU time {ms}");
        let wall = k.wall_pass_ms(2, 1);
        assert!(wall > 0.0 && wall.is_finite(), "kernel wall time on two threads {wall}");
    }
}
