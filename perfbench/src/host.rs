//! Host calibration: the FMA peak the kernel is compared against, and the
//! process's peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Independent accumulator chains per thread: enough to cover the FMA
/// latency × issue width of current x86 cores.
const CHAINS: usize = 12;

/// Which vector unit the probe ran on.
pub fn fma_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return "avx2";
        }
    }
    "scalar"
}

/// f32 FMA throughput of one thread over `iters` loop trips, in GFLOP/s
/// (one FMA counts two flops).
fn fma_gflops_one(iters: u64) -> f64 {
    let t = Instant::now();
    let lanes = fma_loop(black_box(iters));
    let secs = t.elapsed().as_secs_f64();
    (2 * CHAINS as u64 * lanes * iters) as f64 / secs / 1e9
}

/// Runs the FMA loop and returns the vector width it used (in f32 lanes).
fn fma_loop(iters: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f feature was detected at runtime just above.
            unsafe { black_box(x86::fma512(iters)) };
            return 16;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the avx2 and fma features were detected at runtime just above.
            unsafe { black_box(x86::fma256(iters)) };
            return 8;
        }
    }
    let mut acc = [1.0f32; CHAINS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(0.999_999, 1e-7);
        }
    }
    black_box(acc);
    1
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma512(iters: u64) -> f32 {
        let mul = _mm512_set1_ps(0.999_999);
        let add = _mm512_set1_ps(1e-7);
        let mut acc = [_mm512_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm512_fmadd_ps(*a, mul, add);
            }
        }
        let mut sum = _mm512_setzero_ps();
        for a in acc {
            sum = _mm512_add_ps(sum, a);
        }
        _mm512_reduce_add_ps(sum)
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma256(iters: u64) -> f32 {
        let mul = _mm256_set1_ps(0.999_999);
        let add = _mm256_set1_ps(1e-7);
        let mut acc = [_mm256_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm256_fmadd_ps(*a, mul, add);
            }
        }
        let mut sum = _mm256_setzero_ps();
        for a in acc {
            sum = _mm256_add_ps(sum, a);
        }
        let mut lanes = [0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
        lanes.iter().sum()
    }
}

/// Measured f32 FMA peak: `(one core, all cores)` in GFLOP/s, each the
/// best of `reps` runs of about `secs_per_rep` seconds.
pub fn fma_peak(threads: usize, reps: usize, secs_per_rep: f64) -> (f64, f64) {
    // Size the loop from a short calibration run.
    let probe_iters = 100_000;
    let rate = fma_gflops_one(probe_iters);
    let flops_per_iter = fma_loop(0) as f64 * CHAINS as f64 * 2.0;
    let iters = ((rate * 1e9 * secs_per_rep / flops_per_iter) as u64).max(probe_iters);

    let one = (0..reps).map(|_| fma_gflops_one(iters)).fold(0.0, f64::max);
    let all = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let lanes = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| s.spawn(move || fma_loop(black_box(iters))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("FMA probe thread panicked"))
                    .sum::<u64>()
            });
            (2 * CHAINS as u64 * lanes * iters) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max);
    (one, all)
}

/// Peak resident set size of this process in MB (`VmHWM` from
/// `/proc/self/status`), or 0 where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
