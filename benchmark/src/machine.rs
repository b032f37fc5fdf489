//! Machine probes: what this box can do at most, measured in the same
//! run as the numbers that are divided by it.
//!
//! - **FMA rate**: register-resident multiply-adds at the active SIMD
//!   level, on as many threads as the runtime pool has. This is the
//!   ceiling of every `*_pct_peak`.
//! - **Stream triad**: `a[i] = b[i] + s·c[i]` over arrays of four
//!   times the last-level cache, so the lines come from memory — up to
//!   [`MAX_ARRAY_BYTES`] each, because first touch of fresh pages costs
//!   seconds per GiB on a small VM and the probe runs in every traced
//!   run. Both sizes are printed, and a capped run says so. Bytes
//!   moved are computed from the array sizes (three arrays per pass),
//!   not read from a counter.

use std::hint::black_box;
use std::time::Instant;

use wino_gemm::SimdLevel;

/// Largest triad array. A VM reports its host's last-level cache
/// (260 MiB here), of which it owns a sliver.
const MAX_ARRAY_BYTES: usize = 256 << 20;

/// Rounds of [`CHAINS`] FMAs per probe thread and repetition.
const FMA_ITERS: u64 = 50_000_000;

pub struct Machine {
    pub simd: SimdLevel,
    pub threads: usize,
    pub fma_gflops: f64,
    pub stream_gbps: f64,
    pub llc_bytes: usize,
    pub stream_array_bytes: usize,
}

impl Machine {
    /// Runs both probes.
    pub fn probe() -> Machine {
        let simd = wino_gemm::simd_level();
        let threads = wino_runtime::Runtime::global().threads().max(1);
        let llc_bytes = last_level_cache_bytes();
        // Three arrays must fit comfortably: never ask for more than a
        // quarter of what the kernel says is available.
        let stream_array_bytes = (4 * llc_bytes)
            .min(MAX_ARRAY_BYTES)
            .min(available_memory_bytes() / 12)
            .max(1 << 20);
        Machine {
            simd,
            threads,
            fma_gflops: fma_gflops(simd, threads, FMA_ITERS),
            stream_gbps: stream_gbps(threads, stream_array_bytes / 4),
            llc_bytes,
            stream_array_bytes,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "machine: simd={} pool_threads={} fma={:.1} GFLOP/s stream={:.2} GB/s \
             (triad arrays {} MiB each, last-level cache {} MiB{})",
            self.simd.name(),
            self.threads,
            self.fma_gflops,
            self.stream_gbps,
            self.stream_array_bytes >> 20,
            self.llc_bytes >> 20,
            if self.stream_array_bytes < 4 * self.llc_bytes {
                "; arrays capped below 4x cache"
            } else {
                ""
            },
        )
    }
}

/// Largest cache `cpu0` reports in sysfs; 32 MiB when it reports none.
fn last_level_cache_bytes() -> usize {
    let mut best = 0usize;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, mult) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1usize << 10),
            Some(b'M') => (&text[..text.len() - 1], 1usize << 20),
            _ => (text, 1),
        };
        if let Ok(n) = digits.parse::<usize>() {
            best = best.max(n * mult);
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

fn available_memory_bytes() -> usize {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
            line.split_whitespace().nth(1)?.parse::<usize>().ok()
        })
        .map_or(4 << 30, |kib| kib << 10)
}

/// Keeps every core busy for `seconds`. A VM whose cores sat idle
/// answers slowly for the first second or so (the first sweep after a
/// pause measured 20 % over the rest); this moves that second out of
/// set-up and out of the window.
pub fn spin_up(seconds: f64) {
    let simd = wino_gemm::simd_level();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..std::thread::available_parallelism().map_or(1, usize::from) {
            scope.spawn(move || {
                while t0.elapsed().as_secs_f64() < seconds {
                    black_box(fma_loop(simd, FMA_ITERS / 50));
                }
            });
        }
    });
}

/// Independent accumulator chains per thread: enough to cover the FMA
/// latency on two issue ports.
const CHAINS: usize = 10;

fn fma_gflops(simd: SimdLevel, threads: usize, iters: u64) -> f64 {
    let run = |iters: u64| -> (f64, f64) {
        let t0 = Instant::now();
        let flops: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(move || fma_loop(simd, black_box(iters))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fma probe thread"))
                .sum()
        });
        (flops, t0.elapsed().as_secs_f64())
    };
    run(iters / 10); // clocks up, pages in
    (0..3)
        .map(|_| {
            let (flops, secs) = run(iters);
            flops / secs / 1e9
        })
        .fold(0.0, f64::max)
}

/// Runs `iters` rounds of [`CHAINS`] dependent FMAs and returns the
/// FLOPs performed.
fn fma_loop(simd: SimdLevel, iters: u64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if simd == SimdLevel::Avx2
        && is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
    {
        // SAFETY: both target features were detected on this CPU just above.
        let sink = unsafe { fma_loop_avx2(iters) };
        black_box(sink);
        return iters as f64 * (CHAINS * 8 * 2) as f64;
    }
    let _ = simd;
    let (a, b) = (black_box(0.999_999f32), black_box(1e-7f32));
    let mut acc = [1.0f32; CHAINS];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = *v * a + b;
        }
    }
    black_box(acc);
    iters as f64 * (CHAINS * 2) as f64
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_loop_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_cvtss_f32, _mm256_fmadd_ps, _mm256_set1_ps};
    let a = _mm256_set1_ps(black_box(0.999_999));
    let b = _mm256_set1_ps(black_box(1e-7));
    let mut acc = [_mm256_set1_ps(1.0); CHAINS];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = _mm256_fmadd_ps(*v, a, b);
        }
    }
    let mut sum = acc[0];
    for v in &acc[1..] {
        sum = _mm256_add_ps(sum, *v);
    }
    _mm256_cvtss_f32(sum)
}

fn stream_gbps(threads: usize, elems: usize) -> f64 {
    let mut a = vec![0.0f32; elems];
    let b = vec![1.0f32; elems];
    let c = vec![2.0f32; elems];
    let chunk = elems.div_ceil(threads);
    let mut pass = || {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    let s = black_box(3.0f32);
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + s * *c;
                    }
                });
            }
        });
        t0.elapsed().as_secs_f64()
    };
    pass(); // first touch of `a`
    let best = pass().min(pass());
    black_box(&a);
    (3 * elems * 4) as f64 / best / 1e9
}
