//! How fast the batch-1 Winograd GEMMs stream their filter bank.
//!
//! At batch 1 the multiplication stage of a served layer reads the
//! transformed bank `U` (α² matrices of `K × C`) once per call and the
//! few tile columns of `V` many times, so its time is bounded below by
//! how fast this machine reads `U`'s bytes. For each batch-1 Table-4
//! row at the static selector's pick, this binary times
//! `batched_sgemm_packed` over a random bank and `V` of the row's shape
//! (packed for the host's widest level, as a served bank is), and, in
//! the same rounds, a vectorised read of a buffer of `U`'s size split
//! into one half per pool lane, each summed into 64 independent
//! accumulators so that the loads, not an add chain, set the pace.
//! Rounds interleave the two and all rows, and every row has buffers of
//! its own, so both reads find the same cache state. Reported per row:
//! `U`'s megabytes, the GEMM's median milliseconds and the bank rate it
//! implies, the read's median and rate, and the GEMM's time over the
//! read's. Run with `cargo run --release -p wino-bench --bin bank_read`;
//! `WINO_THREADS` sizes the pool.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wino_bench::{Report, TablePrinter};
use wino_gemm::{batched_sgemm_packed, simd_level, BatchedGemmShape, GemmConfig, PackedA, PackedB};
use wino_graph::{select_engine_static, table4_convs, EngineChoice};
use wino_runtime::Runtime;
use wino_tensor::ConvDesc;
use wino_transform::ErrorStats;

/// Interleaved rounds behind every median.
const ROUNDS: usize = 15;

/// Floats one read step adds into independent accumulators.
const READ_LANES: usize = 64;

/// One batch-1 row at its pick: the GEMM's operands and a buffer of the
/// bank's size for the read.
struct Row {
    desc: ConvDesc,
    m: usize,
    shape: BatchedGemmShape,
    bank: PackedA,
    v: PackedB,
    c: Vec<f32>,
    read: Vec<f32>,
}

impl Row {
    fn build(desc: ConvDesc, m: usize, rng: &mut StdRng) -> Row {
        let alpha = m + desc.ksz - 1;
        let tiles = desc.out_h().div_ceil(m) * desc.out_w().div_ceil(m);
        let shape = BatchedGemmShape {
            batches: alpha * alpha,
            m: desc.out_ch,
            k: desc.in_ch,
            n: tiles,
        };
        let mut random =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let (level, (b, k, n)) = (simd_level(), (shape.batches, shape.k, shape.n));
        let bank = PackedA::pack(&random(shape.a_len()), b, shape.m, k, level);
        let v = PackedB::pack(&random(shape.b_len()), b, k, n, level);
        let read = random(bank.bytes() / std::mem::size_of::<f32>());
        Row {
            desc,
            m,
            shape,
            bank,
            v,
            c: vec![0.0; shape.c_len()],
            read,
        }
    }

    /// Milliseconds of one batched GEMM.
    fn gemm(&mut self) -> f64 {
        let cfg = GemmConfig::default();
        let start = std::time::Instant::now();
        batched_sgemm_packed(&self.shape, &self.bank, &self.v, &mut self.c, &cfg);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&self.c);
        ms
    }

    /// Milliseconds of one read of the bank-sized buffer, a share per
    /// lane.
    fn read(&self) -> f64 {
        let lanes = Runtime::global().threads().max(1);
        let share = self.read.len().div_ceil(lanes);
        let start = std::time::Instant::now();
        wino_runtime::parallel_for(0..lanes, |lane| {
            let from = (lane * share).min(self.read.len());
            let to = (from + share).min(self.read.len());
            std::hint::black_box(sum(&self.read[from..to]));
        });
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// The sum of `buf` over [`READ_LANES`] independent accumulators.
fn sum(buf: &[f32]) -> f32 {
    let mut acc = [0.0f32; READ_LANES];
    let steps = buf.chunks_exact(READ_LANES);
    let tail: f32 = steps.remainder().iter().sum();
    for step in steps {
        for (a, v) in acc.iter_mut().zip(step) {
            *a += v;
        }
    }
    acc.iter().sum::<f32>() + tail
}

fn median(samples: &[f64]) -> f64 {
    ErrorStats::from_samples(samples.to_vec()).median
}

fn main() {
    let mut report = Report::new(
        "bank_read",
        "Batch-1 Winograd GEMMs against a vectorised read of their filter bank",
    );
    let mut rng = StdRng::seed_from_u64(46);
    let mut rows: Vec<Row> = Vec::new();
    for desc in table4_convs().into_iter().filter(|d| d.batch == 1) {
        let EngineChoice::Winograd(cfg) = select_engine_static(&desc) else {
            continue;
        };
        if !rows.iter().any(|r| r.desc == desc) {
            rows.push(Row::build(desc, cfg.m, &mut rng));
        }
    }
    // Warm-up, untimed: page in every buffer once.
    for row in rows.iter_mut() {
        row.gemm();
        row.read();
    }
    let mut gemm_ms = vec![Vec::with_capacity(ROUNDS); rows.len()];
    let mut read_ms = vec![Vec::with_capacity(ROUNDS); rows.len()];
    for round in 0..ROUNDS {
        for (i, row) in rows.iter_mut().enumerate() {
            if round % 2 == 0 {
                gemm_ms[i].push(row.gemm());
                read_ms[i].push(row.read());
            } else {
                read_ms[i].push(row.read());
                gemm_ms[i].push(row.gemm());
            }
        }
    }
    let mut t = TablePrinter::new(&[
        "layer",
        "pick",
        "U, MB",
        "GEMM ms",
        "GEMM GB/s",
        "read ms",
        "read GB/s",
        "GEMM/read",
    ]);
    let (mut sum_gemm, mut sum_read) = (0.0, 0.0);
    for (i, row) in rows.iter().enumerate() {
        let bytes = row.bank.bytes() as f64;
        let (g, r) = (median(&gemm_ms[i]), median(&read_ms[i]));
        sum_gemm += g;
        sum_read += r;
        t.row(vec![
            row.desc.to_string(),
            format!("m={}", row.m),
            format!("{:.1}", bytes / 1e6),
            format!("{g:.3}"),
            format!("{:.1}", bytes / 1e6 / g),
            format!("{r:.3}"),
            format!("{:.1}", bytes / 1e6 / r),
            format!("{:.2}", g / r),
        ]);
    }
    report.table(&t);
    report.line(format!(
        "\n(median of {ROUNDS} interleaved rounds; {} lanes, {:?}; GB/s = U's bytes over the \
         time)\nΣ GEMM {sum_gemm:.2} ms   Σ read {sum_read:.2} ms   GEMM/read {:.2}",
        Runtime::global().threads(),
        simd_level(),
        sum_gemm / sum_read
    ));
    report.finish();
}
