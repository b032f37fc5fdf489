//! Products with no element, or no depth, end before the task grid:
//! the right zeros come back and no parallel region is entered. (One
//! test, its own process: it reads the probe's global span buffers.)

use wino_gemm::{
    batched_sgemm_packed, sgemm, BatchedGemmShape, GemmConfig, PackedA, PackedB, SimdLevel,
};
use wino_runtime::Runtime;

fn packed_call(shape: BatchedGemmShape, level: SimdLevel) -> Vec<f32> {
    let BatchedGemmShape { batches, m, k, n } = shape;
    let a = PackedA::pack(&vec![1.0; shape.a_len()], batches, m, k, level);
    let b = PackedB::pack(&vec![1.0; shape.b_len()], batches, k, n, level);
    // Two floats past the product: a call must not touch them.
    let mut c = vec![7.0f32; shape.c_len() + 2];
    batched_sgemm_packed(&shape, &a, &b, &mut c, &GemmConfig::default());
    c
}

#[test]
fn empty_products_return_the_right_zeros_and_fork_nothing() {
    wino_probe::set_mode(wino_probe::Mode::Summary);
    let rt = Runtime::with_threads(2);
    let shape = |batches, m, k, n| BatchedGemmShape { batches, m, k, n };
    rt.install(|| {
        for level in wino_gemm::supported_levels() {
            // No depth: every C element is the empty sum, +0.0.
            let c = packed_call(shape(3, 70, 0, 300), level);
            assert!(c[..3 * 70 * 300].iter().all(|v| v.to_bits() == 0));
            assert_eq!(c[3 * 70 * 300..], [7.0, 7.0]);
            // No batch, no row, no column: nothing to write.
            for empty in [
                shape(0, 70, 9, 300),
                shape(3, 0, 9, 300),
                shape(3, 70, 9, 0),
            ] {
                assert_eq!(packed_call(empty, level), [7.0, 7.0]);
            }
        }
        let mut c = [7.0f32; 2];
        sgemm(&[], &[], &mut c, 1, 0, 2);
        assert_eq!(c, [0.0, 0.0]);
        let forked =
            |events: &[wino_probe::SpanEvent]| events.iter().any(|e| e.name == "gemm.tiles");
        assert!(
            !forked(&wino_probe::take_events()),
            "an empty product ran GEMM tasks"
        );
        // The same probe does see a product that has work.
        packed_call(shape(3, 70, 9, 300), SimdLevel::Scalar);
        assert!(forked(&wino_probe::take_events()));
    });
}
