//! Criterion bench: the roofline kernel-timing engine.

use criterion::{criterion_group, criterion_main, Criterion};
use llm_workload::kernel::{Kernel, KernelClass};
use llm_workload::model::{ModelZoo, Precision};
use llm_workload::parallelism::Parallelism;
use optimus::{InferenceEstimator, Roofline};
use scd_arch::Blade;
use std::hint::black_box;

fn bench_roofline(c: &mut Criterion) {
    let accel = Blade::baseline().accelerator();
    let roofline = Roofline::new(&accel);
    let gemm = Kernel::gemm(
        "qkv",
        KernelClass::Gemm,
        2048.0,
        4096.0,
        16384.0,
        Precision::Bf16,
        1.0,
    );
    let eltw = Kernel::elementwise("softmax", 1e7, 5.0, Precision::Bf16, 1.0);

    c.bench_function("roofline/time_gemm", |b| {
        b.iter(|| roofline.time_kernel(black_box(&gemm)))
    });
    c.bench_function("roofline/time_elementwise", |b| {
        b.iter(|| roofline.time_kernel(black_box(&eltw)))
    });
}

/// One 256-cell row of a serving cost table (batch 8, KV 1..=256),
/// priced per cell and by the row pricer: divide by 256 for per cell.
fn bench_cost_row(c: &mut Criterion) {
    let blade = Blade::baseline();
    let estimator = InferenceEstimator::new(blade.accelerator(), blade.interconnect());
    let model = ModelZoo::llama_405b();
    let par = Parallelism::pure_tp(64).expect("valid");
    let kv = |i: usize| i as u32 + 1;
    let mut row = vec![0.0; 256];
    c.bench_function("pricing/decode_step_time_x256", |b| {
        b.iter(|| {
            for (i, cell) in row.iter_mut().enumerate() {
                *cell = estimator
                    .decode_step_time(black_box(&model), &par, 8, kv(i))
                    .expect("valid");
            }
        })
    });
    c.bench_function("pricing/decode_row_x256", |b| {
        b.iter(|| {
            estimator
                .decode_row(black_box(&model), &par, 8, kv, &mut row)
                .expect("valid")
        })
    });
}

criterion_group!(benches, bench_roofline, bench_cost_row);
criterion_main!(benches);
