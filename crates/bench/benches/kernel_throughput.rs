//! Kernel bench: scalar per-point `dist` loops vs the batched one-to-many
//! kernels and pruned absorb queries of `kcz-metric`, across
//! n ∈ {10³, 10⁴, 10⁵}.  The batched `dist_many` must beat the scalar
//! loop at n = 10⁵ — the contract the hot-path refactor rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kcz_metric::{MetricSpace, L2};
use kcz_workloads::uniform_box;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_throughput");
    g.sample_size(20);
    for &n in &[1_000usize, 10_000, 100_000] {
        let pts: Vec<[f64; 2]> = uniform_box(n, 1000.0, 7);
        // A query outside the cloud: absorb scans must walk the whole
        // array, so scalar and batched variants do identical work.
        let q = [-500.0, -500.0];
        let r = 1.0;
        g.throughput(Throughput::Elements(n as u64));

        // One-to-many distances: scalar `dist` per point ...
        g.bench_with_input(BenchmarkId::new("one_to_many_scalar", n), &pts, |b, pts| {
            b.iter(|| {
                let mut m = f64::INFINITY;
                for p in pts {
                    m = m.min(L2.dist(&q, p));
                }
                black_box(m)
            });
        });
        // ... vs the batched kernel (squared accumulation, one sqrt pass).
        let mut buf = Vec::with_capacity(n);
        g.bench_with_input(
            BenchmarkId::new("one_to_many_batched", n),
            &pts,
            |b, pts| {
                b.iter(|| {
                    L2.dist_many(&q, pts, &mut buf);
                    black_box(buf.iter().copied().fold(f64::INFINITY, f64::min))
                });
            },
        );
        // `nearest` skips even the final sqrt pass (one sqrt total).
        g.bench_with_input(BenchmarkId::new("nearest_kernel", n), &pts, |b, pts| {
            b.iter(|| black_box(L2.nearest(&q, pts)));
        });

        // Absorb-candidate query: scalar scan with per-point sqrt ...
        g.bench_with_input(BenchmarkId::new("absorb_scalar", n), &pts, |b, pts| {
            b.iter(|| black_box(pts.iter().position(|p| L2.dist(&q, p) <= r)));
        });
        // ... vs the pruned kernel (squared threshold, no sqrt at all).
        g.bench_with_input(BenchmarkId::new("absorb_batched", n), &pts, |b, pts| {
            b.iter(|| black_box(L2.find_within(&q, pts, r)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
