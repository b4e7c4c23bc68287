//! Criterion: the Algorithm 3 width search, the partition-sketch
//! extraction it runs on, and the ground-truth partition sweep it
//! replaces — quantifying the "lightweight" in LiteForm.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lf_cost::model::PartitionSketch;
use lf_cost::partition::optimal_partitions;
use lf_cost::search::{build_buckets, exhaustive_best_width, tune_width};
use lf_sim::DeviceModel;
use lf_sparse::gen::power_law;
use lf_sparse::gen::PowerLawConfig;
use lf_sparse::{CsrMatrix, Pcg32};

fn bench_cost(c: &mut Criterion) {
    let mut rng = Pcg32::seed_from_u64(31);
    let csr: CsrMatrix<f32> = CsrMatrix::from_coo(&power_law(
        &PowerLawConfig {
            rows: 30_000,
            cols: 30_000,
            target_nnz: 500_000,
            exponent: 1.9,
            max_degree: Some(5_000),
        },
        &mut rng,
    ));
    let sketch = PartitionSketch::from_csr(&csr, 0, csr.cols());
    let device = DeviceModel::v100();

    let mut group = c.benchmark_group("cost_model");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    group.sample_size(10);
    group.bench_function("tune_width_once", |b| {
        b.iter(|| tune_width(&sketch, 64));
    });
    group.bench_function("algorithm3_search", |b| {
        b.iter(|| build_buckets(&sketch, 128));
    });
    group.bench_function("exhaustive_width_reference", |b| {
        b.iter(|| exhaustive_best_width(&sketch, 128));
    });
    // The sketch extraction every compose pays once per matrix: one
    // parallel tally sweep over all partitions of a `p`-way split.
    for p in [1usize, 4, 16] {
        group.bench_function(format!("sketch_all_partitions_p{p}"), |b| {
            b.iter(|| PartitionSketch::all_from_csr(&csr, p));
        });
    }
    group.bench_function("partition_sweep_ground_truth", |b| {
        b.iter(|| optimal_partitions(&csr, 128, &device));
    });
    group.finish();
}

criterion_group!(benches, bench_cost);
criterion_main!(benches);
