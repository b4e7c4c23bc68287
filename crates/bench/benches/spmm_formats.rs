//! Criterion micro-benchmarks: numeric SpMM throughput of each format's
//! kernel on this host (the CPU execution path; simulated-GPU numbers are
//! produced by the figure binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lf_cell::{build_cell, CellConfig};
use lf_kernels::{
    BcsrKernel, CellKernel, CsrVectorKernel, DgSparseKernel, EllKernel, SpmmKernel, SputnikKernel,
    TacoKernel, TacoSchedule,
};
use lf_sparse::gen::mixed_regions;
use lf_sparse::{BcsrMatrix, CsrMatrix, DenseMatrix, EllMatrix, Pcg32};

fn bench_formats(c: &mut Criterion) {
    let mut rng = Pcg32::seed_from_u64(11);
    let csr: CsrMatrix<f32> = CsrMatrix::from_coo(&mixed_regions(4096, 4096, 200_000, 4, &mut rng));
    let j = 64;
    let b = DenseMatrix::random(csr.cols(), j, &mut rng);

    let mut group = c.benchmark_group("spmm_numeric");
    group.throughput(Throughput::Elements((csr.nnz() * j) as u64));
    group.sample_size(10);

    let kernels: Vec<(&str, Box<dyn SpmmKernel<f32>>)> = vec![
        ("csr_vector", Box::new(CsrVectorKernel::new(csr.clone()))),
        ("dgsparse", Box::new(DgSparseKernel::new(csr.clone()))),
        ("sputnik", Box::new(SputnikKernel::new(csr.clone()))),
        (
            "taco",
            Box::new(TacoKernel::new(csr.clone(), TacoSchedule::default())),
        ),
        ("ell", Box::new(EllKernel::new(EllMatrix::from_csr(&csr)))),
        (
            "bcsr",
            Box::new(BcsrKernel::new(BcsrMatrix::from_csr(&csr, 8, 8).unwrap())),
        ),
    ];
    for (name, kernel) in &kernels {
        group.bench_with_input(BenchmarkId::from_parameter(*name), kernel, |bch, k| {
            bch.iter(|| k.run(&b).unwrap());
        });
    }
    // CELL across the partition sweep.
    for p in [4usize, 16, 32] {
        let k = CellKernel::new(build_cell(&csr, &CellConfig::with_partitions(p)).unwrap());
        group.bench_with_input(BenchmarkId::new("cell", p), &k, |bch, k| {
            bch.iter(|| k.run(&b).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_formats);
criterion_main!(benches);
