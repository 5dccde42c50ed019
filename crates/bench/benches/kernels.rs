//! Criterion bench for the DP kernels underlying every aligner: full
//! fill vs last-row/col scan vs packed-direction fill, plus the
//! vectorized backend sweep (`flsa bench kernels` is the JSON-emitting
//! counterpart of the `kernel_backends` group).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flsa_dp::kernel::{fill_dir, fill_full, fill_last_row_col};
use flsa_dp::{Boundary, Kernel, KernelBackend, Metrics};
use flsa_scoring::ScoringScheme;
use flsa_seq::generate::random_sequence;
use flsa_seq::Alphabet;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let scheme = ScoringScheme::dna_default();
    let n = 1024;
    let a = random_sequence("a", &Alphabet::dna(), n, 1);
    let b = random_sequence("b", &Alphabet::dna(), n, 2);
    let bound = Boundary::global(n, n, -10);

    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    group.throughput(Throughput::Elements((n * n) as u64));

    group.bench_function("fill_full", |bch| {
        bch.iter(|| {
            let m = Metrics::new();
            black_box(fill_full(
                a.codes(),
                b.codes(),
                &bound.top,
                &bound.left,
                &scheme,
                &m,
            ))
        })
    });
    group.bench_function("fill_last_row_col", |bch| {
        let mut bottom = vec![0i32; n + 1];
        let mut right = vec![0i32; n + 1];
        bch.iter(|| {
            let m = Metrics::new();
            fill_last_row_col(
                a.codes(),
                b.codes(),
                &bound.top,
                &bound.left,
                &scheme,
                &mut bottom,
                Some(&mut right),
                &m,
            );
            black_box(bottom[n])
        })
    });
    group.bench_function("fill_dir", |bch| {
        bch.iter(|| {
            let m = Metrics::new();
            black_box(fill_dir(a.codes(), b.codes(), &bound.top, &bound.left, &scheme, &m).1[n])
        })
    });
    group.finish();
}

fn bench_backends(c: &mut Criterion) {
    let scheme = ScoringScheme::dna_default();
    let n = 1024;
    let a = random_sequence("a", &Alphabet::dna(), n, 1);
    let b = random_sequence("b", &Alphabet::dna(), n, 2);
    let bound = Boundary::global(n, n, -10);

    let mut group = c.benchmark_group("kernel_backends");
    group.sample_size(20);
    group.throughput(Throughput::Elements((n * n) as u64));

    for backend in KernelBackend::available() {
        let kernel = Kernel::try_new(backend).expect("available backend");
        group.bench_function(backend.name(), |bch| {
            let mut bottom = vec![0i32; n + 1];
            bch.iter(|| {
                let m = Metrics::new();
                kernel.fill_last_row(
                    a.codes(),
                    b.codes(),
                    &bound.top,
                    &bound.left,
                    &scheme,
                    &mut bottom,
                    &m,
                );
                black_box(bottom[n])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_backends);
criterion_main!(benches);
