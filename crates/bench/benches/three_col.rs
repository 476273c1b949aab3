//! 3-Colorability (paper §5.1, Figure 5): the FPT dynamic program vs the
//! exponential backtracking baseline vs the tree-automaton run, on random
//! partial 3-trees of growing size. The `three_col/min_fill` group times
//! the min-fill decomposition that `three_coloring_fpt` builds first, so
//! its scaling shows beside the DP's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdtw_core::ThreeColSolver;
use mdtw_decomp::{decompose, Heuristic, NiceOptions, NiceTd};
use mdtw_fta::nfta_3col;
use mdtw_graph::{encode_graph, is_three_colorable_exact, partial_k_tree, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn instances() -> Vec<(usize, Graph, NiceTd)> {
    let mut rng = SmallRng::seed_from_u64(1234);
    [50usize, 100, 200, 400]
        .into_iter()
        .map(|n| {
            let (g, td) = partial_k_tree(&mut rng, n, 3, 0.85);
            let nice = NiceTd::from_td(&td, NiceOptions::default());
            (n, g, nice)
        })
        .collect()
}

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("three_col/figure5_dp");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (n, g, nice) in instances() {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(ThreeColSolver::run(&g, &nice).is_colorable()));
        });
    }
    group.finish();
}

fn bench_backtracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("three_col/backtracking");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    // The exponential baseline is only run on the smaller inputs.
    for (n, g, _) in instances().into_iter().take(2) {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(is_three_colorable_exact(&g)));
        });
    }
    group.finish();
}

fn bench_nfta(c: &mut Criterion) {
    let mut group = c.benchmark_group("three_col/nfta_run");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (n, g, nice) in instances() {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(nfta_3col(&g, &nice)));
        });
    }
    group.finish();
}

fn bench_min_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("three_col/min_fill");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let mut rng = SmallRng::seed_from_u64(1234);
    for n in [400usize, 1600, 6400] {
        let (g, _) = partial_k_tree(&mut rng, n, 3, 0.85);
        let s = encode_graph(&g);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(decompose(&s, Heuristic::MinFill).width()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dp,
    bench_backtracking,
    bench_nfta,
    bench_min_fill
);
criterion_main!(benches);
