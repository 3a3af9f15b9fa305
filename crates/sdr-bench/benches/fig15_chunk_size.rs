//! Criterion bench for the Figure 15 kernel: per-packet completion
//! processing cost as a function of bitmap chunk size (the worker-side
//! cycle footprint must be independent of chunk size).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdr_core::ImmLayout;
use sdr_dpa::{RecvCqe, RecvStats, RecvTable};
use std::hint::black_box;

fn bench_chunk_sizes(c: &mut Criterion) {
    let layout = ImmLayout::default();
    let mut g = c.benchmark_group("dpa_process_per_chunk_size");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    const PKTS: usize = 16 * 1024;
    g.throughput(Throughput::Elements(PKTS as u64));

    for chunk_pkts in [1u32, 4, 16, 64] {
        g.bench_with_input(
            BenchmarkId::from_parameter(chunk_pkts),
            &chunk_pkts,
            |b, &cp| {
                b.iter_batched(
                    || {
                        let t = RecvTable::new(4, layout);
                        t.post(0, 0, PKTS, cp);
                        t
                    },
                    |t| {
                        let mut st = RecvStats::default();
                        for pkt in 0..PKTS as u32 {
                            t.process(RecvCqe::landed(layout.encode(0, pkt, 0), 0), &mut st);
                        }
                        black_box(st)
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_chunk_sizes
}
criterion_main!(benches);
