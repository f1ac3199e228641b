//! Criterion benches for the language pipeline: parse, resolve, lower,
//! print, re-parse, and code generation of the Figure 5 specification.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let src = artemis_spec::samples::FIGURE5;
    let app = artemis_bench::health::health_app();

    c.bench_function("pipeline_parse_spec", |b| {
        b.iter(|| black_box(artemis_spec::parse(black_box(src)).unwrap()))
    });

    let ast = artemis_spec::parse(src).unwrap();
    c.bench_function("pipeline_resolve", |b| {
        b.iter(|| black_box(artemis_spec::resolve(black_box(&ast), &app).unwrap()))
    });

    let set = artemis_spec::resolve(&ast, &app).unwrap();
    c.bench_function("pipeline_lower_to_fsm", |b| {
        b.iter(|| black_box(artemis_ir::lower_set(black_box(&set), &app).unwrap()))
    });

    let suite = artemis_ir::lower_set(&set, &app).unwrap();
    c.bench_function("pipeline_print_ir", |b| {
        b.iter(|| black_box(artemis_ir::print::print_suite(black_box(&suite))))
    });

    let ir_text = artemis_ir::print::print_suite(&suite);
    c.bench_function("pipeline_parse_ir", |b| {
        b.iter(|| black_box(artemis_ir::parse::parse_suite(black_box(&ir_text)).unwrap()))
    });

    c.bench_function("pipeline_emit_c", |b| {
        b.iter(|| black_box(artemis_ir::codegen::emit_c(black_box(&suite))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pipeline
}
criterion_main!(benches);
