//! Kernel microbenchmarks: the fixed-point primitives underneath every
//! figure — scalar MACs, the ROM-based activation functions, GEMV in
//! each backend, the Adam unit, and the PE datapath decomposition.

use criterion::{criterion_group, criterion_main, Criterion};
use fixar::prelude::*;
use fixar_accel::{ConfigurablePe, PeMode};
use fixar_nn::MlpGrads;
use fixar_tensor::Matrix;

fn bench_scalar_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalar_mac");
    let af = 1.2345f32;
    let bf = -0.5678f32;
    group.bench_function("f32", |b| {
        b.iter(|| std::hint::black_box(af) * std::hint::black_box(bf) + af)
    });
    let aq = Fx32::from_f64(1.2345);
    let bq = Fx32::from_f64(-0.5678);
    group.bench_function("fx32", |b| {
        b.iter(|| std::hint::black_box(aq) * std::hint::black_box(bq) + aq)
    });
    let ah = Fx16::from_f64(1.2345);
    let bh = Fx16::from_f64(-0.5678);
    group.bench_function("fx16", |b| {
        b.iter(|| std::hint::black_box(ah) * std::hint::black_box(bh) + ah)
    });
    group.finish();

    let mut group = c.benchmark_group("scalar_tanh");
    group.bench_function("f32_libm", |b| {
        b.iter(|| std::hint::black_box(0.7f32).tanh())
    });
    group.bench_function("fx32_rom", |b| {
        b.iter(|| std::hint::black_box(Fx32::from_f64(0.7)).tanh())
    });
    group.finish();
}

fn bench_gemv(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemv_400x300");
    let wf: Matrix<f32> = Matrix::from_fn(300, 400, |r, c| ((r * 3 + c) % 17) as f32 * 0.01);
    let xf: Vec<f32> = (0..400).map(|i| (i as f32 * 0.01).sin()).collect();
    group.bench_function("f32", |b| {
        b.iter(|| wf.gemv_alloc(std::hint::black_box(&xf)).unwrap())
    });
    let wq: Matrix<Fx32> = wf.cast();
    let xq: Vec<Fx32> = xf.iter().map(|&v| Fx32::from_f32(v)).collect();
    group.bench_function("fx32", |b| {
        b.iter(|| wq.gemv_alloc(std::hint::black_box(&xq)).unwrap())
    });
    group.finish();
}

fn bench_pe(c: &mut Criterion) {
    let mut group = c.benchmark_group("pe_datapath");
    let pe_full = ConfigurablePe::new(PeMode::Full);
    let pe_half = ConfigurablePe::new(PeMode::Half);
    group.bench_function("mac_full_32x32", |b| {
        b.iter(|| {
            pe_full.mac_full(
                std::hint::black_box(123_456),
                std::hint::black_box(-654_321),
            )
        })
    });
    group.bench_function("mac_half_two_lanes", |b| {
        b.iter(|| {
            pe_half.mac_half(
                std::hint::black_box(123_456),
                std::hint::black_box(77),
                std::hint::black_box(-99),
            )
        })
    });
    group.finish();
}

fn bench_adam(c: &mut Criterion) {
    let mut group = c.benchmark_group("adam_step_17x400x300x6");
    group.sample_size(10);
    let cfg = MlpConfig::new(vec![17, 400, 300, 6]);
    group.bench_function("fx32", |b| {
        let mut mlp = Mlp::<Fx32>::new_random(&cfg, 0).unwrap();
        let grads = MlpGrads::zeros_like(&mlp);
        let mut opt = Adam::new(&mlp, AdamConfig::default());
        b.iter(|| opt.step(&mut mlp, &grads).unwrap());
    });
    group.bench_function("f32", |b| {
        let mut mlp = Mlp::<f32>::new_random(&cfg, 0).unwrap();
        let grads = MlpGrads::zeros_like(&mlp);
        let mut opt = Adam::new(&mlp, AdamConfig::default());
        b.iter(|| opt.step(&mut mlp, &grads).unwrap());
    });
    group.finish();
}

fn bench_quantizer(c: &mut Criterion) {
    let q = AffineQuantizer::from_range(-3.0, 5.0, 16).unwrap();
    let mut xs: Vec<Fx32> = (0..512)
        .map(|i| Fx32::from_f64((i as f64 * 0.11).sin() * 3.0))
        .collect();
    c.bench_function("fake_quantize_512", |b| {
        b.iter(|| Fx32::fake_quantize_slice(&q, std::hint::black_box(&mut xs)))
    });
}

criterion_group!(
    benches,
    bench_scalar_ops,
    bench_gemv,
    bench_pe,
    bench_adam,
    bench_quantizer
);
criterion_main!(benches);
