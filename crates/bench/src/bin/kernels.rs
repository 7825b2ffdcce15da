//! Coefficient-kernel microbenchmark and differential gate.
//!
//! Exercises the zero-allocation GF(2^k) kernels (windowed comb multiply,
//! spread-table squaring, precomputed modular reduction, batch inversion)
//! against the bit-serial `gfab_field::reference` oracle.
//!
//! Modes:
//!
//! * default — timing sweep: per-op latency of the kernel path vs the
//!   reference path at each k, with the speedup factor and inline-storage
//!   residency.
//! * `--smoke` — quick differential self-check over every NIST field plus
//!   small dense moduli; exits 1 on any mismatch (wired into `ci.sh`).
//!
//! The kernels' work counters are pinned exactly by
//! `kernel_counter_deltas_are_deterministic` in `tests/field_kernels.rs`.
//!
//! Run: `cargo run --release -p gfab-bench --bin kernels [--smoke] [k ...]`

use gfab_bench::require_field;
use gfab_field::nist::{irreducible_polynomial, NIST_DEGREES};
use gfab_field::rng::Rng;
use gfab_field::{kernel, reference, Gf, Gf2Poly, GfContext};
use std::time::{Duration, Instant};

/// Small dense (non-NIST) moduli exercised by `--smoke`: degrees chosen to
/// cross the limb boundaries (63/64/65) and the u64 packing edge.
const DENSE_SMOKE_DEGREES: [usize; 7] = [2, 8, 63, 64, 65, 128, 129];

fn main() {
    let mut smoke = false;
    let mut ks: Vec<usize> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            other => match other.parse::<usize>() {
                Ok(k) => {
                    require_field(k);
                    ks.push(k);
                }
                Err(_) => {
                    eprintln!("usage: kernels [--smoke] [k ...]");
                    std::process::exit(2);
                }
            },
        }
    }
    if smoke {
        run_smoke();
    } else {
        let sweep = if ks.is_empty() {
            vec![64, 163, 233, 283, 409, 571]
        } else {
            ks
        };
        run_timing(&sweep);
    }
}

/// A random reduced element of the field (dense, degree < k).
fn random_element(ctx: &GfContext, rng: &mut Rng) -> Gf {
    ctx.random(rng)
}

// ---------------------------------------------------------------------------
// --smoke: differential self-check (new kernels vs reference oracle)
// ---------------------------------------------------------------------------

fn smoke_field(ctx: &GfContext, rng: &mut Rng, checks: &mut u64) {
    let m = ctx.modulus().clone();
    let pairs = 8usize;
    let mut batch = Vec::new();
    for _ in 0..pairs {
        let a = random_element(ctx, rng);
        let b = random_element(ctx, rng);
        let want_mul = reference::field_mul(&m, a.as_poly(), b.as_poly());
        let got_mul = ctx.mul(&a, &b);
        assert_differential(ctx.k(), "mul", got_mul.as_poly(), &want_mul);
        let want_sq = reference::field_square(&m, a.as_poly());
        let got_sq = ctx.square(&a);
        assert_differential(ctx.k(), "square", got_sq.as_poly(), &want_sq);
        if !a.is_zero() {
            let want_inv = reference::field_inv(&m, a.as_poly()).expect("nonzero inverts");
            let got_inv = ctx.inv(&a).expect("nonzero inverts");
            assert_differential(ctx.k(), "inv", got_inv.as_poly(), &want_inv);
            batch.push(a.clone());
        }
        *checks += 3;
    }
    // Batch inversion must agree with the element-at-a-time path.
    let inv = ctx.batch_inv(&batch).expect("no zeros in batch");
    for (x, xi) in batch.iter().zip(&inv) {
        assert!(
            ctx.mul(x, xi).is_one(),
            "k={}: batch_inv produced a non-inverse",
            ctx.k()
        );
        *checks += 1;
    }
    // Edge cases: zero annihilates, one is neutral, alpha matches x.
    let alpha = ctx.alpha();
    assert!(ctx.mul(&ctx.zero(), &alpha).is_zero());
    assert_eq!(ctx.mul(&ctx.one(), &alpha), alpha);
    assert_eq!(
        ctx.square(&alpha).as_poly(),
        &reference::field_square(&m, &Gf2Poly::x())
    );
    *checks += 3;
}

fn assert_differential(k: usize, op: &str, got: &Gf2Poly, want: &Gf2Poly) {
    if got != want {
        eprintln!("kernel smoke FAILED: k={k} {op}: kernel={got} reference={want}");
        std::process::exit(1);
    }
}

fn run_smoke() {
    let mut rng = Rng::seed_from_u64(0x5EED_5EED);
    let mut checks = 0u64;
    for k in NIST_DEGREES {
        let ctx = GfContext::new(irreducible_polynomial(k).expect("NIST k")).expect("irreducible");
        smoke_field(&ctx, &mut rng, &mut checks);
    }
    for k in DENSE_SMOKE_DEGREES {
        let ctx = GfContext::new(irreducible_polynomial(k).expect("table k")).expect("irreducible");
        smoke_field(&ctx, &mut rng, &mut checks);
    }
    println!("kernel smoke OK ({checks} differential checks)");
}

// ---------------------------------------------------------------------------
// default: timing sweep, kernel vs reference
// ---------------------------------------------------------------------------

/// Times `f` over repeated passes until ~40 ms has elapsed; returns the
/// best per-call latency in nanoseconds.
fn best_ns_per_call(calls_per_pass: usize, mut f: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(40);
    let mut best = f64::INFINITY;
    let mut spent = Duration::ZERO;
    let mut passes = 0u32;
    while spent < budget || passes < 3 {
        let t = Instant::now();
        f();
        let dt = t.elapsed();
        spent += dt;
        passes += 1;
        best = best.min(dt.as_nanos() as f64 / calls_per_pass as f64);
    }
    best
}

fn run_timing(sweep: &[usize]) {
    println!("Coefficient-kernel timings (kernel path vs bit-serial reference)\n");
    println!(
        "{:>5} {:>12} {:>12} {:>9} {:>12} {:>12} {:>9} {:>8}",
        "k", "mul_ns", "ref_mul_ns", "speedup", "sq_ns", "ref_sq_ns", "sq_spdup", "inline%"
    );
    for &k in sweep {
        let p = irreducible_polynomial(k).expect("k checked by require_field");
        let m = p.clone();
        let ctx = GfContext::new(p).expect("irreducible");
        let mut rng = Rng::seed_from_u64(0xBE2C_0000 ^ k as u64);
        let elems: Vec<Gf> = (0..128).map(|_| random_element(&ctx, &mut rng)).collect();
        let pairs: Vec<(&Gf, &Gf)> = elems.chunks(2).map(|c| (&c[0], &c[1])).collect();

        let before = kernel::snapshot();
        let mul_ns = best_ns_per_call(pairs.len(), || {
            for (a, b) in &pairs {
                std::hint::black_box(ctx.mul(a, b));
            }
        });
        let sq_ns = best_ns_per_call(elems.len(), || {
            for a in &elems {
                std::hint::black_box(ctx.square(a));
            }
        });
        let delta = kernel::snapshot().delta_since(&before);
        let results = delta.inline_results + delta.heap_results;
        let inline_pct = if results == 0 {
            0.0
        } else {
            100.0 * delta.inline_results as f64 / results as f64
        };

        let ref_mul_ns = best_ns_per_call(pairs.len(), || {
            for (a, b) in &pairs {
                std::hint::black_box(reference::field_mul(&m, a.as_poly(), b.as_poly()));
            }
        });
        let ref_sq_ns = best_ns_per_call(elems.len(), || {
            for a in &elems {
                std::hint::black_box(reference::field_square(&m, a.as_poly()));
            }
        });

        let speedup = ref_mul_ns / mul_ns;
        let sq_speedup = ref_sq_ns / sq_ns;
        println!(
            "{:>5} {:>12.0} {:>12.0} {:>8.1}x {:>12.0} {:>12.0} {:>8.1}x {:>7.1}%",
            k, mul_ns, ref_mul_ns, speedup, sq_ns, ref_sq_ns, sq_speedup, inline_pct
        );
    }
}
