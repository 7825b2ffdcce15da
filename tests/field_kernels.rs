//! Differential suite for the zero-allocation GF(2^k) coefficient kernels.
//!
//! Every operation of the optimized path (windowed comb multiply,
//! spread-table squaring, precomputed modular reduction, batch inversion)
//! is checked element-for-element against the bit-serial
//! `gfab_field::reference` oracle, over:
//!
//! * all five NIST degrees (sparse pentanomial/trinomial moduli, the
//!   shift-XOR reduction path), and
//! * seeded random *dense* irreducible moduli at degrees straddling the
//!   limb boundaries (2, 8, 63, 64, 65, 128, 129), which force the
//!   table-driven dense reduction path.
//!
//! Also asserted here: the zero/one/α algebraic edges, batch-inversion
//! error handling, and the inline-residency guarantee — no coefficient
//! result may spill to the heap for k ≤ 571.

use gfab::field::nist::{irreducible_polynomial, NIST_DEGREES};
use gfab::field::rng::Rng;
use gfab::field::{kernel, reference, FieldError, Gf, Gf2Poly, GfContext};

/// Degrees for the random dense-modulus sweep: limb-boundary crossings.
const DENSE_DEGREES: [usize; 7] = [2, 8, 63, 64, 65, 128, 129];

/// A seeded random polynomial of exact degree `k`.
fn random_monic(k: usize, rng: &mut Rng) -> Gf2Poly {
    let mut limbs = vec![0u64; k / 64 + 1];
    for w in &mut limbs {
        *w = rng.next_u64();
    }
    let mut p = Gf2Poly::from_limbs(limbs);
    // Clear everything at and above x^k, then force the leading term.
    p = p.rem(&Gf2Poly::monomial(k));
    p.set_coeff(k, true);
    p
}

/// A seeded random *irreducible* polynomial of degree `k` (rejection
/// sampling; irreducibles of degree k have density ~1/k, so this is fast).
fn random_dense_irreducible(k: usize, rng: &mut Rng) -> Gf2Poly {
    loop {
        let mut p = random_monic(k, rng);
        p.set_coeff(0, true); // x | p would be reducible
        if p.is_irreducible() {
            return p;
        }
    }
}

fn random_element(ctx: &GfContext, rng: &mut Rng) -> Gf {
    ctx.random(rng)
}

/// The core differential check: `rounds` random mul/square/inv triples
/// plus the algebraic edges, for one field.
fn check_field(ctx: &GfContext, rng: &mut Rng, rounds: usize) {
    let m = ctx.modulus();
    for round in 0..rounds {
        let a = random_element(ctx, rng);
        let b = random_element(ctx, rng);
        assert_eq!(
            ctx.mul(&a, &b).as_poly(),
            &reference::field_mul(m, a.as_poly(), b.as_poly()),
            "mul mismatch k={} round={round}",
            ctx.k()
        );
        assert_eq!(
            ctx.square(&a).as_poly(),
            &reference::field_square(m, a.as_poly()),
            "square mismatch k={} round={round}",
            ctx.k()
        );
        if !a.is_zero() {
            let want = reference::field_inv(m, a.as_poly()).expect("nonzero inverts");
            assert_eq!(
                ctx.inv(&a).expect("nonzero inverts").as_poly(),
                &want,
                "inv mismatch k={} round={round}",
                ctx.k()
            );
        }
    }
    // Algebraic edges: 0 annihilates, 1 is neutral, α² = x² mod P.
    let alpha = ctx.alpha();
    assert!(ctx.mul(&ctx.zero(), &alpha).is_zero());
    assert!(ctx.square(&ctx.zero()).is_zero());
    assert_eq!(ctx.mul(&ctx.one(), &alpha), alpha);
    assert_eq!(ctx.square(&ctx.one()), ctx.one());
    assert_eq!(
        ctx.square(&alpha).as_poly(),
        &reference::field_square(m, &Gf2Poly::x())
    );
}

#[test]
fn kernels_match_reference_on_nist_fields() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0001);
    for k in NIST_DEGREES {
        let ctx = GfContext::new(irreducible_polynomial(k).unwrap()).unwrap();
        check_field(&ctx, &mut rng, 12);
    }
}

#[test]
fn kernels_match_reference_on_random_dense_moduli() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0002);
    for k in DENSE_DEGREES {
        // Degree-2 irreducibles are rare enough (only x²+x+1) that the
        // fixed NIST-style table modulus is used below k=3.
        let modulus = if k < 3 {
            irreducible_polynomial(k).unwrap()
        } else {
            random_dense_irreducible(k, &mut rng)
        };
        let ctx = GfContext::new(modulus).unwrap();
        check_field(&ctx, &mut rng, 12);
    }
}

#[test]
fn batch_inversion_matches_individual_inverses() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0003);
    for k in [8, 64, 163, 571] {
        let ctx = GfContext::new(irreducible_polynomial(k).unwrap()).unwrap();
        let xs: Vec<Gf> = (0..17)
            .map(|_| loop {
                let x = random_element(&ctx, &mut rng);
                if !x.is_zero() {
                    break x;
                }
            })
            .collect();
        let inv = ctx.batch_inv(&xs).expect("no zeros");
        assert_eq!(inv.len(), xs.len());
        for (x, xi) in xs.iter().zip(&inv) {
            assert_eq!(xi, &ctx.inv(x).unwrap(), "batch_inv disagrees at k={k}");
            assert!(ctx.mul(x, xi).is_one());
        }
        // Empty batch: trivially fine.
        assert_eq!(ctx.batch_inv(&[]).unwrap(), Vec::new());
    }
}

#[test]
fn batch_inversion_rejects_zero_without_corrupting_anything() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0004);
    let ctx = GfContext::new(irreducible_polynomial(163).unwrap()).unwrap();
    let mut xs: Vec<Gf> = (0..5).map(|_| random_element(&ctx, &mut rng)).collect();
    xs.insert(3, ctx.zero());
    match ctx.batch_inv(&xs) {
        Err(FieldError::ZeroInverse) => {}
        other => panic!("expected ZeroInverse, got {other:?}"),
    }
    // The inputs are untouched and still invert individually.
    for (i, x) in xs.iter().enumerate() {
        if i != 3 {
            assert!(ctx.mul(x, &ctx.inv(x).unwrap()).is_one());
        }
    }
}

#[test]
fn coefficient_results_stay_inline_for_nist_fields() {
    // The acceptance property behind the --mem-stats numbers: at every
    // NIST degree (through k=571, the 9-limb inline ceiling), no kernel
    // result may spill to heap limb storage.
    let mut rng = Rng::seed_from_u64(0xD1FF_0005);
    for k in NIST_DEGREES {
        let ctx = GfContext::new(irreducible_polynomial(k).unwrap()).unwrap();
        let xs: Vec<Gf> = (0..24)
            .map(|_| loop {
                let x = random_element(&ctx, &mut rng);
                if !x.is_zero() {
                    break x;
                }
            })
            .collect();
        let before = kernel::snapshot();
        let mut acc = ctx.one();
        for pair in xs.chunks(2) {
            acc = ctx.mul(&acc, &ctx.mul(&pair[0], &pair[1]));
            acc = ctx.square(&acc);
        }
        let inv = ctx.batch_inv(&xs).unwrap();
        assert!(inv.iter().all(|x| x.as_poly().is_inline()));
        assert!(acc.as_poly().is_inline());
        let delta = kernel::snapshot().delta_since(&before);
        assert_eq!(
            delta.heap_results, 0,
            "k={k}: kernel results spilled to the heap"
        );
        assert!(delta.inline_results > 0);
        assert!(delta.coeff_muls > 0 && delta.coeff_squares > 0);
        assert!(delta.reduction_folds > 0);
    }
}

#[test]
fn kernel_counter_deltas_are_deterministic() {
    // Two identical seeded workloads must report identical counter
    // deltas — the property that makes the per-span kernel telemetry
    // meaningful in traces.
    let run = || {
        let mut rng = Rng::seed_from_u64(0xD1FF_0006);
        let ctx = GfContext::new(irreducible_polynomial(233).unwrap()).unwrap();
        let before = kernel::snapshot();
        let mut acc = ctx.alpha();
        for _ in 0..40 {
            let x = random_element(&ctx, &mut rng);
            acc = ctx.mul(&acc, &x);
            acc = ctx.square(&acc);
        }
        kernel::snapshot().delta_since(&before)
    };
    assert_eq!(run(), run());

    // A fixed seeded workload per NIST field pins the counters exactly,
    // together with an FNV-1a checksum of every result: any drift means
    // the kernels changed their results or their work profile.
    assert_eq!(pinned_kernel_profile(), PINNED_KERNEL_PROFILE);
}

/// Expected [`pinned_kernel_profile`] lines: one per NIST field, then
/// the totals (whose checksum chains through all five fields).
const PINNED_KERNEL_PROFILE: [&str; 6] = [
    "k=163 coeff-muls=221 coeff-squares=32 reduction-folds=976 inline=253 heap=0 checksum=bb9ee98ae26449b5",
    "k=233 coeff-muls=221 coeff-squares=32 reduction-folds=1264 inline=253 heap=0 checksum=145e21e69f5c1e03",
    "k=283 coeff-muls=221 coeff-squares=32 reduction-folds=1265 inline=253 heap=0 checksum=e101c29f539a3bfd",
    "k=409 coeff-muls=221 coeff-squares=32 reduction-folds=1771 inline=253 heap=0 checksum=83120ee7367378d5",
    "k=571 coeff-muls=221 coeff-squares=32 reduction-folds=2523 inline=253 heap=0 checksum=04b8025f7e28c335",
    "total coeff-muls=1105 coeff-squares=160 reduction-folds=7799 inline=1265 heap=0 checksum=04b8025f7e28c335",
];

/// Per NIST field: 32 multiplies and 32 squarings of seeded random
/// elements plus one batch inversion, reported as kernel counter deltas
/// and a running FNV-1a checksum over every result's limb bytes.
fn pinned_kernel_profile() -> Vec<String> {
    let fnv1a = |mut h: u64, p: &Gf2Poly| {
        for b in p.limbs().iter().flat_map(|limb| limb.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    };
    let line = |what: String, c: &kernel::KernelCounts, checksum: u64| {
        format!(
            "{what} coeff-muls={} coeff-squares={} reduction-folds={} inline={} heap={} \
             checksum={checksum:016x}",
            c.coeff_muls, c.coeff_squares, c.reduction_folds, c.inline_results, c.heap_results
        )
    };
    let mut lines = Vec::new();
    let mut total = kernel::KernelCounts::new();
    let mut checksum = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
    for k in NIST_DEGREES {
        let ctx = GfContext::new(irreducible_polynomial(k).unwrap()).unwrap();
        let mut rng = Rng::seed_from_u64(0xC0FF_EE00 ^ k as u64);
        let elems: Vec<Gf> = (0..64).map(|_| random_element(&ctx, &mut rng)).collect();
        let before = kernel::snapshot();
        for pair in elems.chunks(2) {
            checksum = fnv1a(checksum, ctx.mul(&pair[0], &pair[1]).as_poly());
            checksum = fnv1a(checksum, ctx.square(&pair[0]).as_poly());
        }
        let nonzero: Vec<Gf> = elems.iter().filter(|e| !e.is_zero()).cloned().collect();
        for inv in ctx.batch_inv(&nonzero).unwrap() {
            checksum = fnv1a(checksum, inv.as_poly());
        }
        let d = kernel::snapshot().delta_since(&before);
        lines.push(line(format!("k={k}"), &d, checksum));
        total = kernel::KernelCounts {
            coeff_muls: total.coeff_muls + d.coeff_muls,
            coeff_squares: total.coeff_squares + d.coeff_squares,
            reduction_folds: total.reduction_folds + d.reduction_folds,
            inline_results: total.inline_results + d.inline_results,
            heap_results: total.heap_results + d.heap_results,
        };
    }
    lines.push(line("total".to_string(), &total, checksum));
    lines
}
