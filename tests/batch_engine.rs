//! Integration tests of the batch engine's core promise: batch results
//! are bit-identical to running the same queries sequentially through
//! [`Verifier`], at any worker count, any cache capacity, and under
//! forced hash collisions.

use gfab::engine::{BatchOp, BatchQuery, OwnedCircuit, QueryOutcome};
use gfab::field::nist::irreducible_polynomial;
use gfab::field::{Gf2Poly, GfContext};
use gfab::netlist::mutate::inject_random_bug;
use gfab::prelude::*;
use gfab::{ArtifactCache, Engine, EngineConfig};
use std::sync::Arc;

fn ctx_for(k: usize) -> Arc<GfContext> {
    GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap()
}

/// A mixed batch: duplicates, shared hierarchical sub-blocks, a refuted
/// query, and two fields.
fn mixed_batch() -> Vec<BatchQuery> {
    let m4 = irreducible_polynomial(4).unwrap();
    let m5 = irreducible_polynomial(5).unwrap();
    let c4 = ctx_for(4);
    let c5 = ctx_for(5);
    let mast4 = gfab::circuits::mastrovito_multiplier(&c4);
    let (buggy, _) = inject_random_bug(&mast4, 7);
    let q = |name: &str, modulus: &Gf2Poly, op: BatchOp| BatchQuery {
        name: name.into(),
        modulus: modulus.clone(),
        op,
    };
    vec![
        q(
            "mont-eq",
            &m4,
            BatchOp::Equiv {
                spec: mast4.clone(),
                impl_: OwnedCircuit::Hier(gfab::circuits::montgomery_multiplier_hier(&c4)),
            },
        ),
        q(
            "mont-eq-dup",
            &m4,
            BatchOp::Equiv {
                spec: mast4.clone(),
                impl_: OwnedCircuit::Hier(gfab::circuits::montgomery_multiplier_hier(&c4)),
            },
        ),
        q(
            "buggy",
            &m4,
            BatchOp::Equiv {
                spec: mast4.clone(),
                impl_: OwnedCircuit::Flat(buggy),
            },
        ),
        q(
            "adder-vs-mult",
            &m4,
            BatchOp::Equiv {
                spec: mast4,
                impl_: OwnedCircuit::Flat(gfab::circuits::gf_adder(&c4)),
            },
        ),
        q(
            "squarer5",
            &m5,
            BatchOp::Extract(OwnedCircuit::Flat(gfab::circuits::squarer(&c5))),
        ),
        q(
            "mont5",
            &m5,
            BatchOp::Extract(OwnedCircuit::Hier(
                gfab::circuits::montgomery_multiplier_hier(&c5),
            )),
        ),
    ]
}

/// A deterministic rendering of everything verdict-relevant in a query
/// outcome (functions, counterexamples, verdict kind) — no wall-clock
/// fields.
fn fingerprint(outcome: &QueryOutcome) -> String {
    let func = |f: &WordFunction| format!("{}", f.display());
    let cex = |c: &[Gf]| {
        c.iter()
            .map(|g| g.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    match outcome {
        QueryOutcome::Failed(e) => format!("failed:{e}"),
        QueryOutcome::TimedOut(e) => format!("timeout:{e}"),
        QueryOutcome::Extracted(r) => match (r.function(), r.as_flat()) {
            (Some(f), _) => format!("canonical:{}", func(f)),
            (None, Some(flat)) => format!("flat:{:?}", flat.outcome),
            (None, None) => "hier:none".into(),
        },
        QueryOutcome::Checked(r) => match &r.verdict {
            Verdict::Equivalent { function } => format!("eq:{}", func(function)),
            Verdict::Inequivalent {
                spec,
                impl_,
                counterexample,
            } => format!(
                "neq:{}|{}|{}",
                func(spec),
                func(impl_),
                counterexample.as_deref().map(cex).unwrap_or_default()
            ),
            Verdict::InequivalentBySimulation { counterexample } => {
                format!("neq-sim:{}", cex(counterexample))
            }
            Verdict::EquivalentBySat { conflicts } => format!("eq-sat:{conflicts}"),
            Verdict::InequivalentBySat {
                counterexample,
                conflicts,
            } => format!("neq-sat:{}:{conflicts}", cex(counterexample)),
            Verdict::Unknown { reason } => format!("unknown:{reason}"),
        },
    }
}

/// The sequential baseline: one standalone `Verifier` per query, no
/// engine, no cache.
fn sequential_fingerprints(queries: &[BatchQuery]) -> Vec<String> {
    queries
        .iter()
        .map(|q| {
            let ctx = GfContext::shared(q.modulus.clone()).unwrap();
            let v = Verifier::new(&ctx).threads(1);
            let outcome = match &q.op {
                BatchOp::Extract(c) => match v.extract(c.as_circuit()) {
                    Ok(r) => QueryOutcome::Extracted(Box::new(r)),
                    Err(e) => QueryOutcome::Failed(e.to_string()),
                },
                BatchOp::Equiv { spec, impl_ } => match v.check(spec, impl_.as_circuit()) {
                    Ok(r) => QueryOutcome::Checked(Box::new(r)),
                    Err(e) => QueryOutcome::Failed(e.to_string()),
                },
            };
            fingerprint(&outcome)
        })
        .collect()
}

#[test]
fn batch_matches_sequential_at_every_thread_count() {
    let queries = mixed_batch();
    let baseline = sequential_fingerprints(&queries);
    assert!(
        baseline.iter().any(|f| f.starts_with("neq")),
        "{baseline:?}"
    );
    assert!(baseline.iter().any(|f| f.starts_with("eq")), "{baseline:?}");
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(EngineConfig {
            threads,
            ..EngineConfig::default()
        });
        let report = engine.run_batch(&queries);
        let got: Vec<String> = report
            .results
            .iter()
            .map(|r| fingerprint(&r.outcome))
            .collect();
        assert_eq!(got, baseline, "threads = {threads}");
        assert!(
            report.cache.hits > 0,
            "duplicates and shared blocks must hit at threads = {threads}: {:?}",
            report.cache
        );
    }
}

#[test]
fn eviction_under_pressure_stays_sound() {
    // Capacity 1 forces constant thrashing: every structure evicts the
    // previous one. Verdicts must not change — eviction only costs
    // recomputation, never correctness.
    let queries = mixed_batch();
    let baseline = sequential_fingerprints(&queries);
    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 1,
        ..EngineConfig::default()
    });
    let cold = engine.run_batch(&queries);
    let warm = engine.run_batch(&queries);
    for (pass, report) in [("cold", &cold), ("warm", &warm)] {
        let got: Vec<String> = report
            .results
            .iter()
            .map(|r| fingerprint(&r.outcome))
            .collect();
        assert_eq!(got, baseline, "{pass} pass under cache pressure");
    }
    assert!(
        cold.cache.evictions > 0,
        "capacity 1 over many structures must evict: {:?}",
        cold.cache
    );
    assert!(cold.cache.entries <= 1);
}

#[test]
fn warm_repeat_of_extraction_batch_is_free() {
    let queries: Vec<BatchQuery> = mixed_batch()
        .into_iter()
        .filter(|q| matches!(q.op, BatchOp::Extract(_)))
        .collect();
    let engine = Engine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let cold = engine.run_batch(&queries);
    let warm = engine.run_batch(&queries);
    assert!(cold.work_units > 0);
    assert_eq!(
        warm.work_units, 0,
        "a fully warm extraction pass computes nothing"
    );
    assert!(warm.wall <= cold.wall * 4, "warm pass should not blow up");
}

#[test]
fn colliding_hash_prefixes_cannot_poison_the_cache() {
    // Simulate a 64-bit digest collision: two keys that agree on a short
    // prefix (and are filed under the SAME hash bucket) must still
    // resolve to their own values — the cache byte-verifies full keys.
    let cache: ArtifactCache<&'static str> = ArtifactCache::new(8);
    let key_a: Arc<[u8]> = Arc::from(&b"\x01\x02\x03circuit-alpha"[..]);
    let key_b: Arc<[u8]> = Arc::from(&b"\x01\x02\x03circuit-beta"[..]);
    let hash = 0xDEAD_BEEF_u64;
    cache.insert(hash, Arc::clone(&key_a), "alpha-result");
    assert_eq!(
        cache.lookup(hash, &key_b),
        None,
        "a colliding hash with different key bytes is a miss"
    );
    cache.insert(hash, Arc::clone(&key_b), "beta-result");
    assert_eq!(cache.lookup(hash, &key_a), Some("alpha-result"));
    assert_eq!(cache.lookup(hash, &key_b), Some("beta-result"));
}
