//! Workload inputs: netlist texts and known answers generated from the
//! seed, and the timed set-up that turns them into what `gfab` consumes.
//!
//! The program only ever sees the generated texts. Ground truth comes
//! from this module's own simulation: exhaustive for k <= 8, otherwise a
//! seeded witness search whose vectors are drawn independently of the
//! program's simulation pre-check.

use gfab::circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
use gfab::field::nist::irreducible_polynomial;
use gfab::field::{Gf, Gf2Poly, GfContext, Rng};
use gfab::fuzz::fault::{alternate_modulus, inject_structural, ALL_FAULTS};
use gfab::netlist::hierarchy::{BlockInst, HierDesign, Signal};
use gfab::netlist::sim::simulate_wide;
use gfab::netlist::{format, Netlist};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's workloads, in the order they are documented.
pub const WORKLOADS: [&str; 3] = ["equiv-hier", "equiv-flat", "bug-hunt"];

/// Field sizes of `bug-hunt`. k <= 3 faults end in Case-2 completion;
/// larger k are refuted by the pre-check. Case 2 at k = 4..5 is left out
/// (it hits the 15 s completion cap; see README.md).
const BUG_HUNT_KS: [usize; 6] = [2, 3, 16, 32, 64, 163];

/// Up to this k the fault sites are drawn from [`FIXED_SEED`], not from
/// the run's seed. One Case-2 completion costs from 0.3 ms to over 1 s
/// depending on the site, so a per-seed draw of eighteen of them moved
/// `round_s` by more than half between seeds; a fixed draw keeps the
/// workload comparable across seeds while larger k still vary.
const FIXED_SITES_MAX_K: usize = 3;

/// The seed of the fault sites up to [`FIXED_SITES_MAX_K`].
const FIXED_SEED: u64 = 0;

/// Largest k with a clean (equivalent) control in `bug-hunt`.
const CLEAN_MAX_K: usize = 64;

/// Ground truth enumerates every input pair up to this k.
const EXHAUSTIVE_MAX_K: usize = 8;

/// Witness-search vectors per fault above [`EXHAUSTIVE_MAX_K`].
const WITNESS_VECTORS: usize = 1024;

/// Above [`EXHAUSTIVE_MAX_K`] a fault is kept only if it changes the
/// output on at least this share (numerator / 16) of the witness
/// vectors. Rarer faults escape a 64-vector pre-check and then run into
/// Case 2 at q = 2^k (k = 16, 32) or unbounded reduction growth (k >= 64),
/// both excluded on purpose (README.md).
const MIN_FIRE_SIXTEENTHS: usize = 3;

/// Redraws allowed per fault slot before generation gives up.
const MAX_DRAWS: usize = 64;

/// What the benchmark knows about a query before the program runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Equivalent,
    Inequivalent,
}

/// The implementation side of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impl {
    /// Index into [`Inputs::texts`].
    Flat(usize),
    /// The workload's hierarchical design.
    Hier,
}

/// One `Verifier::check` call and its known answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub label: String,
    pub k: usize,
    /// Index into [`Inputs::texts`].
    pub spec: usize,
    pub impl_: Impl,
    pub expect: Expect,
}

/// How the hierarchical design is wired: block `(instance, text index,
/// connections)` in topological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierLayout {
    pub name: String,
    pub inputs: Vec<(String, usize)>,
    pub blocks: Vec<(String, usize, Vec<Signal>)>,
    pub output: Signal,
    pub output_name: String,
}

/// Everything a run feeds the program, as generated from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// One modulus per field size in use, ascending k.
    pub moduli: Vec<(usize, Gf2Poly)>,
    /// Netlist texts in `gfab_netlist::format`.
    pub texts: Vec<String>,
    pub hier: Option<HierLayout>,
    pub queries: Vec<Query>,
}

/// Generates the inputs of `workload`. Only `bug-hunt` depends on `seed`.
///
/// # Errors
///
/// An unknown workload name.
pub fn generate(workload: &str, seed: u64) -> Result<Inputs, String> {
    match workload {
        "equiv-hier" => Ok(equiv_hier(283)),
        "equiv-flat" => Ok(equiv_flat(163)),
        "bug-hunt" => Ok(bug_hunt(seed)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn field(k: usize) -> (Gf2Poly, GfContext) {
    let p = irreducible_polynomial(k).expect("every k >= 2 has an irreducible polynomial");
    let ctx = GfContext::new(p.clone()).expect("irreducible modulus");
    (p, ctx)
}

/// Flat Mastrovito spec against the four-block Montgomery design.
fn equiv_hier(k: usize) -> Inputs {
    let (p, ctx) = field(k);
    let mut texts = vec![format::emit(&mastrovito_multiplier(&ctx))];
    let design = montgomery_multiplier_hier(&ctx);
    let blocks = design
        .blocks
        .iter()
        .map(|b| {
            texts.push(format::emit(&b.netlist));
            (b.name.clone(), texts.len() - 1, b.connections.clone())
        })
        .collect();
    Inputs {
        moduli: vec![(k, p)],
        texts,
        hier: Some(HierLayout {
            name: design.name,
            inputs: design.inputs,
            blocks,
            output: design.output,
            output_name: design.output_name,
        }),
        queries: vec![Query {
            label: format!("mastrovito-vs-montgomery-hier-k{k}"),
            k,
            spec: 0,
            impl_: Impl::Hier,
            expect: Expect::Equivalent,
        }],
    }
}

/// Flat Mastrovito spec against the flattened Montgomery netlist.
fn equiv_flat(k: usize) -> Inputs {
    let (p, ctx) = field(k);
    let texts = vec![
        format::emit(&mastrovito_multiplier(&ctx)),
        format::emit(&montgomery_multiplier_hier(&ctx).flatten()),
    ];
    Inputs {
        moduli: vec![(k, p)],
        texts,
        hier: None,
        queries: vec![Query {
            label: format!("mastrovito-vs-montgomery-flat-k{k}"),
            k,
            spec: 0,
            impl_: Impl::Flat(1),
            expect: Expect::Equivalent,
        }],
    }
}

/// splitmix64 finaliser: derives independent stream seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn stream(seed: u64, parts: &[u64]) -> Rng {
    Rng::seed_from_u64(parts.iter().fold(mix(seed), |h, &p| mix(h ^ p)))
}

/// Salt separating witness-search vectors from fault-site draws.
const WITNESS_SALT: u64 = 0x0057_4954_4E45_5353;

/// The seeded fault list: every fault kind on both architectures at each
/// k, with clean controls up to [`CLEAN_MAX_K`].
fn bug_hunt(seed: u64) -> Inputs {
    let mut texts = Vec::new();
    let mut moduli = Vec::new();
    let mut queries = Vec::new();
    for k in BUG_HUNT_KS {
        let (p, ctx) = field(k);
        moduli.push((k, p));
        let seed = if k <= FIXED_SITES_MAX_K {
            FIXED_SEED
        } else {
            seed
        };
        let mastrovito = mastrovito_multiplier(&ctx);
        let montgomery = montgomery_multiplier_hier(&ctx).flatten();
        texts.push(format::emit(&mastrovito));
        let spec = texts.len() - 1;
        if k <= CLEAN_MAX_K {
            texts.push(format::emit(&montgomery));
            queries.push(Query {
                label: format!("clean-montgomery-k{k}"),
                k,
                spec,
                impl_: Impl::Flat(texts.len() - 1),
                expect: Expect::Equivalent,
            });
        }
        for (ai, (arch, base)) in [("mastrovito", &mastrovito), ("montgomery", &montgomery)]
            .into_iter()
            .enumerate()
        {
            for (fi, kind) in ALL_FAULTS.into_iter().enumerate() {
                let mut rng = stream(seed, &[k as u64, ai as u64, fi as u64]);
                let mut witness_rng =
                    stream(seed ^ WITNESS_SALT, &[k as u64, ai as u64, fi as u64]);
                let picked = if kind.is_structural() {
                    (0..MAX_DRAWS).find_map(|_| {
                        let (nl, fault) = inject_structural(base, kind, &mut rng)?;
                        let expect = ground_truth(&mastrovito, &nl, &ctx, &mut witness_rng)?;
                        Some((nl, fault.to_string(), expect))
                    })
                } else {
                    // Rebuilt over the next irreducible polynomial; none
                    // exists at k = 2, and the fuzz crate covers k <= 62.
                    alternate_modulus(k).and_then(|alt| {
                        let actx = GfContext::new(alt.clone()).expect("irreducible modulus");
                        let nl = match arch {
                            "mastrovito" => mastrovito_multiplier(&actx),
                            _ => montgomery_multiplier_hier(&actx).flatten(),
                        };
                        let expect = ground_truth(&mastrovito, &nl, &ctx, &mut witness_rng)?;
                        Some((nl, format!("modulus {alt:?}"), expect))
                    })
                };
                let Some((nl, detail, expect)) = picked else {
                    assert!(
                        !kind.is_structural(),
                        "no {kind} fault on {arch} k={k} fires often enough in {MAX_DRAWS} draws"
                    );
                    continue;
                };
                texts.push(format::emit(&nl));
                queries.push(Query {
                    label: format!("{kind}-{arch}-k{k} ({detail})"),
                    k,
                    spec,
                    impl_: Impl::Flat(texts.len() - 1),
                    expect,
                });
            }
        }
    }
    Inputs {
        moduli,
        texts,
        hier: None,
        queries,
    }
}

/// The known answer for `spec` vs `impl_`, or `None` for a fault to
/// redraw: exhaustive enumeration up to [`EXHAUSTIVE_MAX_K`] (any answer
/// is kept), otherwise a witness search that keeps only faults firing on
/// at least [`MIN_FIRE_SIXTEENTHS`]/16 of its vectors.
fn ground_truth(spec: &Netlist, impl_: &Netlist, ctx: &GfContext, rng: &mut Rng) -> Option<Expect> {
    let k = ctx.k();
    let words = spec.input_words().len();
    let assignments: Vec<Vec<Gf>> = if k <= EXHAUSTIVE_MAX_K {
        let total = 1u64 << (k * words);
        let mask = (1u64 << k) - 1;
        (0..total)
            .map(|p| {
                (0..words)
                    .map(|w| ctx.from_u64((p >> (w * k)) & mask))
                    .collect()
            })
            .collect()
    } else {
        (0..WITNESS_VECTORS)
            .map(|_| (0..words).map(|_| ctx.random(rng)).collect())
            .collect()
    };
    let fired = differing(spec, impl_, &assignments);
    if k <= EXHAUSTIVE_MAX_K {
        Some(if fired == 0 {
            Expect::Equivalent
        } else {
            Expect::Inequivalent
        })
    } else {
        (fired * 16 >= assignments.len() * MIN_FIRE_SIXTEENTHS).then_some(Expect::Inequivalent)
    }
}

/// How many of `assignments` give different outputs on `a` and `b`,
/// simulated 64 at a time with the bit-parallel simulator.
fn differing(a: &Netlist, b: &Netlist, assignments: &[Vec<Gf>]) -> usize {
    let widths: Vec<usize> = a.input_words().iter().map(|w| w.width()).collect();
    let mut count = 0;
    for chunk in assignments.chunks(64) {
        let mut wide = Vec::new();
        for (w, &width) in widths.iter().enumerate() {
            for bit in 0..width {
                let mut lanes = 0u64;
                for (lane, words) in chunk.iter().enumerate() {
                    lanes |= u64::from(words[w].bit(bit)) << lane;
                }
                wide.push(lanes);
            }
        }
        let (av, bv) = (simulate_wide(a, &wide), simulate_wide(b, &wide));
        let mut diff = 0u64;
        for (na, nb) in a.output_word().bits.iter().zip(&b.output_word().bits) {
            diff |= av[na.index()] ^ bv[nb.index()];
        }
        if chunk.len() < 64 {
            diff &= (1u64 << chunk.len()) - 1;
        }
        count += diff.count_ones() as usize;
    }
    count
}

/// What the program consumes, built from [`Inputs`] by the timed set-up.
pub struct Setup {
    pub ctxs: Vec<(usize, Arc<GfContext>)>,
    /// One per text; a hierarchical block's entry is left empty, its
    /// netlist having moved into `hier`.
    pub netlists: Vec<Netlist>,
    pub hier: Option<HierDesign>,
}

/// Where one set-up spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `GfContext::shared`, summed over field sizes.
    pub context: Duration,
    /// `gfab_netlist::format::parse`, summed over texts.
    pub parse: Duration,
    /// The whole set-up, assembly included.
    pub total: Duration,
}

impl Setup {
    /// Builds field contexts, parses every text and assembles the
    /// hierarchical design from its parsed blocks — what a command-line
    /// user pays before any algebra.
    ///
    /// # Panics
    ///
    /// Panics if a generated text fails to parse (a benchmark bug).
    pub fn build(inputs: &Inputs) -> (Setup, SetupTimes) {
        let start = Instant::now();
        let mut times = SetupTimes::default();
        let ctxs = inputs
            .moduli
            .iter()
            .map(|(k, p)| {
                let t = Instant::now();
                let ctx = GfContext::shared(p.clone()).expect("irreducible modulus");
                times.context += t.elapsed();
                (*k, ctx)
            })
            .collect();
        let mut netlists = inputs
            .texts
            .iter()
            .map(|text| {
                let t = Instant::now();
                let nl = format::parse(text).expect("generated netlist text parses");
                times.parse += t.elapsed();
                nl
            })
            .collect::<Vec<_>>();
        let hier = inputs.hier.as_ref().map(|h| HierDesign {
            name: h.name.clone(),
            inputs: h.inputs.clone(),
            blocks: h
                .blocks
                .iter()
                .map(|(name, text, connections)| BlockInst {
                    name: name.clone(),
                    // Moved, not cloned: no query reads a block on its own.
                    netlist: std::mem::replace(&mut netlists[*text], Netlist::new("moved")),
                    connections: connections.clone(),
                })
                .collect(),
            output: h.output,
            output_name: h.output_name.clone(),
        });
        times.total = start.elapsed();
        (
            Setup {
                ctxs,
                netlists,
                hier,
            },
            times,
        )
    }

    /// The field context of size `k`.
    ///
    /// # Panics
    ///
    /// Panics if no query of the workload uses `k`.
    pub fn ctx(&self, k: usize) -> &Arc<GfContext> {
        &self
            .ctxs
            .iter()
            .find(|(kk, _)| *kk == k)
            .expect("context for every k in use")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_yields_an_identical_query_list() {
        let a = generate("bug-hunt", 7).unwrap();
        let b = generate("bug-hunt", 7).unwrap();
        assert_eq!(a, b);
        let c = generate("bug-hunt", 8).unwrap();
        assert_eq!(
            a.queries.len(),
            c.queries.len(),
            "the list's shape is fixed"
        );
        let differs = |pred: &dyn Fn(usize) -> bool| {
            a.queries
                .iter()
                .zip(&c.queries)
                .filter(|(qa, _)| pred(qa.k))
                .any(|(qa, qc)| qa.label != qc.label)
        };
        assert!(
            differs(&|k| k > FIXED_SITES_MAX_K),
            "the seed moves large-k fault sites"
        );
        assert!(
            !differs(&|k| k <= FIXED_SITES_MAX_K),
            "small-k sites are fixed"
        );
    }

    #[test]
    fn seed_only_changes_bug_hunt() {
        assert_eq!(equiv_flat(8), equiv_flat(8));
        assert_eq!(generate("equiv-flat", 1), generate("equiv-flat", 2));
        assert!(generate("nope", 1).is_err());
    }

    #[test]
    fn bug_hunt_ground_truth_matches_exhaustive_reference() {
        // Every small-k answer must agree with gfab's own exhaustive check
        // of the faulty impl against field multiplication.
        let inputs = generate("bug-hunt", 3).unwrap();
        let (setup, _) = Setup::build(&inputs);
        for q in inputs.queries.iter().filter(|q| q.k <= 3) {
            let Impl::Flat(i) = q.impl_ else {
                unreachable!()
            };
            let ctx = setup.ctx(q.k);
            let same = gfab::netlist::sim::exhaustive_check(&setup.netlists[i], ctx, |w| {
                ctx.mul(&w[0], &w[1])
            })
            .is_ok();
            assert_eq!(same, q.expect == Expect::Equivalent, "{}", q.label);
        }
    }
}
