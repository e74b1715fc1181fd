//! Prover soundness fuzzing: generate random well-formed kernels and
//! random properties, run the pushbutton prover, and cross-examine every
//! **proved** claim with two independent semantics:
//!
//! * the bounded concrete falsifier must find no counterexample;
//! * random executions of the real interpreter must satisfy the property
//!   (and stay inside `BehAbs`).
//!
//! A single disagreement would demonstrate an unsoundness in the proof
//! search, the certificate checker, the symbolic evaluator or the solver —
//! this is the reproduction's analog of pitting Reflex's Ltac automation
//! against Coq's kernel.

use proptest::prelude::*;
use reflex::ast::build::{CmdBuilder, ProgramBuilder};
use reflex::ast::{
    ActionPat, CompPat, Expr, PatField, Program, PropertyDecl, TracePropKind, Ty, Value,
};
use reflex::runtime::{Interpreter, RandomWorld, Registry};
use reflex::trace::{check_trace, Msg};
use reflex::verify::{check_certificate, falsify, prove, FalsifyOptions, ProverOptions};

// ---- random program generation -------------------------------------------

/// A tiny deterministic PRNG so generation is reproducible from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn flip(&mut self) -> bool {
        self.next().is_multiple_of(2)
    }
}

const STRINGS: [&str; 3] = ["a", "b", "c"];
const MSGS: [(&str, &[Ty]); 3] = [("M1", &[Ty::Str]), ("M2", &[Ty::Str, Ty::Num]), ("M3", &[])];

/// A random data expression of the given type over the fixed scope
/// (state vars `sv`/`nv`/`bv`, handler params `p0…`).
fn gen_expr(r: &mut Rng, ty: Ty, params: &[(String, Ty)]) -> Expr {
    let vars: Vec<&str> = match ty {
        Ty::Str => vec!["sv"],
        Ty::Num => vec!["nv"],
        Ty::Bool => vec!["bv"],
        _ => vec![],
    };
    let param: Vec<&str> = params
        .iter()
        .filter(|(_, t)| *t == ty)
        .map(|(n, _)| n.as_str())
        .collect();
    match r.below(4) {
        0 if !param.is_empty() => Expr::var(param[r.below(param.len() as u64) as usize]),
        1 if !vars.is_empty() => Expr::var(vars[r.below(vars.len() as u64) as usize]),
        2 if ty == Ty::Num => Expr::var("nv").add(Expr::lit((r.below(3)) as i64)),
        _ => match ty {
            Ty::Str => Expr::lit(STRINGS[r.below(3) as usize]),
            Ty::Num => Expr::lit((r.below(3)) as i64),
            Ty::Bool => Expr::lit(r.flip()),
            _ => unreachable!("data types only"),
        },
    }
}

fn gen_cond(r: &mut Rng, params: &[(String, Ty)]) -> Expr {
    match r.below(4) {
        0 => Expr::var("bv"),
        1 => gen_expr(r, Ty::Str, params).eq(gen_expr(r, Ty::Str, params)),
        2 => gen_expr(r, Ty::Num, params).lt(Expr::lit((1 + r.below(3)) as i64)),
        _ => gen_expr(r, Ty::Num, params).eq(gen_expr(r, Ty::Num, params)),
    }
}

/// Emits 1–3 random statements into `h`. Depth-bounds the nesting.
fn gen_body(r: &mut Rng, h: &mut CmdBuilder, params: &[(String, Ty)], depth: usize) {
    let n = 1 + r.below(3);
    for i in 0..n {
        match r.below(7) {
            0 => {
                h.assign("sv", gen_expr(r, Ty::Str, params));
            }
            1 => {
                h.assign("nv", gen_expr(r, Ty::Num, params));
            }
            2 => {
                h.assign("bv", gen_expr(r, Ty::Bool, params));
            }
            3 => {
                let (msg, sig) = MSGS[r.below(3) as usize];
                let target = if r.flip() { "a0" } else { "b0" };
                let args: Vec<Expr> = sig.iter().map(|t| gen_expr(r, *t, params)).collect();
                h.send(Expr::var(target), msg, args);
            }
            4 if depth > 0 => {
                let cond = gen_cond(r, params);
                let seed = r.next();
                h.if_else(
                    cond,
                    |t| gen_body(&mut Rng(seed | 1), t, params, depth - 1),
                    |e| gen_body(&mut Rng(seed.rotate_left(11) | 1), e, params, depth - 1),
                );
            }
            5 => {
                let binder = format!("sp{depth}_{i}");
                h.spawn(binder, "B", [gen_expr(r, Ty::Str, params)]);
            }
            6 if depth > 0 => {
                let binder = format!("lk{depth}_{i}");
                let pred = Expr::var(&binder)
                    .cfg("tag")
                    .eq(gen_expr(r, Ty::Str, params));
                let seed = r.next();
                h.lookup(
                    "B",
                    binder.clone(),
                    pred,
                    |f| gen_body(&mut Rng(seed | 1), f, params, depth - 1),
                    |_| {},
                );
            }
            _ => {
                h.assign("nv", Expr::var("nv").add(Expr::lit(1i64)));
            }
        }
    }
}

fn gen_pat_field(r: &mut Rng, ty: Ty, allowed_vars: &[(&str, Ty)]) -> PatField {
    let candidates: Vec<&str> = allowed_vars
        .iter()
        .filter(|(_, t)| *t == ty)
        .map(|(n, _)| *n)
        .collect();
    match r.below(3) {
        0 if !candidates.is_empty() => {
            PatField::var(candidates[r.below(candidates.len() as u64) as usize])
        }
        1 => PatField::Any,
        _ => match ty {
            Ty::Str => PatField::lit(STRINGS[r.below(3) as usize]),
            Ty::Num => PatField::lit((r.below(3)) as i64),
            _ => PatField::Any,
        },
    }
}

/// Generates an action pattern; `allowed_vars` restricts which property
/// variables may appear (used to respect the obligation-variable rule).
fn gen_pattern(r: &mut Rng, allowed_vars: &[(&str, Ty)]) -> ActionPat {
    let comp = match r.below(3) {
        0 => CompPat::of_type("A"),
        1 => CompPat::of_type("B"),
        _ => CompPat::with_config("B", [gen_pat_field(r, Ty::Str, allowed_vars)]),
    };
    match r.below(4) {
        0 => ActionPat::Spawn {
            comp: CompPat::with_config("B", [gen_pat_field(r, Ty::Str, allowed_vars)]),
        },
        1 => {
            let (msg, sig) = MSGS[r.below(3) as usize];
            ActionPat::Recv {
                comp,
                msg: msg.into(),
                args: sig
                    .iter()
                    .map(|t| gen_pat_field(r, *t, allowed_vars))
                    .collect(),
            }
        }
        _ => {
            let (msg, sig) = MSGS[r.below(3) as usize];
            ActionPat::Send {
                comp,
                msg: msg.into(),
                args: sig
                    .iter()
                    .map(|t| gen_pat_field(r, *t, allowed_vars))
                    .collect(),
            }
        }
    }
}

fn gen_program(seed: u64) -> Program {
    let mut r = Rng(seed | 1);
    let mut b = ProgramBuilder::new("fuzzed")
        .component("A", "a.py", [])
        .component("B", "b.py", [("tag", Ty::Str)])
        .message("M1", [Ty::Str])
        .message("M2", [Ty::Str, Ty::Num])
        .message("M3", [])
        .state("sv", Ty::Str, Expr::lit("a"))
        .state("nv", Ty::Num, Expr::lit(0i64))
        .state("bv", Ty::Bool, Expr::lit(false))
        .init_spawn("a0", "A", [])
        .init_spawn("b0", "B", [Expr::lit("a")]);

    // 1–4 random handlers over distinct (ctype, msg) pairs.
    let mut pairs: Vec<(&str, &str, &[Ty])> = vec![
        ("A", "M1", &[Ty::Str]),
        ("A", "M2", &[Ty::Str, Ty::Num]),
        ("B", "M1", &[Ty::Str]),
        ("B", "M3", &[]),
    ];
    let n_handlers = 1 + r.below(4) as usize;
    for k in 0..n_handlers {
        let idx = r.below(pairs.len() as u64) as usize;
        let (ctype, msg, sig) = pairs.remove(idx);
        let params: Vec<(String, Ty)> = sig
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("p{k}_{i}"), *t))
            .collect();
        let param_names: Vec<String> = params.iter().map(|(n, _)| n.clone()).collect();
        let seed2 = r.next();
        let params2 = params.clone();
        b = b.handler_owned(ctype, msg, param_names, move |h| {
            gen_body(&mut Rng(seed2 | 1), h, &params2, 2);
        });
    }

    // 1–3 random properties, respecting the obligation-variable rule.
    let var_pool: [(&str, Ty); 2] = [("x", Ty::Str), ("y", Ty::Num)];
    let n_props = 1 + r.below(3) as usize;
    for k in 0..n_props {
        let kind = [
            TracePropKind::Enables,
            TracePropKind::Disables,
            TracePropKind::Ensures,
            TracePropKind::ImmBefore,
            TracePropKind::ImmAfter,
        ][r.below(5) as usize];
        // Trigger first (may use any vars), then the obligation limited to
        // the trigger's vars (except for Disables, which is unrestricted).
        let trigger = gen_pattern(&mut r, &var_pool);
        let trigger_vars: Vec<(&str, Ty)> = var_pool
            .iter()
            .filter(|(n, _)| trigger.vars().iter().any(|v| v == n))
            .copied()
            .collect();
        let obligation = if kind == TracePropKind::Disables {
            gen_pattern(&mut r, &var_pool)
        } else {
            gen_pattern(&mut r, &trigger_vars)
        };
        let (a, b_pat) = if kind.trigger_is_b() {
            (obligation, trigger)
        } else {
            (trigger, obligation)
        };
        let mut used: Vec<(&str, Ty)> = Vec::new();
        for v in a.vars().into_iter().chain(b_pat.vars()) {
            if let Some(entry) = var_pool.iter().find(|(n, _)| *n == v) {
                if !used.contains(entry) {
                    used.push(*entry);
                }
            }
        }
        b = b.property(PropertyDecl::trace(format!("P{k}"), used, kind, a, b_pat));
    }
    b.finish()
}

// ---- the fuzz loop --------------------------------------------------------

fn fuzz_one(seed: u64) -> Result<(), String> {
    let program = gen_program(seed);
    // Free parser coverage: every generated program must round-trip
    // through the pretty-printer.
    let printed = program.to_string();
    let reparsed = reflex::parser::parse_program(&program.name, &printed).map_err(|e| {
        format!(
            "seed {seed}: reparse failed: {e}
{printed}"
        )
    })?;
    if reparsed != program {
        return Err(format!(
            "seed {seed}: print→parse is not the identity
{printed}"
        ));
    }
    // Some generated programs are ill-formed (e.g. a binder name collides);
    // those are simply skipped — the fuzz targets the prover, not typeck.
    let Ok(checked) = reflex::typeck::check(&program) else {
        return Ok(());
    };
    let options = ProverOptions::default();
    for prop in &program.properties {
        let outcome = prove(&checked, &prop.name, &options).map_err(|e| e.to_string())?;
        let Some(cert) = outcome.certificate() else {
            continue; // failure to prove is always acceptable
        };
        // (1) The certificate must validate.
        check_certificate(&checked, cert, &options).map_err(|e| {
            format!(
                "seed {seed}, {}: certificate rejected: {e}\nprogram:\n{program}",
                prop.name
            )
        })?;
        // (2) No bounded concrete counterexample.
        if let Some(cx) = falsify(
            &checked,
            &prop.name,
            &FalsifyOptions {
                max_exchanges: 3,
                max_states: 3_000,
                domain_per_type: 2,
            },
        ) {
            return Err(format!(
                "seed {seed}: {} PROVED but falsified:\n{cx}\nprogram:\n{program}",
                prop.name
            ));
        }
    }
    // (3) Random runs satisfy every proved property.
    let proved: Vec<_> = program
        .properties
        .iter()
        .filter(|p| {
            prove(&checked, &p.name, &options)
                .map(|o| o.is_proved())
                .unwrap_or(false)
        })
        .cloned()
        .collect();
    let mut kernel = Interpreter::new(
        &checked,
        Registry::new(),
        Box::new(RandomWorld::new(seed)),
        seed,
    )
    .map_err(|e| e.to_string())?;
    let mut r = Rng(seed.rotate_left(7) | 1);
    for _ in 0..8 {
        let comps = kernel.components().to_vec();
        let comp = &comps[r.below(comps.len() as u64) as usize];
        let (msg, sig) = MSGS[r.below(3) as usize];
        let args: Vec<Value> = sig
            .iter()
            .map(|t| match t {
                Ty::Str => Value::from(STRINGS[r.below(3) as usize]),
                Ty::Num => Value::Num(r.below(3) as i64),
                _ => unreachable!("message payloads are str/num here"),
            })
            .collect();
        kernel
            .inject(comp.id, Msg::new(msg, args))
            .map_err(|e| e.to_string())?;
        kernel.step().map_err(|e| e.to_string())?;
    }
    kernel.run(64).map_err(|e| e.to_string())?;
    reflex::runtime::oracle::check_trace_inclusion(&checked, kernel.trace())
        .map_err(|e| format!("seed {seed}: {e}\nprogram:\n{program}"))?;
    for p in &proved {
        if let reflex::ast::PropBody::Trace(tp) = &p.body {
            check_trace(kernel.trace(), tp).map_err(|e| {
                format!(
                    "seed {seed}: proved {} violated at runtime: {e}\ntrace:\n{}\nprogram:\n{program}",
                    p.name,
                    kernel.trace()
                )
            })?;
        }
    }
    Ok(())
}

/// Shared-cache and pool-width agreement on one random program: the
/// cross-property cache must never flip an outcome, and the engine on a
/// 3-worker obligation pool must reproduce the serial run exactly.
fn agreement_one(seed: u64) -> Result<(), String> {
    use reflex::verify::prove_all;
    let program = gen_program(seed);
    let Ok(checked) = reflex::typeck::check(&program) else {
        return Ok(()); // generator occasionally types badly; skip
    };
    let cache_on = ProverOptions::default();
    let cache_off = ProverOptions {
        shared_cache: false,
        ..ProverOptions::default()
    };
    let serial = prove_all(&checked, &cache_on);
    let parallel = prove_all(
        &checked,
        &ProverOptions {
            jobs: 3,
            ..ProverOptions::default()
        },
    );
    let uncached = prove_all(&checked, &cache_off);
    for (((name, a), (_, b)), (_, c)) in serial.iter().zip(&parallel).zip(&uncached) {
        // Parallel vs serial: identical outcomes, certificates included.
        match (a.certificate(), b.certificate()) {
            (Some(ca), Some(cb)) if ca == cb => {}
            (None, None) if a.failure() == b.failure() => {}
            _ => {
                return Err(format!(
                    "seed {seed}: parallel prover diverged on {name}\nprogram:\n{program}"
                ))
            }
        }
        // Cache on vs off: same proved set (certificate shapes may differ).
        if a.is_proved() != c.is_proved() {
            return Err(format!(
                "seed {seed}: shared cache changed the outcome of {name}\nprogram:\n{program}"
            ));
        }
        if let Some(cert) = a.certificate() {
            check_certificate(&checked, cert, &cache_on)
                .map_err(|e| format!("seed {seed}: {name}: cert rejected: {e}"))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prover_is_sound_on_random_programs(seed in any::<u64>()) {
        fuzz_one(seed).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn shared_cache_and_parallelism_agree_on_random_programs(seed in any::<u64>()) {
        agreement_one(seed).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn fuzz_fixed_seeds() {
    // A deterministic sweep, independent of proptest's RNG, so CI always
    // covers the same ground.
    for seed in 0..64u64 {
        fuzz_one(seed).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
#[ignore]
fn fuzz_statistics() {
    let mut checked_ok = 0;
    let mut proved = 0;
    let mut failed = 0;
    let mut total_props = 0;
    for seed in 0..200u64 {
        let program = gen_program(seed);
        let Ok(checked) = reflex::typeck::check(&program) else {
            continue;
        };
        checked_ok += 1;
        let options = ProverOptions::default();
        for prop in &program.properties {
            total_props += 1;
            match prove(&checked, &prop.name, &options).unwrap().is_proved() {
                true => proved += 1,
                false => failed += 1,
            }
        }
    }
    println!("programs checked: {checked_ok}/200; properties: {total_props} ({proved} proved, {failed} unprovable)");
}
