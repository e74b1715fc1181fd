//! Differential testing of the symbolic evaluator against the concrete
//! interpreter: for a random (loop-free, call-free) handler and random
//! concrete inputs, exactly one symbolic path's condition is satisfied by
//! the inputs, and that path's emitted actions and post-state coincide
//! with what the interpreter actually did.
//!
//! This pins down the central soundness ingredient of the whole system:
//! the symbolic `Exchange` relation really over-approximates (here:
//! exactly predicts) the concrete one.

use proptest::prelude::*;
use reflex::ast::build::{CmdBuilder, ProgramBuilder};
use reflex::ast::{Expr, Program, Ty, Value};
use reflex::runtime::{EmptyWorld, Interpreter, Registry};
use reflex::symbolic::{SymAction, SymKind, Term};
use reflex::trace::{Action, Msg};
use reflex::verify::{Abstraction, ProverOptions};

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
}

const STRINGS: [&str; 3] = ["a", "b", "c"];

fn gen_expr(r: &mut Rng, ty: Ty) -> Expr {
    match (ty, r.below(5)) {
        (Ty::Str, 0) => Expr::var("p0"),
        (Ty::Str, 1) => Expr::var("sv"),
        (Ty::Str, 2) => Expr::var("sv").cat(Expr::var("p0")),
        (Ty::Str, _) => Expr::lit(STRINGS[r.below(3) as usize]),
        (Ty::Num, 0) => Expr::var("p1"),
        (Ty::Num, 1) => Expr::var("nv"),
        (Ty::Num, 2) => Expr::var("nv").add(Expr::var("p1")),
        (Ty::Num, 3) => Expr::var("nv").sub(Expr::lit(r.below(3) as i64)),
        (Ty::Num, _) => Expr::lit(r.below(4) as i64),
        (Ty::Bool, 0) => Expr::var("bv"),
        (Ty::Bool, 1) => gen_expr(r, Ty::Str).eq(gen_expr(r, Ty::Str)),
        (Ty::Bool, 2) => gen_expr(r, Ty::Num).lt(gen_expr(r, Ty::Num)),
        (Ty::Bool, 3) => gen_expr(r, Ty::Num).le(gen_expr(r, Ty::Num)),
        (Ty::Bool, _) => gen_expr(r, Ty::Bool).not(),
        _ => unreachable!("data types only"),
    }
}

fn gen_body(r: &mut Rng, h: &mut CmdBuilder, depth: usize) {
    for i in 0..1 + r.below(3) {
        match r.below(6) {
            0 => {
                h.assign("sv", gen_expr(r, Ty::Str));
            }
            1 => {
                h.assign("nv", gen_expr(r, Ty::Num));
            }
            2 => {
                h.assign("bv", gen_expr(r, Ty::Bool));
            }
            3 => {
                h.send(
                    Expr::var("sink"),
                    "Out",
                    [gen_expr(r, Ty::Str), gen_expr(r, Ty::Num)],
                );
            }
            4 if depth > 0 => {
                let cond = gen_expr(r, Ty::Bool);
                let seed = r.next();
                h.if_else(
                    cond,
                    |t| gen_body(&mut Rng(seed | 1), t, depth - 1),
                    |e| gen_body(&mut Rng(seed.rotate_left(17) | 1), e, depth - 1),
                );
            }
            _ => {
                h.spawn(format!("w{depth}_{i}"), "Sink", [gen_expr(r, Ty::Str)]);
            }
        }
    }
}

fn gen_program(seed: u64) -> Program {
    let _r = Rng(seed | 1);
    ProgramBuilder::new("diff")
        .component("Drv", "drv.py", [])
        .component("Sink", "sink.py", [("tag", Ty::Str)])
        .message("In", [Ty::Str, Ty::Num])
        .message("Out", [Ty::Str, Ty::Num])
        .state("sv", Ty::Str, Expr::lit("a"))
        .state("nv", Ty::Num, Expr::lit(0i64))
        .state("bv", Ty::Bool, Expr::lit(false))
        .init_spawn("drv", "Drv", [])
        .init_spawn("sink", "Sink", [Expr::lit("s0")])
        .handler("Drv", "In", ["p0", "p1"], |h| {
            gen_body(&mut Rng(seed.rotate_left(5) | 1), h, 2);
        })
        .finish()
}

/// Substitutes the concrete exchange inputs into a symbolic term.
fn ground(
    t: &Term,
    pre: &reflex::symbolic::SymState,
    pre_values: &std::collections::BTreeMap<String, Value>,
    payload: &[Value],
) -> Term {
    t.rewrite_leaves(&|leaf| {
        let Term::Sym(sv) = leaf else { return None };
        match &sv.kind {
            SymKind::StateVar(name) => {
                // Match by identity with this world's pre-state symbols.
                match pre.data.get(name) {
                    Some(Term::Sym(s)) if s == sv => Some(Term::Lit(pre_values[name].clone())),
                    _ => None,
                }
            }
            SymKind::Param(name) => {
                let idx = match name.as_str() {
                    "p0" => 0,
                    "p1" => 1,
                    _ => return None,
                };
                Some(Term::Lit(payload[idx].clone()))
            }
            _ => None,
        }
    })
}

fn run_case(seed: u64, s_arg: &str, n_arg: i64, pre_rounds: usize) -> Result<(), String> {
    let program = gen_program(seed);
    let Ok(checked) = reflex::typeck::check(&program) else {
        return Ok(()); // name collision in generated binders: skip
    };
    let options = ProverOptions::default();
    let abs = Abstraction::build(&checked, &options);
    let world = &abs.worlds()[0];

    // Drive the interpreter into a random pre-state first, then perform
    // the exchange under test.
    let mut kernel = Interpreter::new(&checked, Registry::new(), Box::new(EmptyWorld), seed)
        .map_err(|e| e.to_string())?;
    let drv = kernel.components_of("Drv")[0].id;
    let mut r = Rng(seed.rotate_left(23) | 1);
    for _ in 0..pre_rounds {
        let s = STRINGS[r.below(3) as usize];
        let n = r.below(4) as i64;
        kernel
            .inject(drv, Msg::new("In", [Value::from(s), Value::Num(n)]))
            .map_err(|e| e.to_string())?;
        kernel.run(4).map_err(|e| e.to_string())?;
    }
    let pre_values: std::collections::BTreeMap<String, Value> = ["sv", "nv", "bv"]
        .iter()
        .map(|v| {
            (
                (*v).to_owned(),
                kernel.state_var(v).expect("present").clone(),
            )
        })
        .collect();
    let trace_before = kernel.trace().len();
    let payload = vec![Value::from(s_arg), Value::Num(n_arg)];
    kernel
        .inject(drv, Msg::new("In", payload.clone()))
        .map_err(|e| e.to_string())?;
    kernel.step().map_err(|e| e.to_string())?;
    let concrete_actions: Vec<Action> = kernel.trace().actions()[trace_before + 2..].to_vec();

    // Find the symbolic paths whose condition the concrete inputs satisfy.
    let exchange = abs.worlds()[0]
        .exchanges
        .iter()
        .find(|e| e.ctype == "Drv" && e.msg == "In")
        .expect("case exists");
    let mut matching = Vec::new();
    for path in &exchange.paths {
        let all_true = path.condition.iter().all(|(t, pol)| {
            // Ground conditions must fold to literals.
            match ground(t, &world.pre, &pre_values, &payload) {
                Term::Lit(Value::Bool(b)) => b == *pol,
                other => panic!("condition did not ground: {other}"),
            }
        });
        if all_true {
            matching.push(path);
        }
    }
    if matching.len() != 1 {
        return Err(format!(
            "seed {seed}: expected exactly 1 satisfied path, got {}\nprogram:\n{program}",
            matching.len()
        ));
    }
    let path = matching[0];

    // The path's emitted actions must coincide with the concrete ones
    // (modulo fresh component identities).
    if path.actions.len() != concrete_actions.len() {
        return Err(format!(
            "seed {seed}: action count mismatch: symbolic {} vs concrete {}\nprogram:\n{program}",
            path.actions.len(),
            concrete_actions.len()
        ));
    }
    for (sym, conc) in path.actions.iter().zip(&concrete_actions) {
        let ok = match (sym, conc) {
            (SymAction::Send { comp, msg, args }, Action::Send { comp: cc, msg: cm }) => {
                comp.ctype == cc.ctype
                    && *msg == cm.name
                    && args.len() == cm.args.len()
                    && args.iter().zip(&cm.args).all(|(t, v)| {
                        ground(t, &world.pre, &pre_values, &payload) == Term::Lit(v.clone())
                    })
            }
            (SymAction::Spawn { comp }, Action::Spawn { comp: cc }) => {
                comp.ctype == cc.ctype
                    && comp.config.len() == cc.config.len()
                    && comp.config.iter().zip(&cc.config).all(|(t, v)| {
                        ground(t, &world.pre, &pre_values, &payload) == Term::Lit(v.clone())
                    })
            }
            _ => false,
        };
        if !ok {
            return Err(format!(
                "seed {seed}: action mismatch: symbolic {sym} vs concrete {conc}\nprogram:\n{program}"
            ));
        }
    }

    // The path's post-state must equal the interpreter's.
    for v in ["sv", "nv", "bv"] {
        let sym_post = ground(
            path.state.data.get(v).expect("present"),
            &world.pre,
            &pre_values,
            &payload,
        );
        let conc_post = kernel.state_var(v).expect("present").clone();
        if sym_post != Term::Lit(conc_post.clone()) {
            return Err(format!(
                "seed {seed}: post-state mismatch on {v}: symbolic {sym_post} vs concrete {conc_post}\nprogram:\n{program}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn symbolic_paths_predict_concrete_execution(
        seed in any::<u64>(),
        s_idx in 0usize..3,
        n_arg in -2i64..5,
        pre_rounds in 0usize..4,
    ) {
        run_case(seed, STRINGS[s_idx], n_arg, pre_rounds)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn fixed_seed_sweep() {
    for seed in 0..48u64 {
        run_case(seed, "b", 1, 2).unwrap_or_else(|e| panic!("{e}"));
    }
}
