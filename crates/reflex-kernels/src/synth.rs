//! Deterministic synthetic kernel generator for prover scaling work.
//!
//! The seven Figure-6 kernels prove in milliseconds, so nothing in the
//! repo stresses the prover. This module emits parameterized `.rx`
//! kernels — N ring-connected components, M handlers each, K trace/NI
//! properties over a seeded topology — scaling to hundreds of components
//! and thousands of properties while staying *provable by construction*:
//! every property is instantiated from a template whose handler shape
//! guarantees it (a message with a unique send site yields `Enables`, an
//! unconditional first-command send yields `ImmAfter`/`ImmBefore`, a
//! one-shot latch yields `Disables`, a bounded counter yields the
//! ssh-style attempt ladder, and high components that only write high
//! state satisfy `NIlo`/`NIhi`).
//!
//! Generation is a pure function of [`SynthConfig`] (including the seed):
//! the same config always produces byte-identical source, which is what
//! lets `rx gen`, perfbench's cold runs, the determinism CI job and the
//! chaos harness all agree on the workload without committing generated files.

use std::fmt::Write as _;

use reflex_rng::SimRng;

/// Parameters of one synthetic kernel. Generation is deterministic in
/// this whole struct; the seed controls topology and template choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthConfig {
    /// Low (ring) components; each forwards to its ring successor.
    pub components: usize,
    /// Handler slots per ring component.
    pub handlers: usize,
    /// Maximum number of properties to emit (capped by the template
    /// pool; the generated kernel records how many were actually taken).
    pub properties: usize,
    /// High components for non-interference properties (may be 0).
    pub high_components: usize,
    /// Topology / template seed.
    pub seed: u64,
}

impl SynthConfig {
    /// Named presets used by `rx gen`, perfbench and CI.
    pub fn preset(name: &str, seed: u64) -> Option<SynthConfig> {
        let cfg = match name {
            "small" => SynthConfig {
                components: 6,
                handlers: 2,
                properties: 24,
                high_components: 1,
                seed,
            },
            "medium" => SynthConfig {
                components: 16,
                handlers: 3,
                properties: 120,
                high_components: 2,
                seed,
            },
            "large" => SynthConfig {
                components: 36,
                handlers: 4,
                properties: 480,
                high_components: 3,
                seed,
            },
            _ => return None,
        };
        Some(cfg)
    }
}

/// A generated kernel: its name, concrete `.rx` source and the config
/// that produced it.
#[derive(Debug, Clone)]
pub struct SynthKernel {
    /// Stable name, e.g. `synth-s7-n16m3`.
    pub name: String,
    /// Concrete `.rx` source text.
    pub source: String,
    /// The generating configuration.
    pub config: SynthConfig,
    /// Number of properties actually emitted (≤ `config.properties`).
    pub properties: usize,
}

impl SynthKernel {
    /// Parses the generated kernel.
    pub fn program(&self) -> reflex_ast::Program {
        reflex_parser::parse_program(&self.name, &self.source).expect("generated kernel parses")
    }

    /// Parses and type-checks the generated kernel.
    pub fn checked(&self) -> reflex_typeck::CheckedProgram {
        reflex_typeck::check(&self.program()).expect("generated kernel is well-formed")
    }
}

/// One handler template instantiated at ring slot `(comp, slot)`. Each
/// template knows the handlers, state and messages it needs and the
/// properties its shape makes provable.
enum Template {
    /// `when C:T(u) { send(next, F(u)); }` — unique send site, payload.
    ForwardStr,
    /// `when C:T() { send(next, F()); }` — unconditional, first command.
    ForwardUnit,
    /// `when C:T(u) { if (!once) { once = true; send(next, F(u)); } }`.
    Latch,
    /// ssh-style bounded attempt counter stamping the attempt number.
    Counter,
    /// ssh2-style pair: an `Ok(u)` handler latches the authorized user,
    /// a `Req(u)` handler forwards only for that user. Uses two slots.
    AuthPair,
}

/// Generates the kernel for `config`.
pub fn generate(config: &SynthConfig) -> SynthKernel {
    generate_variant(config, 0)
}

/// Generates the kernel for `config` with `variant` appended edits.
///
/// Variant 0 is the base kernel. Each successive variant appends one
/// deterministic, well-formed edit (two message types, an extra
/// unconditional forward handler and its `Ensures` property, listed after
/// the base properties) — the chaos harness uses this as a realistic
/// watch-session edit script over generated kernels. Variant `v` has the
/// base kernel's properties, in the same order, plus `v` more.
pub fn generate_variant(config: &SynthConfig, variant: u32) -> SynthKernel {
    let n = config.components.max(2);
    let m = config.handlers.max(1);
    let h = config.high_components;
    // `synth_compat` reproduces the generator this module used to carry
    // (state pre-advanced past the all-zeros fixpoint), so every recorded
    // seed keeps producing byte-identical kernels.
    let mut rng = SimRng::synth_compat(config.seed);

    let mut messages = String::new();
    let mut state = String::new();
    let mut handlers = String::new();
    let mut props: Vec<String> = Vec::new();

    for i in 0..n {
        let next = (i + 1) % n;
        writeln!(state, "  tick_{i}: num = 0;").unwrap();
        let mut slot = 0;
        while slot < m {
            let pick = match rng.below(5) {
                0 => Template::ForwardStr,
                1 => Template::ForwardUnit,
                2 => Template::Latch,
                3 => Template::Counter,
                _ => Template::AuthPair,
            };
            // AuthPair needs two slots; fall back when only one is left.
            let pick = match pick {
                Template::AuthPair if slot + 1 >= m => Template::ForwardStr,
                other => other,
            };
            emit_template(
                &pick,
                i,
                slot,
                next,
                &mut messages,
                &mut state,
                &mut handlers,
                &mut props,
            );
            slot += match pick {
                Template::AuthPair => 2,
                _ => 1,
            };
        }
    }

    // High components: handlers only write high state, so NIlo holds for
    // every low exchange and NIhi for the high ones.
    let mut high_vars: Vec<String> = Vec::new();
    for k in 0..h {
        writeln!(messages, "  HSet{k}(str);").unwrap();
        writeln!(state, "  hv_{k}: str = \"\";").unwrap();
        writeln!(handlers, "  when H{k}:HSet{k}(u) {{").unwrap();
        writeln!(handlers, "    hv_{k} = u;").unwrap();
        writeln!(handlers, "  }}").unwrap();
        high_vars.push(format!("hv_{k}"));
    }
    if h > 0 {
        let comps: Vec<String> = (0..h).map(|k| format!("H{k}")).collect();
        props.push(format!(
            "  HighIsolated: noninterference {{\n    high components: {};\n    high vars: {};\n  }}",
            comps.join(", "),
            high_vars.join(", "),
        ));
    }

    // Deterministically shuffle the candidate pool, then take K. The
    // shuffle spreads property kinds across the prefix so small K still
    // exercises every template.
    let keep = config.properties.min(props.len());
    shuffle(&mut props, &mut rng);
    props.truncate(keep);

    // Appended variant edits (chaos watch-session script), after the
    // base pool is drawn: every variant keeps the base properties in
    // their order and adds its own at the end.
    for v in 0..variant {
        writeln!(messages, "  EditIn{v}();").unwrap();
        writeln!(messages, "  EditOut{v}();").unwrap();
        writeln!(handlers, "  when C0:EditIn{v}() {{").unwrap();
        writeln!(handlers, "    send(K1, EditOut{v}());").unwrap();
        writeln!(handlers, "  }}").unwrap();
        props.push(format!(
            "  EditEnsures{v}:\n    [Recv(C0(), EditIn{v}())] Ensures [Send(C1(), EditOut{v}())];"
        ));
    }

    let mut src = String::new();
    src.push_str("components {\n");
    for i in 0..n {
        writeln!(src, "  C{i} \"c{i}.c\" ();").unwrap();
    }
    for k in 0..h {
        writeln!(src, "  H{k} \"h{k}.c\" ();").unwrap();
    }
    src.push_str("}\n\nmessages {\n");
    src.push_str(&messages);
    src.push_str("}\n\nstate {\n");
    src.push_str(&state);
    src.push_str("}\n\ninit {\n");
    for i in 0..n {
        writeln!(src, "  K{i} <- spawn C{i}();").unwrap();
    }
    for k in 0..h {
        writeln!(src, "  KH{k} <- spawn H{k}();").unwrap();
    }
    src.push_str("}\n\nhandlers {\n");
    src.push_str(&handlers);
    src.push_str("}\n\nproperties {\n");
    for p in &props {
        src.push_str(p);
        src.push('\n');
    }
    src.push_str("}\n");

    SynthKernel {
        name: format!("synth-s{}-n{n}m{m}", config.seed),
        source: src,
        config: *config,
        properties: props.len(),
    }
}

/// Fisher–Yates with the generator's own rng.
fn shuffle(v: &mut [String], rng: &mut SimRng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i + 1);
        v.swap(i, j);
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_template(
    t: &Template,
    i: usize,
    slot: usize,
    next: usize,
    messages: &mut String,
    state: &mut String,
    handlers: &mut String,
    props: &mut Vec<String>,
) {
    match t {
        Template::ForwardStr => {
            writeln!(messages, "  T{i}x{slot}(str);").unwrap();
            writeln!(messages, "  F{i}x{slot}(str);").unwrap();
            writeln!(handlers, "  when C{i}:T{i}x{slot}(u) {{").unwrap();
            writeln!(handlers, "    send(K{next}, F{i}x{slot}(u));").unwrap();
            writeln!(handlers, "    tick_{i} = tick_{i} + 1;").unwrap();
            writeln!(handlers, "  }}").unwrap();
            props.push(format!(
                "  Fw{i}x{slot}Ensures: forall u: str.\n    [Recv(C{i}(), T{i}x{slot}(u))] Ensures [Send(C{next}(), F{i}x{slot}(u))];"
            ));
            props.push(format!(
                "  Fw{i}x{slot}Enables: forall u: str.\n    [Recv(C{i}(), T{i}x{slot}(u))] Enables [Send(C{next}(), F{i}x{slot}(u))];"
            ));
        }
        Template::ForwardUnit => {
            writeln!(messages, "  T{i}x{slot}();").unwrap();
            writeln!(messages, "  F{i}x{slot}();").unwrap();
            writeln!(handlers, "  when C{i}:T{i}x{slot}() {{").unwrap();
            writeln!(handlers, "    send(K{next}, F{i}x{slot}());").unwrap();
            writeln!(handlers, "  }}").unwrap();
            props.push(format!(
                "  Un{i}x{slot}ImmAfter:\n    [Recv(C{i}(), T{i}x{slot}())] ImmAfter [Send(C{next}(), F{i}x{slot}())];"
            ));
            props.push(format!(
                "  Un{i}x{slot}ImmBefore:\n    [Recv(C{i}(), T{i}x{slot}())] ImmBefore [Send(C{next}(), F{i}x{slot}())];"
            ));
            props.push(format!(
                "  Un{i}x{slot}Ensures:\n    [Recv(C{i}(), T{i}x{slot}())] Ensures [Send(C{next}(), F{i}x{slot}())];"
            ));
        }
        Template::Latch => {
            writeln!(messages, "  T{i}x{slot}(str);").unwrap();
            writeln!(messages, "  F{i}x{slot}(str);").unwrap();
            writeln!(state, "  once_{i}x{slot}: bool = false;").unwrap();
            writeln!(handlers, "  when C{i}:T{i}x{slot}(u) {{").unwrap();
            writeln!(handlers, "    if (!once_{i}x{slot}) {{").unwrap();
            writeln!(handlers, "      once_{i}x{slot} = true;").unwrap();
            writeln!(handlers, "      send(K{next}, F{i}x{slot}(u));").unwrap();
            writeln!(handlers, "    }}").unwrap();
            writeln!(handlers, "  }}").unwrap();
            props.push(format!(
                "  La{i}x{slot}Once:\n    [Send(C{next}(), F{i}x{slot}(_))] Disables [Send(C{next}(), F{i}x{slot}(_))];"
            ));
            props.push(format!(
                "  La{i}x{slot}Enables: forall u: str.\n    [Recv(C{i}(), T{i}x{slot}(u))] Enables [Send(C{next}(), F{i}x{slot}(u))];"
            ));
        }
        Template::Counter => {
            writeln!(messages, "  T{i}x{slot}(str);").unwrap();
            writeln!(messages, "  F{i}x{slot}(num, str);").unwrap();
            writeln!(state, "  cnt_{i}x{slot}: num = 0;").unwrap();
            writeln!(handlers, "  when C{i}:T{i}x{slot}(u) {{").unwrap();
            writeln!(handlers, "    if (cnt_{i}x{slot} < 3) {{").unwrap();
            writeln!(handlers, "      cnt_{i}x{slot} = cnt_{i}x{slot} + 1;").unwrap();
            writeln!(
                handlers,
                "      send(K{next}, F{i}x{slot}(cnt_{i}x{slot}, u));"
            )
            .unwrap();
            writeln!(handlers, "    }}").unwrap();
            writeln!(handlers, "  }}").unwrap();
            props.push(format!(
                "  Ct{i}x{slot}Ladder:\n    [Send(C{next}(), F{i}x{slot}(1, _))] Enables [Send(C{next}(), F{i}x{slot}(2, _))];"
            ));
            props.push(format!(
                "  Ct{i}x{slot}FirstOnce:\n    [Send(C{next}(), F{i}x{slot}(1, _))] Disables [Send(C{next}(), F{i}x{slot}(1, _))];"
            ));
            props.push(format!(
                "  Ct{i}x{slot}Exhaust:\n    [Send(C{next}(), F{i}x{slot}(3, _))] Disables [Send(C{next}(), F{i}x{slot}(_, _))];"
            ));
        }
        Template::AuthPair => {
            writeln!(messages, "  Ok{i}x{slot}(str);").unwrap();
            writeln!(messages, "  Rq{i}x{slot}(str);").unwrap();
            writeln!(messages, "  Gr{i}x{slot}(str);").unwrap();
            writeln!(state, "  auth_{i}x{slot}: str = \"\";").unwrap();
            writeln!(state, "  ok_{i}x{slot}: bool = false;").unwrap();
            writeln!(handlers, "  when C{i}:Ok{i}x{slot}(u) {{").unwrap();
            writeln!(handlers, "    auth_{i}x{slot} = u;").unwrap();
            writeln!(handlers, "    ok_{i}x{slot} = true;").unwrap();
            writeln!(handlers, "  }}").unwrap();
            writeln!(handlers, "  when C{i}:Rq{i}x{slot}(u) {{").unwrap();
            writeln!(
                handlers,
                "    if (ok_{i}x{slot} && u == auth_{i}x{slot}) {{"
            )
            .unwrap();
            writeln!(handlers, "      send(K{next}, Gr{i}x{slot}(u));").unwrap();
            writeln!(handlers, "    }}").unwrap();
            writeln!(handlers, "  }}").unwrap();
            props.push(format!(
                "  Au{i}x{slot}Gate: forall u: str.\n    [Recv(C{i}(), Ok{i}x{slot}(u))] Enables [Send(C{next}(), Gr{i}x{slot}(u))];"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::preset("small", 7).unwrap();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.source, b.source);
        assert_eq!(a.name, b.name);
        // Different seeds give different kernels.
        let c = generate(&SynthConfig { seed: 8, ..cfg });
        assert_ne!(a.source, c.source);
    }

    #[test]
    fn generated_source_is_pinned_across_the_simrng_migration() {
        // Golden FNV fingerprint of the small-preset seed-7 kernel,
        // recorded before the private splitmix generator was replaced by
        // `SimRng::synth_compat`: old seeds must keep producing
        // byte-identical kernels (BENCH files and CI reference them).
        let kernel = generate(&SynthConfig::preset("small", 7).unwrap());
        assert_eq!(
            reflex_ast::fingerprint::fp_str(&kernel.source).0,
            0x25b5_b694_9729_f3c8,
            "synth-s7 source drifted; seeded kernels are no longer stable"
        );
    }

    #[test]
    fn presets_parse_and_typecheck() {
        for preset in ["small", "medium"] {
            let cfg = SynthConfig::preset(preset, 3).unwrap();
            let kernel = generate(&cfg);
            let checked = kernel.checked();
            assert_eq!(
                checked.program().properties.len(),
                kernel.properties,
                "{preset}"
            );
            assert!(kernel.properties > 0, "{preset}");
        }
    }

    #[test]
    fn variants_are_wellformed_edits() {
        let cfg = SynthConfig::preset("small", 11).unwrap();
        let base = generate(&cfg);
        let edited = generate_variant(&cfg, 2);
        assert_ne!(base.source, edited.source);
        assert_eq!(edited.properties, base.properties + 2);
        let names = |k: &SynthKernel| -> Vec<String> {
            k.checked()
                .program()
                .properties
                .iter()
                .map(|p| p.name.clone())
                .collect()
        };
        let (base_names, edited_names) = (names(&base), names(&edited));
        assert_eq!(
            edited_names[..base.properties],
            base_names[..],
            "the base properties keep their order"
        );
        assert_eq!(
            edited_names[base.properties..],
            ["EditEnsures0", "EditEnsures1"]
        );
    }

    #[test]
    fn small_preset_properties_all_prove() {
        let cfg = SynthConfig {
            components: 3,
            handlers: 2,
            properties: 64,
            high_components: 1,
            seed: 5,
        };
        let kernel = generate(&cfg);
        let checked = kernel.checked();
        for prop in &checked.program().properties {
            let outcome = reflex_verify::prove(&checked, &prop.name, &Default::default()).unwrap();
            assert!(outcome.is_proved(), "{} failed: {outcome:?}", prop.name);
        }
    }
}
