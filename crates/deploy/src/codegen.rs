//! `no_std` Rust source generation from a [`PolicyArtifact`].
//!
//! [`PolicyArtifact::emit_rust`] turns a frozen policy into one
//! self-contained source file: a short header, the integer walk
//! ([`fixar_fixed::WALK_SOURCE`] verbatim — the text the interpreter
//! runs, so the two are one program), then only data: each layer's
//! column-major weights and biases as `static` `i32` arrays, one static
//! layer table carrying every quantizer's mask and clip words and every
//! layer's guard bounds as literals, and an `infer` that sizes its
//! scratch from `MAX_WIDTH` and calls the walk. The artifact's FNV-1a
//! content hash is baked in as a `pub const` so deployed firmware is
//! auditable against the serving fleet.
//!
//! The emitted file declares `#![no_std]`, contains no `use` items,
//! and reaches nothing outside `core` — [`verify_generated_source`]
//! is the static gate, and `tests/deploy_props.rs` compiles the
//! output and proves it bit-equal to [`PolicyArtifact::infer_raw`].

use std::fmt::Write;

use fixar_fixed::{QuantWords, WALK_SOURCE};

use crate::artifact::PolicyArtifact;

/// Float tokens forbidden in generated source. Hex literals are emitted
/// with uppercase digits so `0x..F32..` can never false-positive.
const FLOAT_TOKENS: [&str; 9] = [
    "f32", "f64", "to_f", "from_f", ".floor", ".round", "powi", "powf", "as f",
];

/// Static gate over generated source: rejects anything that is not
/// dependency-free integer-only `no_std` Rust.
///
/// Checks, in order: the file declares `#![no_std]`; outside that
/// declaration the token `std` never appears; `alloc` never appears;
/// no line declares a `use` or `extern crate` item; none of the float
/// tokens appear. The walk's own text passes it (a unit test runs it on
/// `#![no_std]` plus [`WALK_SOURCE`]), which is the static half of the
/// interpreter's no-float contract.
///
/// # Errors
///
/// A human-readable description of the first violated rule.
pub fn verify_generated_source(src: &str) -> Result<(), String> {
    if !src.contains("#![no_std]") {
        return Err("generated source does not declare #![no_std]".into());
    }
    let stripped = src.replace("#![no_std]", "");
    if stripped.contains("std") {
        return Err("generated source references `std`".into());
    }
    if stripped.contains("alloc") {
        return Err("generated source references `alloc`".into());
    }
    for line in src.lines() {
        let t = line.trim_start();
        if t.starts_with("use ") || t.starts_with("extern crate") {
            return Err(format!("generated source declares an import: {t:?}"));
        }
    }
    for token in FLOAT_TOKENS {
        if src.contains(token) {
            return Err(format!("generated source contains float token {token:?}"));
        }
    }
    Ok(())
}

/// `i32` literal text; `i32::MIN` has no negatable literal form.
fn lit_i32(v: i32) -> String {
    if v == i32::MIN {
        "i32::MIN".into()
    } else {
        v.to_string()
    }
}

/// A quantizer's words as a struct literal.
fn lit_quant(q: QuantWords) -> String {
    format!(
        "QuantWords {{ mask: {}, lo: {}, hi: {} }}",
        lit_i32(q.mask),
        lit_i32(q.lo),
        lit_i32(q.hi)
    )
}

/// Emits `static name: [i32; len] = [ ... ];`, wrapped a few values per
/// line so the file stays diffable.
fn emit_array(out: &mut String, name: &str, vals: &[i32]) {
    let _ = writeln!(out, "static {name}: [i32; {}] = [", vals.len());
    for chunk in vals.chunks(12) {
        let line: Vec<String> = chunk.iter().map(|&v| lit_i32(v)).collect();
        let _ = writeln!(out, "    {},", line.join(", "));
    }
    let _ = writeln!(out, "];");
}

impl PolicyArtifact {
    /// Generates a self-contained `#![no_std]` Rust source file that
    /// evaluates this policy with integer arithmetic only, bit-equal
    /// to [`PolicyArtifact::infer_raw`]: the integer walk the
    /// interpreter runs, verbatim, over this artifact's words.
    ///
    /// The file exports `CONTENT_HASH` (the artifact's FNV-1a content
    /// hash), `INPUT_DIM`, `OUTPUT_DIM`, `MAX_WIDTH`, the walk's
    /// `FRAC_BITS`, and
    /// `infer(obs: &[i32; INPUT_DIM], action: &mut [i32; OUTPUT_DIM])`.
    /// It depends on nothing outside `core` — no `use` items at all —
    /// and passes [`verify_generated_source`]; the differential suite
    /// in `tests/deploy_props.rs` compiles it and proves bit-equality
    /// across agents and precision-policy arms.
    pub fn emit_rust(&self) -> String {
        let hash = self.content_hash();
        let mut out = format!(
            "//! FIXAR policy {hash:#018X} — generated integer-only inference source.\n\
             //!\n\
             //! Layers: {:?} · grid Q{}.{} · emitted by fixar-deploy codegen.\n\
             //! Call [`infer`] on raw grid words; the result is bit-equal to the\n\
             //! source artifact's interpreter. No imports, nothing outside `core`.\n\
             #![no_std]\n\n\
             /// FNV-1a 64 content hash of the source artifact blob.\n\
             pub const CONTENT_HASH: u64 = {hash:#018X};\n\
             /// Observation words expected by [`infer`].\n\
             pub const INPUT_DIM: usize = {};\n\
             /// Action words produced by [`infer`].\n\
             pub const OUTPUT_DIM: usize = {};\n\
             /// The widest layer input: the words of each of [`infer`]'s scratch buffers.\n\
             pub const MAX_WIDTH: usize = {};\n\n",
            self.layer_sizes(),
            32 - self.frac_bits(),
            self.frac_bits(),
            self.input_dim(),
            self.output_dim(),
            self.max_width(),
        );
        out.push_str(WALK_SOURCE);
        // Weights in the column-major image the walk streams.
        let n = self.num_layers();
        out.push('\n');
        for l in 0..n {
            emit_array(&mut out, &format!("W{l}"), &self.weights_t[l]);
            emit_array(&mut out, &format!("B{l}"), &self.biases[l]);
        }
        let _ = writeln!(out, "\nstatic LAYERS: [LayerView<'static>; {n}] = [");
        for l in 0..n {
            let v = self.layer(l);
            let _ = writeln!(
                out,
                "    LayerView {{ weights_t: &W{l}, bias: &B{l}, quant: {}, act: ActKind::{:?}, \
                 w_max: {}, w_abs_sum: {} }},",
                lit_quant(v.quant),
                v.act,
                v.w_max,
                v.w_abs_sum,
            );
        }
        let _ = writeln!(
            out,
            "];\n\n\
             /// Evaluates the policy on one raw grid observation.\n\
             pub fn infer(obs: &[i32; INPUT_DIM], action: &mut [i32; OUTPUT_DIM]) {{\n\
             \x20   let (mut ping, mut pong) = ([0i32; MAX_WIDTH], [0i32; MAX_WIDTH]);\n\
             \x20   let mut terms = [(0u32, 0i32); MAX_WIDTH];\n\
             \x20   let input = {};\n\
             \x20   walk(LAYERS.iter().copied(), input, obs, action, &mut ping, &mut pong, &mut terms);\n\
             }}",
            lit_quant(self.quant_words[0]),
        );
        debug_assert!(verify_generated_source(&out).is_ok());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActKind;
    use fixar_fixed::{AffineQuantizer, Fx32, QFormat};

    fn raw(x: f64) -> i32 {
        Fx32::from_f64(x).raw()
    }

    fn artifact_with_all_spec_kinds() -> PolicyArtifact {
        // Pass-through input, a shifting spec on the hidden point (format
        // quantizer), and on the output point a calibrated step finer
        // than the word grid — the `shift: 0` clamp form.
        let q_shift = AffineQuantizer::from_format(QFormat::q(4, 12).unwrap()).unwrap();
        let q_clamp = AffineQuantizer::from_range(-0.0131, 0.0077, 16).unwrap();
        PolicyArtifact::from_parts(
            &[2, 3, 1],
            ActKind::Relu,
            ActKind::Tanh,
            vec![
                vec![
                    raw(0.5),
                    raw(-1.25),
                    raw(2.0),
                    raw(0.125),
                    raw(-0.33),
                    raw(0.77),
                ],
                vec![raw(1.0), raw(-0.75), raw(0.4)],
            ],
            vec![vec![raw(0.1), raw(-0.2), raw(0.3)], vec![raw(0.05)]],
            &[None, Some(&q_shift), Some(&q_clamp)],
        )
        .unwrap()
    }

    #[test]
    fn emitted_source_passes_the_static_gate() {
        let src = artifact_with_all_spec_kinds().emit_rust();
        verify_generated_source(&src).unwrap();
    }

    #[test]
    fn emitted_source_declares_the_public_contract() {
        let art = artifact_with_all_spec_kinds();
        let src = art.emit_rust();
        let hash = art.content_hash();
        assert!(src.contains(&format!("pub const CONTENT_HASH: u64 = {hash:#018X};")));
        assert!(src.contains("pub const INPUT_DIM: usize = 2;"));
        assert!(src.contains("pub const OUTPUT_DIM: usize = 1;"));
        assert!(src.contains("pub const FRAC_BITS: u32 = 20;"));
        assert!(
            src.contains("pub fn infer(obs: &[i32; INPUT_DIM], action: &mut [i32; OUTPUT_DIM])")
        );
    }

    /// The emitted text with the walk cut out: the header and the data.
    fn data_of(src: &str) -> String {
        assert!(src.contains(WALK_SOURCE), "the walk must ship verbatim");
        src.replacen(WALK_SOURCE, "", 1)
    }

    #[test]
    fn emitted_source_spells_each_spec_kind_as_literal_words() {
        let src = artifact_with_all_spec_kinds().emit_rust();
        let data = data_of(&src);
        // Pass-through input: the identity words, applied by the walk.
        assert!(data.contains("let input = QuantWords { mask: -1, lo: i32::MIN, hi: 2147483647 };"));
        // Shift point (Q4.12, shift 8): the low 8 bits cleared, clamped
        // to the format's range [-8, 8 - 2^-12] on the word grid.
        assert!(data.contains("quant: QuantWords { mask: -256, lo: -8388608, hi: 8388352 }"));
        // Sub-grid point (shift 0): no bit cleared, a clamp between the
        // two clip words (-0.0131 and 0.0077 on the grid).
        assert!(data.contains("quant: QuantWords { mask: -1, lo: -13736, hi: 8074 }"));
        // Every quantizer is one mask and one clamp; none widens a word.
        assert!(src.contains("(r & self.mask).clamp(self.lo, self.hi)"));
        assert!(!src.contains("i128"));
        // The walk does not issue a zero input word.
        assert!(src.contains("live += usize::from(xj != 0);"));
        // The data is data: no function outside the walk but `infer`,
        // which only calls it, and nothing static but weights, biases
        // and the layer table (which holds the guard bounds inline); the
        // ROM is the walk's.
        assert_eq!(data.matches("fn ").count(), 1);
        assert!(data.contains(
            "    walk(LAYERS.iter().copied(), input, obs, action, &mut ping, &mut pong, &mut terms);\n}"
        ));
        assert_eq!(data.matches("static ").count(), 2 * 2 + 1);
        assert!(data.contains("static LAYERS: [LayerView<'static>; 2]"));
        assert!(data.contains("act: ActKind::Relu,") && data.contains("act: ActKind::Tanh,"));
        assert!(src.contains("pub const TANH_Q30: [i64; 65]"));
    }

    #[test]
    fn identity_policy_emits_minimal_source() {
        let art = PolicyArtifact::from_parts(
            &[2, 1],
            ActKind::Identity,
            ActKind::Identity,
            vec![vec![Fx32::ONE.raw(), Fx32::ONE.raw()]],
            vec![vec![0]],
            &[None, None],
        )
        .unwrap();
        let src = art.emit_rust();
        verify_generated_source(&src).unwrap();
        let data = data_of(&src);
        // One weight and one bias array and the one-entry table.
        assert_eq!(data.matches("static ").count(), 3);
        assert!(data.contains("static W0: [i32; 2] = [\n    1048576, 1048576,\n];"));
        // No quantizer anywhere: both points carry the identity words.
        let pass = "QuantWords { mask: -1, lo: i32::MIN, hi: 2147483647 }";
        assert_eq!(data.matches(pass).count(), 2);
        assert!(data.contains("pub const MAX_WIDTH: usize = 2;"));
    }

    /// The static half of the interpreter's no-float contract: the walk
    /// — all of its arithmetic — passes the gate every emitted file
    /// passes (no `std`, `alloc`, imports or float tokens, comments
    /// included).
    #[test]
    fn walk_source_passes_the_static_gate() {
        verify_generated_source(&format!("#![no_std]\n{WALK_SOURCE}")).unwrap();
    }

    #[test]
    fn gate_rejects_std_floats_and_imports() {
        assert!(
            verify_generated_source("fn main() {}").is_err(),
            "missing no_std"
        );
        for bad in [
            "#![no_std]\nuse core::mem;\n",
            "#![no_std]\nextern crate foo;\n",
            "#![no_std]\nfn f() { std::mem::drop(()); }\n",
            "#![no_std]\nfn f(x: f32) {}\n",
            "#![no_std]\nfn f(x: f64) {}\n",
        ] {
            assert!(verify_generated_source(bad).is_err(), "{bad:?}");
        }
        assert!(verify_generated_source("#![no_std]\npub fn f() -> i32 { 7 }\n").is_ok());
    }
}
