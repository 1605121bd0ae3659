//! `no_std` Rust source generation from a [`PolicyArtifact`].
//!
//! [`PolicyArtifact::emit_rust`] turns a frozen policy into one
//! self-contained source file: weights and biases as `static` `i32`
//! arrays on the artifact grid, the saturating MAC loop (which, like the
//! interpreter, skips zero input words), the piecewise-linear tanh ROM,
//! and each activation point's quantizer inline as the interpreter's
//! mask and clamp with literal operands.
//! The artifact's FNV-1a content hash is baked in as a `pub const` so
//! deployed firmware is auditable against the serving fleet.
//!
//! The emitted file declares `#![no_std]`, contains no `use` items,
//! and reaches nothing outside `core` — [`verify_generated_source`]
//! is the static gate, and `tests/deploy_props.rs` compiles the
//! output and proves it bit-equal to [`PolicyArtifact::infer_raw`].

use std::fmt::Write;

use crate::artifact::{ActKind, PolicyArtifact, QuantSpec};

/// Float tokens forbidden in generated source — the same list the
/// interpreter's static gate uses. Hex literals are emitted with
/// uppercase digits so `0x..F32..` can never false-positive.
const FLOAT_TOKENS: [&str; 9] = [
    "f32", "f64", "to_f", "from_f", ".floor", ".round", "powi", "powf", "as f",
];

/// Static gate over generated source: rejects anything that is not
/// dependency-free integer-only `no_std` Rust.
///
/// Checks, in order: the file declares `#![no_std]`; outside that
/// declaration the token `std` never appears; `alloc` never appears;
/// no line declares a `use` or `extern crate` item; none of the float
/// tokens of the interpreter gate appear.
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

/// Emits `static name: [ty; len] = [ ... ];`, wrapped a few values per
/// line so the file stays diffable.
fn emit_array(out: &mut String, name: &str, ty: &str, vals: &[String]) {
    let _ = writeln!(out, "static {name}: [{ty}; {}] = [", vals.len());
    for chunk in vals.chunks(12) {
        let _ = writeln!(out, "    {},", chunk.join(", "));
    }
    let _ = writeln!(out, "];");
}

impl PolicyArtifact {
    /// Generates a self-contained `#![no_std]` Rust source file that
    /// evaluates this policy with integer arithmetic only, bit-equal
    /// to [`PolicyArtifact::infer_raw`].
    ///
    /// The file exports `CONTENT_HASH` (the artifact's FNV-1a content
    /// hash), `INPUT_DIM`, `OUTPUT_DIM`, `FRAC_BITS`, and
    /// `infer(obs: &[i32; INPUT_DIM], action: &mut [i32; OUTPUT_DIM])`.
    /// It depends on nothing outside `core` — no `use` items at all —
    /// and passes [`verify_generated_source`]; the differential suite
    /// in `tests/deploy_props.rs` compiles it and proves bit-equality
    /// across agents and precision-policy arms.
    pub fn emit_rust(&self) -> String {
        let frac = self.frac_bits;
        let n = self.num_layers();
        let hash = self.content_hash();
        let mut out = String::new();

        let _ = writeln!(
            out,
            "//! FIXAR policy {hash:#018X} — generated integer-only inference source.\n\
             //!\n\
             //! Layers: {:?} · grid Q{}.{frac} · emitted by fixar-deploy codegen.\n\
             //! Call [`infer`] on raw grid words; the result is bit-equal to the\n\
             //! source artifact's interpreter. No imports, nothing outside `core`.\n\
             #![no_std]\n",
            self.layer_sizes(),
            32 - frac,
        );
        let _ = writeln!(
            out,
            "/// FNV-1a 64 content hash of the source artifact blob.\n\
             pub const CONTENT_HASH: u64 = {hash:#018X};\n\
             /// Observation words expected by [`infer`].\n\
             pub const INPUT_DIM: usize = {};\n\
             /// Action words produced by [`infer`].\n\
             pub const OUTPUT_DIM: usize = {};\n\
             /// Fractional bits of the fixed-point grid.\n\
             pub const FRAC_BITS: u32 = {frac};\n",
            self.input_dim(),
            self.output_dim(),
        );

        // Weight and bias statics. Weights are emitted in the same
        // column-major (transposed) image the interpreter streams, so
        // the generated column-broadcast loop below is unit-stride.
        for l in 0..n {
            let w: Vec<String> = self.weights_t[l].iter().map(|&v| lit_i32(v)).collect();
            emit_array(&mut out, &format!("W{l}"), "i32", &w);
            let b: Vec<String> = self.biases[l].iter().map(|&v| lit_i32(v)).collect();
            emit_array(&mut out, &format!("B{l}"), "i32", &b);
        }
        out.push('\n');

        // The tanh ROM, only when some layer uses it.
        let acts_used: Vec<ActKind> = (0..n)
            .map(|l| {
                if l + 1 == n {
                    self.output_act
                } else {
                    self.hidden_act
                }
            })
            .collect();
        let need_tanh = acts_used.contains(&ActKind::Tanh);
        if need_tanh {
            let rom: Vec<String> = fixar_fixed::math::TANH_Q30
                .iter()
                .map(|v| v.to_string())
                .collect();
            emit_array(&mut out, "TANH_Q30", "i64", &rom);
            out.push('\n');
        }

        // Arithmetic helpers — one operation at a time, in the same
        // order as the interpreter, so every word matches.
        out.push_str(
            "#[inline]\n\
             fn clamp_word(v: i64) -> i32 {\n\
             \x20   if v > i32::MAX as i64 {\n\
             \x20       i32::MAX\n\
             \x20   } else if v < i32::MIN as i64 {\n\
             \x20       i32::MIN\n\
             \x20   } else {\n\
             \x20       v as i32\n\
             \x20   }\n\
             }\n\n",
        );
        let _ = writeln!(
            out,
            "#[inline]\n\
             fn fx_mul(a: i32, b: i32) -> i32 {{\n\
             \x20   let wide = a as i64 * b as i64;\n\
             \x20   clamp_word((wide + (1i64 << {})) >> {frac})\n\
             }}\n\n\
             #[inline]\n\
             fn fx_add(a: i32, b: i32) -> i32 {{\n\
             \x20   a.saturating_add(b)\n\
             }}\n",
            frac - 1,
        );
        if need_tanh {
            let one = 1i64 << frac;
            let seg_shift = frac - 4;
            let q30_shift = 30 - frac;
            let q30_expr = if q30_shift == 0 {
                "v".to_string()
            } else {
                format!("(v + (1i64 << {})) >> {q30_shift}", q30_shift - 1)
            };
            let _ = writeln!(
                out,
                "#[inline]\n\
                 fn q30_to_grid(v: i64) -> i64 {{\n\
                 \x20   {q30_expr}\n\
                 }}\n\n\
                 #[inline]\n\
                 fn tanh_word(r: i32) -> i32 {{\n\
                 \x20   let raw = r as i64;\n\
                 \x20   let ax = if raw < 0 {{ -raw }} else {{ raw }};\n\
                 \x20   let y = if ax >= {xmax} {{\n\
                 \x20       {one}\n\
                 \x20   }} else {{\n\
                 \x20       let idx = (ax >> {seg_shift}) as usize;\n\
                 \x20       let rem = ax & {rem_mask};\n\
                 \x20       let y0 = q30_to_grid(TANH_Q30[idx]);\n\
                 \x20       let y1 = q30_to_grid(TANH_Q30[idx + 1]);\n\
                 \x20       y0 + (((y1 - y0) * rem) >> {seg_shift})\n\
                 \x20   }};\n\
                 \x20   clamp_word(if raw < 0 {{ -y }} else {{ y }})\n\
                 }}\n",
                xmax = 4 * one,
                rem_mask = (1i64 << seg_shift) - 1,
            );
        }

        // One quantizer fn per non-pass-through activation point: the
        // interpreter's mask and clamp, with its three words as literals.
        for (p, (spec, q)) in self.specs.iter().zip(&self.quant_words).enumerate() {
            if matches!(spec, QuantSpec::Shift(_)) {
                let _ = writeln!(
                    out,
                    "#[inline]\n\
                     fn quant_p{p}(r: i32) -> i32 {{\n\
                     \x20   (r & {}).clamp({}, {})\n\
                     }}\n",
                    lit_i32(q.mask),
                    lit_i32(q.lo),
                    lit_i32(q.hi),
                );
            }
        }

        // The inference entry point: the interpreter walk, unrolled
        // per layer over the statics above.
        let _ = writeln!(
            out,
            "/// Evaluates the policy on one raw grid observation.\n\
             pub fn infer(obs: &[i32; INPUT_DIM], action: &mut [i32; OUTPUT_DIM]) {{"
        );
        if matches!(self.specs[0], QuantSpec::PassThrough) {
            let _ = writeln!(out, "    let x0 = *obs;");
        } else {
            let _ = writeln!(
                out,
                "    let mut x0 = *obs;\n\
                 \x20   let mut j = 0;\n\
                 \x20   while j < INPUT_DIM {{\n\
                 \x20       x0[j] = quant_p0(x0[j]);\n\
                 \x20       j += 1;\n\
                 \x20   }}"
            );
        }
        for (l, &act) in acts_used.iter().enumerate() {
            let rows = self.layer_sizes[l + 1] as usize;
            let cols = self.layer_sizes[l] as usize;
            let _ = writeln!(
                out,
                "    let mut x{next} = [0i32; {rows}];\n\
                 \x20   let mut j = 0;\n\
                 \x20   while j < {cols} {{\n\
                 \x20       let xj = x{l}[j];\n\
                 \x20       if xj != 0 {{\n\
                 \x20           let col: &[i32; {rows}] = match W{l}[j * {rows}..(j + 1) * {rows}].try_into() {{\n\
                 \x20               Ok(c) => c,\n\
                 \x20               Err(_) => unreachable!(),\n\
                 \x20           }};\n\
                 \x20           let mut i = 0;\n\
                 \x20           while i < {rows} {{\n\
                 \x20               x{next}[i] = fx_add(x{next}[i], fx_mul(col[i], xj));\n\
                 \x20               i += 1;\n\
                 \x20           }}\n\
                 \x20       }}\n\
                 \x20       j += 1;\n\
                 \x20   }}\n\
                 \x20   let mut i = 0;\n\
                 \x20   while i < {rows} {{\n\
                 \x20       let v = fx_add(x{next}[i], B{l}[i]);",
                next = l + 1,
            );
            match act {
                ActKind::Identity => {}
                ActKind::Relu => {
                    let _ = writeln!(out, "        let v = if v < 0 {{ 0 }} else {{ v }};");
                }
                ActKind::Tanh => {
                    let _ = writeln!(out, "        let v = tanh_word(v);");
                }
            }
            if !matches!(self.specs[l + 1], QuantSpec::PassThrough) {
                let _ = writeln!(out, "        let v = quant_p{}(v);", l + 1);
            }
            let _ = writeln!(
                out,
                "        x{next}[i] = v;\n\
                 \x20       i += 1;\n\
                 \x20   }}",
                next = l + 1,
            );
        }
        let _ = writeln!(out, "    *action = x{n};\n}}");
        debug_assert!(verify_generated_source(&out).is_ok());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn emitted_source_unrolls_each_spec_kind() {
        let src = artifact_with_all_spec_kinds().emit_rust();
        // Pass-through input: no quantizer fn, the observation is used as is.
        assert!(!src.contains("fn quant_p0"));
        assert!(src.contains("let x0 = *obs;"));
        // Shift point (Q4.12, shift 8): the low 8 bits cleared, clamped
        // to the format's range [-8, 8 - 2^-12] on the word grid.
        assert!(src.contains("fn quant_p1"));
        assert!(src.contains("(r & -256).clamp(-8388608, 8388352)"));
        // Sub-grid point (shift 0): no bit cleared, a clamp between the
        // two clip words (-0.0131 and 0.0077 on the grid).
        assert!(src.contains("fn quant_p2"));
        assert!(src.contains("(r & -1).clamp(-13736, 8074)"));
        // No quantizer widens a word.
        assert!(!src.contains("i128"));
        assert!(!src.contains("as i64) >>"));
        // The column loop does not issue a zero input word.
        assert!(src.contains("if xj != 0 {"));
        // Nothing but weights, biases and the ROM is tabulated.
        assert_eq!(src.matches("static ").count(), 2 * 2 + 1);
        assert!(src.contains("static TANH_Q30"));
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
        assert!(!src.contains("TANH_Q30"), "no tanh layer, no ROM");
        assert!(!src.contains("quant_p"), "no quantizers, no quant fns");
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
