//! The integer-only artifact interpreter: [`walk`] over the artifact's
//! borrowed layers, with a [`NoFloatZone`] armed for the whole call so
//! the `deploy-float-guard` feature would catch any instrumented float
//! helper of this crate being reached from it.
//!
//! The walk is `fixar_fixed::walk` — the same text
//! [`PolicyArtifact::emit_rust`] pastes into the firmware it generates —
//! so the interpreter and the emitted program are one program.
//! Bit-exactness with the frozen `fixar-nn` path comes from the walk
//! replicating its arithmetic one operation at a time, in the same
//! order; the walk's docs say which work it skips without changing a
//! word (zero input words, the quantizer's shift arithmetic).
//!
//! Every buffer the walk touches lives in the caller's [`InferScratch`];
//! the layers are read in place, one view at a time.

use fixar_fixed::walk::walk;

use crate::artifact::PolicyArtifact;
use crate::guard::NoFloatZone;

/// The interpreter's buffers — observation words, the walk's ping-pong
/// halves and term list, action words — for [`PolicyArtifact::infer_batch`]
/// to reuse: their capacity grows to the largest batch served, so a warm
/// call allocates nothing, and what they held before is never read.
#[derive(Debug, Default)]
pub struct InferScratch {
    pub(crate) raw: Vec<i32>,
    halves: Vec<i32>,
    terms: Vec<(u32, i32)>,
    pub(crate) out: Vec<i32>,
}

/// Evaluates the artifact on the raw observations in `scratch.raw`,
/// row-major, and leaves their actions, row-major, in `scratch.out`.
///
/// The caller has already validated the input: its length, and (for
/// float input) that every word is finite.
pub(crate) fn run(art: &PolicyArtifact, scratch: &mut InferScratch) {
    let _zone = NoFloatZone::enter();
    let rows = scratch.raw.len() / art.input_dim();
    let width = art.max_width();
    scratch.halves.resize(2 * rows * width, 0);
    scratch.terms.resize(width, (0, 0));
    scratch.out.resize(rows * art.output_dim(), 0);
    let (ping, pong) = scratch.halves.split_at_mut(rows * width);
    walk(
        (0..art.num_layers()).map(|l| art.layer(l)),
        art.quant_words[0],
        &scratch.raw,
        &mut scratch.out,
        ping,
        pong,
        &mut scratch.terms,
    );
}
