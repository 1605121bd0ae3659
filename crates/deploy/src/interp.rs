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
//! Every buffer the walk touches is allocated here, once per call and
//! independent of the layer count: the layer views, the actions, one
//! scratch buffer split into the two ping-pong halves, and the term
//! list.

use fixar_fixed::walk::{walk, LayerView};

use crate::artifact::PolicyArtifact;
use crate::guard::NoFloatZone;

/// Evaluates the artifact on `rows` raw observations, row-major, and
/// returns their actions, row-major.
///
/// The caller has already validated the input: its length, and (for
/// float input) that every word is finite.
pub(crate) fn run(art: &PolicyArtifact, obs: &[i32], rows: usize) -> Vec<i32> {
    let _zone = NoFloatZone::enter();
    assert_eq!(obs.len(), rows * art.input_dim());
    let layers: Vec<LayerView<'_>> = (0..art.num_layers()).map(|l| art.layer(l)).collect();
    let width = art.max_width();
    let mut out = vec![0; rows * art.output_dim()];
    let mut scratch = vec![0; 2 * rows * width];
    let (ping, pong) = scratch.split_at_mut(rows * width);
    let mut terms = vec![(0, 0); width];
    walk(
        &layers,
        art.quant_words[0],
        obs,
        &mut out,
        ping,
        pong,
        &mut terms,
    );
    out
}
