//! Multilayer perceptron with back-propagation and QAT hooks.

use fixar_fixed::Scalar;
use fixar_pool::Parallelism;
use fixar_tensor::{vector, Matrix, WeightPack};

use crate::activation::Activation;
use crate::error::NnError;
use crate::init::{seeded_rng, WeightInit};
use crate::qat::QatRuntime;

/// Configuration of a fully-connected network.
///
/// `layer_sizes` includes the input dimension, e.g. the paper's actor for
/// HalfCheetah is `vec![17, 400, 300, 6]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Layer widths, input first. Must have at least two entries.
    pub layer_sizes: Vec<usize>,
    /// Activation after every hidden layer (paper: ReLU).
    pub hidden_activation: Activation,
    /// Activation after the output layer (actor: tanh, critic: identity).
    pub output_activation: Activation,
    /// Initialization for hidden layers.
    pub hidden_init: WeightInit,
    /// Initialization for the output layer (DDPG: small uniform).
    pub output_init: WeightInit,
}

impl MlpConfig {
    /// Creates a configuration with the paper's defaults: ReLU hidden
    /// layers, identity output, Xavier hidden init, ±3e-3 output init.
    pub fn new(layer_sizes: Vec<usize>) -> Self {
        Self {
            layer_sizes,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Identity,
            hidden_init: WeightInit::XavierUniform,
            output_init: WeightInit::Uniform(3e-3),
        }
    }

    /// Sets the output activation (builder style).
    pub fn with_output_activation(mut self, act: Activation) -> Self {
        self.output_activation = act;
        self
    }

    /// Number of weight layers (`layer_sizes.len() - 1`).
    pub fn num_layers(&self) -> usize {
        self.layer_sizes.len().saturating_sub(1)
    }

    fn validate(&self) -> Result<(), NnError> {
        if self.layer_sizes.len() < 2 {
            return Err(NnError::InvalidConfig(
                "layer_sizes needs at least an input and an output width".into(),
            ));
        }
        if self.layer_sizes.contains(&0) {
            return Err(NnError::InvalidConfig("zero-width layer".into()));
        }
        Ok(())
    }
}

/// Per-layer gradients of an [`Mlp`], accumulated across a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpGrads<S> {
    /// Weight gradients, one matrix per layer.
    pub w: Vec<Matrix<S>>,
    /// Bias gradients, one vector per layer.
    pub b: Vec<Vec<S>>,
}

impl<S: Scalar> MlpGrads<S> {
    /// Zero gradients shaped like `mlp`.
    pub fn zeros_like(mlp: &Mlp<S>) -> Self {
        Self {
            w: mlp
                .weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect(),
            b: mlp
                .packed
                .biases
                .iter()
                .map(|b| vec![S::zero(); b.len()])
                .collect(),
        }
    }

    /// Resets all gradients to zero.
    pub fn reset(&mut self) {
        for w in &mut self.w {
            w.fill_zero();
        }
        for b in &mut self.b {
            for v in b {
                *v = S::zero();
            }
        }
    }

    /// Scales all gradients by a constant (e.g. `1/batch`).
    pub fn scale(&mut self, factor: S) {
        for w in &mut self.w {
            w.map_inplace(|v| v * factor);
        }
        for b in &mut self.b {
            vector::scale(factor, b);
        }
    }

    /// Accumulates another gradient buffer into this one — the reduction
    /// of per-core partial gradients into the shared gradient memory.
    ///
    /// # Panics
    ///
    /// Panics if the buffers were shaped from different networks.
    pub fn accumulate(&mut self, other: &MlpGrads<S>) {
        assert_eq!(self.w.len(), other.w.len(), "gradient layer count mismatch");
        for (mine, theirs) in self.w.iter_mut().zip(&other.w) {
            let dst = mine.as_mut_slice();
            for (d, &s) in dst.iter_mut().zip(theirs.as_slice()) {
                *d += s;
            }
        }
        for (mine, theirs) in self.b.iter_mut().zip(&other.b) {
            for (d, &s) in mine.iter_mut().zip(theirs) {
                *d += s;
            }
        }
    }
}

/// Activations captured during a forward pass, needed by back-propagation.
///
/// When the pass ran with quantization enabled, `inputs` holds the
/// *quantized* activations — so the weight-gradient outer products consume
/// exactly what Algorithm 1 prescribes (`Update θ with Qn(A)`).
#[derive(Debug, Clone)]
pub struct ForwardTrace<S> {
    /// Input to each layer: `inputs[0]` is the network input, `inputs[l]`
    /// the (possibly quantized) output of layer `l-1`.
    pub inputs: Vec<Vec<S>>,
    /// Pre-activation `z = W·a + b` of each layer.
    pub pre: Vec<Vec<S>>,
    /// Final network output (after output activation and, under QAT,
    /// quantization).
    pub output: Vec<S>,
}

/// Activations captured during a **batched** forward pass: the same data
/// as [`ForwardTrace`], with one minibatch sample per matrix row.
///
/// Row `b` of every matrix is bit-identical to the vectors a per-sample
/// [`ForwardTrace`] of sample `b` would hold (see the accumulation-order
/// contract in the `fixar-tensor` crate docs).
#[derive(Debug, Clone)]
pub struct BatchTrace<S> {
    /// Input to each layer: `inputs[0]` is the `(batch, in_dim)` network
    /// input, `inputs[l]` the (possibly quantized) output of layer `l-1`.
    pub inputs: Vec<Matrix<S>>,
    /// Pre-activation `Z = A·Wᵀ + b` of each layer, `(batch, fan_out)`.
    pub pre: Vec<Matrix<S>>,
    /// Final network output, `(batch, out_dim)`.
    pub output: Matrix<S>,
}

impl<S: Scalar> BatchTrace<S> {
    /// Number of samples in the traced minibatch.
    pub fn batch_size(&self) -> usize {
        self.output.rows()
    }
}

/// A network in its inference layout only: per-layer [`WeightPack`]s
/// (the packed `Wᵀ` with its interval-guard bounds), biases and
/// activations — no row-major `W`.
///
/// It is the part of an [`Mlp`] that a forward pass reads, and on its
/// own it is a DDPG target network: a target only runs forward passes
/// ([`PackedMlp::forward_batch`], output only, no trace) and follows its
/// online network by [`PackedMlp::soft_update_from`], which writes the
/// packed words in place. Neither needs `W`, so a target keeps none and
/// is never re-transposed.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMlp<S> {
    packs: Vec<WeightPack<S>>,
    biases: Vec<Vec<S>>,
    hidden_act: Activation,
    output_act: Activation,
    layer_sizes: Vec<usize>,
}

impl<S: Scalar> PackedMlp<S> {
    /// Batched forward pass returning only the `(batch, output_dim)`
    /// output: the walk of [`Mlp::forward_batch`] with nothing kept for a
    /// backward pass. Row `b` is bit-identical to the output of
    /// [`Mlp::forward_batch`] (and so of the per-sample pass) on the
    /// network these packs describe, at every worker count of `par`.
    ///
    /// # Errors
    ///
    /// As [`Mlp::forward_batch`].
    pub fn forward_batch(
        &self,
        x: &Matrix<S>,
        qat: &mut QatRuntime,
        par: &Parallelism,
    ) -> Result<Matrix<S>, NnError> {
        self.walk(x, qat, par, None)
    }

    /// Polyak/soft update `θ ← θ + τ·(θ_src − θ)` toward the online
    /// network `src`, computed in the backend arithmetic on the packed
    /// words ([`WeightPack::soft_update`]) and the biases. Every word is
    /// the one the same update would give on `W`, then packed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] — before anything is written —
    /// if `tau` is not a finite number in `[0, 1]` (a NaN would turn
    /// every float weight into NaN and round to 0 in fixed point), or if
    /// `src` differs in layer sizes or activations.
    pub fn soft_update_from(&mut self, src: &Mlp<S>, tau: f64) -> Result<(), NnError> {
        if !(0.0..=1.0).contains(&tau) {
            return Err(NnError::InvalidConfig(format!(
                "soft update rate must be a finite number in [0, 1], got {tau}"
            )));
        }
        let src = &src.packed;
        if (self.hidden_act, self.output_act) != (src.hidden_act, src.output_act)
            || self.layer_sizes != src.layer_sizes
        {
            return Err(NnError::InvalidConfig(
                "soft update requires identical architectures".into(),
            ));
        }
        let t = S::from_f64(tau);
        for (pack, from) in self.packs.iter_mut().zip(&src.packs) {
            pack.soft_update(from, t)?;
        }
        for (b, bs) in self.biases.iter_mut().zip(&src.biases) {
            for (d, &s) in b.iter_mut().zip(bs) {
                *d = *d + t * (s - *d);
            }
        }
        Ok(())
    }

    /// The one batched forward walk: each layer is one `gemv_batch`
    /// (sharded over `par` by the kernel itself); bias broadcast,
    /// activation and QAT run on the calling thread. With `trace`, each
    /// layer's input and pre-activation are pushed onto its `inputs` and
    /// `pre`; without, the activation runs in place on the
    /// pre-activation and nothing is kept. Returns the output.
    fn walk(
        &self,
        x: &Matrix<S>,
        qat: &mut QatRuntime,
        par: &Parallelism,
        mut trace: Option<&mut BatchTrace<S>>,
    ) -> Result<Matrix<S>, NnError> {
        self.check_qat_points(qat.num_points())?;
        let input_dim = self.layer_sizes[0];
        if x.cols() != input_dim {
            return Err(NnError::Shape(fixar_tensor::ShapeError::new(
                "mlp batch input",
                (x.rows(), input_dim),
                x.shape(),
            )));
        }
        let mut a = x.clone();
        qat.process(0, a.as_mut_slice());
        for (l, pack) in self.packs.iter().enumerate() {
            let mut z = Matrix::zeros(a.rows(), pack.rows());
            pack.gemv_batch(&a, &mut z, par)?;
            z.add_row_broadcast(&self.biases[l])?;
            let mut y = match trace.as_deref_mut() {
                Some(t) => {
                    let y = z.clone();
                    t.pre.push(z);
                    y
                }
                None => z,
            };
            self.activation(l).apply_slice(y.as_mut_slice());
            qat.process(l + 1, y.as_mut_slice());
            let input = core::mem::replace(&mut a, y);
            if let Some(t) = trace.as_deref_mut() {
                t.inputs.push(input);
            }
        }
        Ok(a)
    }

    /// Activation after layer `l`.
    fn activation(&self, l: usize) -> Activation {
        if l + 1 == self.packs.len() {
            self.output_act
        } else {
            self.hidden_act
        }
    }

    /// Rejects a QAT runtime built for another point count.
    fn check_qat_points(&self, points: usize) -> Result<(), NnError> {
        let want = self.packs.len() + 1;
        if points != want {
            return Err(NnError::InvalidConfig(format!(
                "qat runtime has {points} points, network needs {want}"
            )));
        }
        Ok(())
    }
}

/// Fully-connected network, generic over the numeric backend.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp<S> {
    /// Row-major `W` of each layer: the backward passes, the per-sample
    /// passes and weight export read it.
    weights: Vec<Matrix<S>>,
    /// The inference layout: packed `Wᵀ` of each layer — the operand of
    /// every batched forward/backward MVM — biases and activations.
    /// Built with the network and refreshed in place by
    /// [`Mlp::update_weight`], the only writer of the weights, so the
    /// packs always describe them; bias writes don't touch them.
    packed: PackedMlp<S>,
}

impl<S: Scalar> Mlp<S> {
    /// Creates a network with freshly initialized weights.
    ///
    /// Weights are drawn in `f64` from a deterministic RNG seeded with
    /// `seed`, then converted to `S`; the same seed yields the same
    /// underlying model at every precision.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for malformed configurations.
    pub fn new_random(cfg: &MlpConfig, seed: u64) -> Result<Self, NnError> {
        cfg.validate()?;
        let mut rng = seeded_rng(seed);
        let n = cfg.num_layers();
        let mut weights = Vec::with_capacity(n);
        let mut biases = Vec::with_capacity(n);
        for l in 0..n {
            let (fan_in, fan_out) = (cfg.layer_sizes[l], cfg.layer_sizes[l + 1]);
            let init = if l + 1 == n {
                cfg.output_init
            } else {
                cfg.hidden_init
            };
            let wf = init.sample(fan_in, fan_out, fan_in * fan_out, &mut rng);
            let bf = init.sample(fan_in, fan_out, fan_out, &mut rng);
            let data = wf.into_iter().map(S::from_f64).collect();
            weights
                .push(Matrix::from_vec(fan_out, fan_in, data).expect("init produced sized buffer"));
            biases.push(bf.into_iter().map(S::from_f64).collect());
        }
        Ok(Self {
            packed: PackedMlp {
                packs: weights.iter().map(Matrix::pack).collect(),
                biases,
                hidden_act: cfg.hidden_activation,
                output_act: cfg.output_activation,
                layer_sizes: cfg.layer_sizes.clone(),
            },
            weights,
        })
    }

    /// Number of weight layers.
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Layer widths, input first.
    #[inline]
    pub fn layer_sizes(&self) -> &[usize] {
        &self.packed.layer_sizes
    }

    /// Input dimension.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.packed.layer_sizes[0]
    }

    /// Output dimension.
    #[inline]
    pub fn output_dim(&self) -> usize {
        *self.packed.layer_sizes.last().expect("validated non-empty")
    }

    /// Hidden activation function.
    #[inline]
    pub fn hidden_activation(&self) -> Activation {
        self.packed.hidden_act
    }

    /// Output activation function.
    #[inline]
    pub fn output_activation(&self) -> Activation {
        self.packed.output_act
    }

    /// The inference layout — packs, biases, activations — whose clone
    /// is a [`PackedMlp`] target network of this one.
    #[inline]
    pub fn packed(&self) -> &PackedMlp<S> {
        &self.packed
    }

    /// Weight matrix of layer `l` (rows = fan-out, cols = fan-in).
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_layers()`.
    #[inline]
    pub fn weight(&self, l: usize) -> &Matrix<S> {
        &self.weights[l]
    }

    /// Writes the weights of layer `l` through `write` — the one writer
    /// of the weights (optimizers, tests) — then
    /// refreshes the layer's packed layout in place
    /// ([`WeightPack::refresh`]), so the next batched pass reads it as
    /// it is.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_layers()` or if `write` reshapes the matrix.
    pub fn update_weight(&mut self, l: usize, write: impl FnOnce(&mut Matrix<S>)) {
        let w = &mut self.weights[l];
        let shape = w.shape();
        write(w);
        assert_eq!(w.shape(), shape, "update_weight reshaped layer {l}");
        self.packed.packs[l].refresh(w);
    }

    /// Bias vector of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_layers()`.
    #[inline]
    pub fn bias(&self, l: usize) -> &[S] {
        &self.packed.biases[l]
    }

    /// Mutable bias vector of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= num_layers()`.
    #[inline]
    pub fn bias_mut(&mut self, l: usize) -> &mut [S] {
        &mut self.packed.biases[l]
    }

    /// Total number of parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.weights.iter().map(Matrix::len).sum::<usize>()
            + self.packed.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// Model size in bytes at this backend's precision (what the paper
    /// reports as "network size"; 32-bit weights for `Fx32`).
    pub fn model_bytes(&self) -> usize {
        self.param_count() * (S::BITS as usize / 8)
    }

    /// Plain inference without gradient bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `x.len() != input_dim()`.
    pub fn forward(&self, x: &[S]) -> Result<Vec<S>, NnError> {
        let mut qat = QatRuntime::disabled(self.num_layers() + 1);
        Ok(self.forward_qat(x, &mut qat)?.output)
    }

    /// Forward pass capturing the trace needed by [`Mlp::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `x.len() != input_dim()`.
    pub fn forward_trace(&self, x: &[S]) -> Result<ForwardTrace<S>, NnError> {
        let mut qat = QatRuntime::disabled(self.num_layers() + 1);
        self.forward_qat(x, &mut qat)
    }

    /// Per-sample forward pass through the QAT runtime: in `Calibrate`
    /// mode every activation point feeds its
    /// [`fixar_fixed::RangeMonitor`]; in `Quantize` mode activations are
    /// projected onto the n-bit grid before being stored and propagated.
    ///
    /// Quantization point `0` is the network input; point `l+1` is the
    /// post-activation output of layer `l`.
    ///
    /// The per-sample `forward*` family runs the stride-`cols`
    /// [`Matrix::gemv`] and is no longer on any production hot path: it is
    /// the bit-equality oracle of [`Mlp::forward_batch`], the body of
    /// `Ddpg::train_batch` (the per-sample update oracle), and
    /// `PolicySnapshot` inference, which passes a clone of its runtime so
    /// the snapshot's own is never written (in `Quantize` mode `process`
    /// records nothing, so the clone changes no bit). Rollout action
    /// selection goes through the batched path, one row included.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] on input-size mismatch and
    /// [`NnError::InvalidConfig`] if `qat` was built for a different
    /// number of points.
    pub fn forward_qat(&self, x: &[S], qat: &mut QatRuntime) -> Result<ForwardTrace<S>, NnError> {
        if x.len() != self.input_dim() {
            return Err(NnError::Shape(fixar_tensor::ShapeError::new(
                "mlp input",
                (self.input_dim(), 1),
                (x.len(), 1),
            )));
        }
        self.packed.check_qat_points(qat.num_points())?;
        let n = self.num_layers();
        let mut inputs = Vec::with_capacity(n);
        let mut pre = Vec::with_capacity(n);

        let mut a = x.to_vec();
        qat.process(0, &mut a);
        for l in 0..n {
            let mut z = self.weights[l].gemv_alloc(&a)?;
            for (zi, &bi) in z.iter_mut().zip(self.bias(l)) {
                *zi += bi;
            }
            let mut y = z.clone();
            self.packed.activation(l).apply_slice(&mut y);
            qat.process(l + 1, &mut y);
            inputs.push(a);
            pre.push(z);
            a = y;
        }
        Ok(ForwardTrace {
            inputs,
            pre,
            output: a,
        })
    }

    /// Batched forward pass: one minibatch sample per row of `x`,
    /// capturing the trace needed by [`Mlp::backward_batch`]. Each layer
    /// is one `gemv_batch`, sharded over `par` by the kernel itself;
    /// bias broadcast, activation and QAT run on the
    /// calling thread. This is the walk [`PackedMlp::forward_batch`]
    /// runs, keeping each layer's input and pre-activation.
    ///
    /// Every quantization point observes (or quantizes) the whole
    /// activation matrix in one call. Range monitors see exactly the
    /// values `batch` per-sample passes would (min/max/count are
    /// order-independent) and frozen quantizers apply elementwise, so row
    /// `b` of every trace matrix is bit-identical to
    /// [`Mlp::forward_qat`] on `x.row(b)` with the same runtime (a
    /// [`QatRuntime::disabled`] one leaves every activation as it is), in
    /// every backend, at every worker count of `par`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] on input-width mismatch,
    /// [`NnError::InvalidConfig`] if the QAT runtime was built for a
    /// different point count, and [`NnError::Pool`] if a kernel shard
    /// panicked (contained per task; the pool survives).
    pub fn forward_batch(
        &self,
        x: &Matrix<S>,
        qat: &mut QatRuntime,
        par: &Parallelism,
    ) -> Result<BatchTrace<S>, NnError> {
        let n = self.num_layers();
        let mut trace = BatchTrace {
            inputs: Vec::with_capacity(n),
            pre: Vec::with_capacity(n),
            output: Matrix::zeros(0, 0),
        };
        trace.output = self.packed.walk(x, qat, par, Some(&mut trace))?;
        Ok(trace)
    }

    /// Back-propagates a minibatch of output gradients (`dl_dout`, one
    /// sample per row) through the batched trace, accumulating parameter
    /// gradients into `grads` — or, with `None`, running only the error
    /// MVMs — and, when `input_grad` asks for it, returning the
    /// `(batch, input_dim)` matrix of input gradients (`None` otherwise:
    /// layer 0's error MVM is then never issued).
    ///
    /// Each layer runs its error MVM (batch-row shards), then its
    /// gradient outer product (weight-row shards), then its bias
    /// gradient on the calling thread; each kernel shards over `par`
    /// and joins before the next starts.
    /// Gradient accumulation across the batch runs in **ascending sample
    /// order** (the documented reduction order of the gradient memory),
    /// so the accumulated `grads` are bit-identical to calling
    /// [`Mlp::backward`] on each sample's trace in row order, at every
    /// worker count of `par`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `dl_dout` is not
    /// `(batch, output_dim)`, [`NnError::InvalidConfig`] if `grads` was
    /// not shaped by [`MlpGrads::zeros_like`] on this network (checked
    /// for every layer before anything is written), and
    /// [`NnError::Pool`] if a kernel shard panicked (contained; the pool
    /// survives).
    pub fn backward_batch(
        &self,
        trace: &BatchTrace<S>,
        dl_dout: &Matrix<S>,
        mut grads: Option<&mut MlpGrads<S>>,
        input_grad: bool,
        par: &Parallelism,
    ) -> Result<Option<Matrix<S>>, NnError> {
        let (n, batch) = (self.num_layers(), trace.batch_size());
        if dl_dout.shape() != (batch, self.output_dim()) {
            return Err(NnError::Shape(fixar_tensor::ShapeError::new(
                "mlp batch backward",
                (batch, self.output_dim()),
                dl_dout.shape(),
            )));
        }
        self.check_grads(grads.as_deref())?;
        // Output-layer delta: dL/dZ = dL/dY ⊙ f'(Z), elementwise.
        let mut delta = dl_dout.clone();
        for ((d, &z), &y) in delta
            .as_mut_slice()
            .iter_mut()
            .zip(trace.pre[n - 1].as_slice())
            .zip(trace.output.as_slice())
        {
            *d *= self.packed.output_act.derivative(z, y);
        }
        for l in (0..n).rev() {
            // Every layer propagates its error, except layer 0 when
            // nobody reads the input gradient.
            let mut err =
                (l > 0 || input_grad).then(|| Matrix::zeros(batch, self.weights[l].cols()));
            if let Some(err) = err.as_mut() {
                self.packed.packs[l].gemv_t_batch(&self.weights[l], &delta, err, par)?;
            }
            if let Some(MlpGrads { w, b }) = grads.as_deref_mut() {
                w[l].add_outer_batch(&delta, &trace.inputs[l], par)?;
                // Bias gradients: ascending sample order.
                for bi in 0..batch {
                    for (gb, &d) in b[l].iter_mut().zip(delta.row(bi)) {
                        *gb += d;
                    }
                }
            }
            let Some(mut err) = err else { break };
            if l == 0 {
                return Ok(Some(err));
            }
            for ((d, &z), &y) in err
                .as_mut_slice()
                .iter_mut()
                .zip(trace.pre[l - 1].as_slice())
                .zip(trace.inputs[l].as_slice())
            {
                *d *= self.packed.hidden_act.derivative(z, y);
            }
            delta = err;
        }
        Ok(None)
    }

    /// Back-propagates `dl_dout` (∂loss/∂output) through the trace,
    /// accumulating parameter gradients into `grads` and, when
    /// `input_grad` asks for it, returning ∂loss/∂input (the path by
    /// which the critic "leads the BP and WU of the actor network";
    /// `None` otherwise — layer 0's transposed product is then skipped).
    /// With `grads == None` only the error chain runs — the same input
    /// gradient, no weight-update work (Fig. 3 has none on the pass that
    /// leads the actor).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Shape`] if `dl_dout.len() != output_dim()` and
    /// [`NnError::InvalidConfig`] if `grads` was not shaped by
    /// [`MlpGrads::zeros_like`] on this network (checked for every layer
    /// before anything is written).
    pub fn backward(
        &self,
        trace: &ForwardTrace<S>,
        dl_dout: &[S],
        mut grads: Option<&mut MlpGrads<S>>,
        input_grad: bool,
    ) -> Result<Option<Vec<S>>, NnError> {
        let n = self.num_layers();
        if dl_dout.len() != self.output_dim() {
            return Err(NnError::Shape(fixar_tensor::ShapeError::new(
                "mlp backward",
                (self.output_dim(), 1),
                (dl_dout.len(), 1),
            )));
        }
        self.check_grads(grads.as_deref())?;
        // Output-layer delta: dL/dz = dL/dy ⊙ f'(z).
        let mut delta: Vec<S> = dl_dout
            .iter()
            .zip(trace.pre[n - 1].iter().zip(&trace.output))
            .map(|(&g, (&z, &y))| g * self.packed.output_act.derivative(z, y))
            .collect();

        for l in (0..n).rev() {
            if let Some(grads) = grads.as_deref_mut() {
                grads.w[l].add_outer(&delta, &trace.inputs[l])?;
                for (gb, &d) in grads.b[l].iter_mut().zip(&delta) {
                    *gb += d;
                }
            }
            if l == 0 {
                break;
            }
            delta = self.weights[l]
                .gemv_t_alloc(&delta)?
                .iter()
                .zip(trace.pre[l - 1].iter().zip(&trace.inputs[l]))
                .map(|(&e, (&z, &y))| e * self.packed.hidden_act.derivative(z, y))
                .collect();
        }
        if input_grad {
            Ok(Some(self.weights[0].gemv_t_alloc(&delta)?))
        } else {
            Ok(None)
        }
    }

    /// Converts the model to another backend through `f64` (used when the
    /// dynamic-fixed mode hands a pre-trained full-precision model to the
    /// quantized phase, and to build bit-identical accelerator images).
    pub fn cast<T: Scalar>(&self) -> Mlp<T> {
        let weights: Vec<Matrix<T>> = self.weights.iter().map(Matrix::cast).collect();
        let p = &self.packed;
        Mlp {
            packed: PackedMlp {
                packs: weights.iter().map(Matrix::pack).collect(),
                biases: p
                    .biases
                    .iter()
                    .map(|b| b.iter().map(|v| T::from_f64(v.to_f64())).collect())
                    .collect(),
                hidden_act: p.hidden_act,
                output_act: p.output_act,
                layer_sizes: p.layer_sizes.clone(),
            },
            weights,
        }
    }

    /// Rejects a gradient buffer not shaped by [`MlpGrads::zeros_like`]
    /// on this network — every layer's weight and bias shape, checked
    /// before a backward writes any of it.
    fn check_grads(&self, grads: Option<&MlpGrads<S>>) -> Result<(), NnError> {
        let n = self.num_layers();
        let fits = |g: &MlpGrads<S>| {
            (g.w.len(), g.b.len()) == (n, n)
                && (0..n).all(|l| {
                    g.w[l].shape() == self.weights[l].shape() && g.b[l].len() == self.bias(l).len()
                })
        };
        match grads {
            Some(g) if !fits(g) => Err(NnError::InvalidConfig(
                "gradient buffer was shaped on another network".into(),
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixar_fixed::Fx32;

    fn tiny_cfg() -> MlpConfig {
        MlpConfig::new(vec![3, 5, 2]).with_output_activation(Activation::Tanh)
    }

    #[test]
    fn construction_validates_config() {
        assert!(Mlp::<f64>::new_random(&MlpConfig::new(vec![3]), 0).is_err());
        assert!(Mlp::<f64>::new_random(&MlpConfig::new(vec![3, 0, 2]), 0).is_err());
        assert!(Mlp::<f64>::new_random(&tiny_cfg(), 0).is_ok());
    }

    #[test]
    fn same_seed_same_model_across_precisions() {
        let f = Mlp::<f64>::new_random(&tiny_cfg(), 123).unwrap();
        let q = Mlp::<Fx32>::new_random(&tiny_cfg(), 123).unwrap();
        for l in 0..f.num_layers() {
            for (a, b) in f.weight(l).as_slice().iter().zip(q.weight(l).as_slice()) {
                assert!((a - b.to_f64()).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn forward_shape_checked() {
        let mlp = Mlp::<f64>::new_random(&tiny_cfg(), 1).unwrap();
        assert!(mlp.forward(&[1.0, 2.0]).is_err());
        assert_eq!(mlp.forward(&[1.0, 2.0, 3.0]).unwrap().len(), 2);
    }

    #[test]
    fn tanh_output_is_bounded() {
        let mlp = Mlp::<f64>::new_random(&tiny_cfg(), 5).unwrap();
        let y = mlp.forward(&[10.0, -10.0, 10.0]).unwrap();
        assert!(y.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let cfg = MlpConfig::new(vec![4, 6, 3]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<f64>::new_random(&cfg, 9).unwrap();
        let x = [0.3, -0.7, 0.5, 0.1];
        // Loss: L = ½ Σ y_k², so dL/dy = y.
        let trace = mlp.forward_trace(&x).unwrap();
        let dl_dout = trace.output.clone();
        let mut grads = MlpGrads::zeros_like(&mlp);
        let input_err = mlp
            .backward(&trace, &dl_dout, Some(&mut grads), true)
            .unwrap()
            .unwrap();

        let loss = |m: &Mlp<f64>| -> f64 {
            let y = m.forward(&x).unwrap();
            0.5 * y.iter().map(|v| v * v).sum::<f64>()
        };
        let eps = 1e-6;
        // Check a sample of weight coordinates in every layer.
        for l in 0..mlp.num_layers() {
            for &(r, c) in &[(0usize, 0usize), (1, 2), (2, 1)] {
                if r >= mlp.weight(l).rows() || c >= mlp.weight(l).cols() {
                    continue;
                }
                let mut plus = mlp.clone();
                plus.update_weight(l, |w| w[(r, c)] += eps);
                let mut minus = mlp.clone();
                minus.update_weight(l, |w| w[(r, c)] -= eps);
                let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
                let an = grads.w[l][(r, c)];
                assert!(
                    (fd - an).abs() < 1e-6,
                    "layer {l} w[{r}][{c}]: fd={fd} an={an}"
                );
            }
            // And one bias coordinate.
            let mut plus = mlp.clone();
            plus.bias_mut(l)[0] += eps;
            let mut minus = mlp.clone();
            minus.bias_mut(l)[0] -= eps;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!((fd - grads.b[l][0]).abs() < 1e-6, "layer {l} bias");
        }
        // Input gradient against finite differences too.
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let yp = mlp.forward(&xp).unwrap();
            let ym = mlp.forward(&xm).unwrap();
            let lp = 0.5 * yp.iter().map(|v| v * v).sum::<f64>();
            let lm = 0.5 * ym.iter().map(|v| v * v).sum::<f64>();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - input_err[i]).abs() < 1e-6, "input {i}");
        }
    }

    /// The soft update on `W` (each layer's pack refreshed by
    /// [`Mlp::update_weight`]): its packed layout is what a target
    /// network must hold after [`PackedMlp::soft_update_from`].
    fn w_form_soft_update<S: Scalar>(dst: &Mlp<S>, src: &Mlp<S>, tau: f64) -> Mlp<S> {
        let t = S::from_f64(tau);
        let mut out = dst.clone();
        for l in 0..out.num_layers() {
            out.update_weight(l, |w| {
                for (d, &s) in w.as_mut_slice().iter_mut().zip(src.weight(l).as_slice()) {
                    *d = *d + t * (s - *d);
                }
            });
            for (d, &s) in out.bias_mut(l).iter_mut().zip(src.bias(l)) {
                *d = *d + t * (s - *d);
            }
        }
        out
    }

    #[test]
    fn packed_soft_update_equals_the_w_form_update_packed() {
        let cfg = MlpConfig::new(vec![6, 17, 9, 2]).with_output_activation(Activation::Tanh);
        let dst = Mlp::<Fx32>::new_random(&cfg, 31).unwrap();
        let src = Mlp::<Fx32>::new_random(&cfg, 32).unwrap();
        let mut target = dst.packed().clone();
        let mut oracle = dst;
        for tau in [0.005, 0.25, 0.0, 1.0] {
            target.soft_update_from(&src, tau).unwrap();
            oracle = w_form_soft_update(&oracle, &src, tau);
            assert_eq!(&target, oracle.packed(), "tau {tau}");
        }
        // tau = 1 copies the source exactly.
        assert_eq!(&target, src.packed());
        let f = Mlp::<f64>::new_random(&cfg, 1).unwrap();
        let g = Mlp::<f64>::new_random(&cfg, 2).unwrap();
        let mut target = f.packed().clone();
        target.soft_update_from(&g, 0.25).unwrap();
        assert_eq!(&target, w_form_soft_update(&f, &g, 0.25).packed());
    }

    /// Mutant: checking layer sizes only (accepting any `tau` and a
    /// source with other activations) must fail this test — the NaN and
    /// out-of-range rates and the other-activation sources then write.
    #[test]
    fn soft_update_rejects_bad_input_before_writing() {
        let a = Mlp::<f64>::new_random(&tiny_cfg(), 1).unwrap();
        let b = Mlp::<f64>::new_random(&tiny_cfg(), 2).unwrap();
        let mut target = a.packed().clone();
        let rejected = |target: &mut PackedMlp<f64>, src: &Mlp<f64>, tau: f64, what: &str| {
            let before = target.clone();
            let r = target.soft_update_from(src, tau);
            assert!(matches!(r, Err(NnError::InvalidConfig(_))), "{what}: {r:?}");
            assert_eq!(*target, before, "{what} wrote before failing");
        };
        for tau in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.5] {
            rejected(&mut target, &b, tau, &format!("tau {tau}"));
        }
        let other_output = tiny_cfg().with_output_activation(Activation::Identity);
        let mut other_hidden = tiny_cfg();
        other_hidden.hidden_activation = Activation::Tanh;
        for (cfg, what) in [
            (other_output, "output activation"),
            (other_hidden, "hidden activation"),
            (MlpConfig::new(vec![3, 4, 2]), "layer sizes"),
        ] {
            let src = Mlp::<f64>::new_random(&cfg, 2).unwrap();
            rejected(&mut target, &src, 0.5, what);
        }
        // The same source and rate are accepted.
        target.soft_update_from(&b, 0.5).unwrap();
        assert_eq!(&target, w_form_soft_update(&a, &b, 0.5).packed());
    }

    #[test]
    fn packed_forward_equals_the_traced_forward_at_every_worker_count() {
        // The target's output-only pass is the traced pass's walk: same
        // output, same range-monitor observations, calibrating and
        // frozen.
        let cfg = MlpConfig::new(vec![5, 14, 8, 3]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 21).unwrap();
        let target = mlp.packed().clone();
        let x = fx32_batch(11, 5);
        for workers in [1, 2, 8] {
            let par = Parallelism::with_workers(workers);
            let y = target.forward_batch(&x, &mut off(&mlp), &par).unwrap();
            let trace = mlp.forward_batch(&x, &mut off(&mlp), &par).unwrap();
            assert_eq!(y, trace.output, "{workers} workers");
            let mut qa = QatRuntime::builder(4).uniform_bits(8).build().unwrap();
            let mut qb = qa.clone();
            for frozen in [false, true] {
                let ya = target.forward_batch(&x, &mut qa, &par).unwrap();
                let yb = mlp.forward_batch(&x, &mut qb, &par).unwrap().output;
                assert_eq!(ya, yb, "{workers} workers, frozen {frozen}");
                for p in 0..qa.num_points() {
                    assert_eq!(qa.monitor(p).range(), qb.monitor(p).range());
                    assert_eq!(qa.monitor(p).count(), qb.monitor(p).count());
                }
                qa.freeze().unwrap();
                qb.freeze().unwrap();
            }
        }
        let bad = Matrix::<Fx32>::zeros(2, 4);
        assert!(target.forward_batch(&bad, &mut off(&mlp), &seq()).is_err());
        let mut wrong = QatRuntime::disabled(7);
        assert!(target.forward_batch(&x, &mut wrong, &seq()).is_err());
    }

    #[test]
    fn param_count_matches_paper_model() {
        // HalfCheetah actor: 17*400+400 + 400*300+300 + 300*6+6 = 129_306.
        let cfg = MlpConfig::new(vec![17, 400, 300, 6]);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 0).unwrap();
        assert_eq!(mlp.param_count(), 129_306);
        assert_eq!(mlp.model_bytes(), 129_306 * 4);
    }

    #[test]
    fn fixed_point_forward_tracks_float() {
        let cfg = MlpConfig::new(vec![6, 16, 4]).with_output_activation(Activation::Tanh);
        let f = Mlp::<f64>::new_random(&cfg, 33).unwrap();
        let q: Mlp<Fx32> = f.cast();
        let x = [0.2, -0.4, 0.6, -0.8, 1.0, -0.1];
        let xf = f.forward(&x).unwrap();
        let xq = q
            .forward(&x.iter().map(|&v| Fx32::from_f64(v)).collect::<Vec<_>>())
            .unwrap();
        for (a, b) in xf.iter().zip(&xq) {
            assert!(
                (a - b.to_f64()).abs() < 3e-3,
                "float={a} fixed={}",
                b.to_f64()
            );
        }
    }

    /// Deterministic pseudo-random Fx32 batch for a given input width.
    fn fx32_batch(batch: usize, dim: usize) -> Matrix<Fx32> {
        Matrix::<f64>::from_fn(batch, dim, |b, i| {
            (((b * 13 + i * 7) % 17) as f64 - 8.0) * 0.11
        })
        .cast()
    }

    fn seq() -> Parallelism {
        Parallelism::sequential()
    }

    /// A runtime that leaves every activation of `mlp` as it is.
    fn off<S: Scalar>(mlp: &Mlp<S>) -> QatRuntime {
        QatRuntime::disabled(mlp.num_layers() + 1)
    }

    #[test]
    fn forward_batch_bit_exact_with_per_sample_forward() {
        let cfg = MlpConfig::new(vec![6, 16, 9, 4]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 77).unwrap();
        let x = fx32_batch(9, 6);
        let y = mlp
            .forward_batch(&x, &mut off(&mlp), &seq())
            .unwrap()
            .output;
        assert_eq!(y.shape(), (9, 4));
        for b in 0..x.rows() {
            assert_eq!(
                y.row(b),
                mlp.forward(x.row(b)).unwrap().as_slice(),
                "row {b}"
            );
        }
    }

    /// Asserts every layer's pack equals one built afresh from its
    /// weights — transpose and guard bounds.
    fn assert_packs_current(mlp: &Mlp<Fx32>, writer: &str) {
        for l in 0..mlp.num_layers() {
            assert_eq!(
                mlp.packed.packs[l],
                mlp.weight(l).pack(),
                "layer {l} after {writer}"
            );
        }
    }

    #[test]
    fn every_weight_writer_leaves_the_packs_current() {
        // The batched paths read a packed transpose per layer; a stale
        // pack would keep serving the old weights. The per-sample
        // forward never reads the packs, so it is the oracle.
        let cfg = MlpConfig::new(vec![6, 16, 4]).with_output_activation(Activation::Tanh);
        let mut mlp = Mlp::<Fx32>::new_random(&cfg, 31).unwrap();
        assert_packs_current(&mlp, "construction");
        assert_packs_current(&mlp.clone(), "clone");
        assert_packs_current(&mlp.cast::<f64>().cast(), "cast");
        let x = fx32_batch(5, 6);
        let forward = |mlp: &Mlp<Fx32>| mlp.forward_batch(&x, &mut off(mlp), &seq()).unwrap();
        let agrees_per_sample = |mlp: &Mlp<Fx32>, y: &Matrix<Fx32>| {
            for b in 0..x.rows() {
                assert_eq!(y.row(b), mlp.forward(x.row(b)).unwrap().as_slice());
            }
        };
        let before = forward(&mlp).output;

        // Direct weight writes.
        mlp.update_weight(0, |w| w[(0, 0)] = Fx32::from_f64(1.25));
        mlp.update_weight(1, |w| w[(2, 3)] = Fx32::from_f64(-0.75));
        assert_packs_current(&mlp, "update_weight");
        let after = forward(&mlp).output;
        assert_ne!(before, after, "weight change must be visible");
        agrees_per_sample(&mlp, &after);

        // Optimizer path.
        let mut grads = MlpGrads::zeros_like(&mlp);
        let dl = fx32_batch(5, 4);
        mlp.backward_batch(&forward(&mlp), &dl, Some(&mut grads), false, &seq())
            .unwrap();
        let mut opt = crate::Adam::new(&mlp, crate::AdamConfig::default().with_lr(1e-2));
        opt.step(&mut mlp, &grads).unwrap();
        assert_packs_current(&mlp, "Adam::step");
        let stepped = forward(&mlp).output;
        assert_ne!(after, stepped, "Adam step must be visible");
        agrees_per_sample(&mlp, &stepped);

        // The backward path reads the same packs: gradients after the
        // updates must match the per-sample reference.
        let bt = forward(&mlp);
        let mut batched = MlpGrads::zeros_like(&mlp);
        let input_err = mlp
            .backward_batch(&bt, &dl, Some(&mut batched), true, &seq())
            .unwrap()
            .unwrap();
        let mut looped = MlpGrads::zeros_like(&mlp);
        for b in 0..x.rows() {
            let t = mlp.forward_trace(x.row(b)).unwrap();
            let err = mlp
                .backward(&t, dl.row(b), Some(&mut looped), true)
                .unwrap()
                .unwrap();
            assert_eq!(input_err.row(b), err.as_slice(), "input grad row {b}");
        }
        assert_eq!(batched.w, looped.w);
        assert_eq!(batched.b, looped.b);
    }

    /// Asserts row `b` of every matrix in `bt` equals the per-sample
    /// trace `t`.
    fn assert_trace_row(mlp: &Mlp<Fx32>, bt: &BatchTrace<Fx32>, b: usize, t: &ForwardTrace<Fx32>) {
        for l in 0..mlp.num_layers() {
            assert_eq!(bt.inputs[l].row(b), t.inputs[l].as_slice());
            assert_eq!(bt.pre[l].row(b), t.pre[l].as_slice());
        }
        assert_eq!(bt.output.row(b), t.output.as_slice());
    }

    #[test]
    fn forward_batch_trace_rows_match_per_sample_traces() {
        let cfg = MlpConfig::new(vec![5, 12, 3]);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 3).unwrap();
        let x = fx32_batch(6, 5);
        let bt = mlp.forward_batch(&x, &mut off(&mlp), &seq()).unwrap();
        for b in 0..x.rows() {
            assert_trace_row(&mlp, &bt, b, &mlp.forward_trace(x.row(b)).unwrap());
        }
        assert_eq!(bt.batch_size(), 6);
    }

    #[test]
    fn batch_passes_bit_exact_with_per_sample_passes_at_every_worker_count() {
        let cfg = MlpConfig::new(vec![5, 14, 8, 2]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 21).unwrap();
        let x = fx32_batch(11, 5);
        let dl = Matrix::<f64>::from_fn(11, 2, |b, i| ((b + i * 3) % 5) as f64 * 0.2 - 0.4)
            .cast::<Fx32>();

        // Per-sample reference, ascending sample order.
        let mut looped = MlpGrads::zeros_like(&mlp);
        let mut err_rows = Vec::new();
        for b in 0..x.rows() {
            let t = mlp.forward_trace(x.row(b)).unwrap();
            err_rows.push(
                mlp.backward(&t, dl.row(b), Some(&mut looped), true)
                    .unwrap()
                    .unwrap(),
            );
        }

        for workers in [1, 2, 3, 4, 8] {
            let par = Parallelism::with_workers(workers);
            let trace = mlp.forward_batch(&x, &mut off(&mlp), &par).unwrap();
            let mut grads = MlpGrads::zeros_like(&mlp);
            let err = mlp
                .backward_batch(&trace, &dl, Some(&mut grads), true, &par)
                .unwrap()
                .unwrap();
            for (b, err_row) in err_rows.iter().enumerate() {
                assert_trace_row(&mlp, &trace, b, &mlp.forward_trace(x.row(b)).unwrap());
                assert_eq!(err.row(b), err_row.as_slice(), "{workers} workers row {b}");
            }
            assert_eq!(grads.w, looped.w, "{workers} workers weight grads");
            assert_eq!(grads.b, looped.b, "{workers} workers bias grads");
        }
    }

    #[test]
    fn each_half_of_the_backward_is_the_same_with_or_without_the_other() {
        // The two outputs of a backward pass are requested separately:
        // `grads == None` runs only the error chain, `input_grad == false`
        // stops it after layer 1. Whatever is requested must carry the
        // bits of the call that requests both, per sample and batched, at
        // every worker count — and every form still validates `dl_dout`.
        let cfg = MlpConfig::new(vec![5, 14, 8, 2]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 21).unwrap();
        let x = fx32_batch(11, 5);
        let dl = Matrix::<f64>::from_fn(11, 2, |b, i| ((b + i * 3) % 5) as f64 * 0.2 - 0.4)
            .cast::<Fx32>();
        let mut grads = MlpGrads::zeros_like(&mlp);
        let mut declined = MlpGrads::zeros_like(&mlp);
        for b in 0..x.rows() {
            let t = mlp.forward_trace(x.row(b)).unwrap();
            let full = mlp.backward(&t, dl.row(b), Some(&mut grads), true).unwrap();
            assert!(full.is_some());
            assert_eq!(mlp.backward(&t, dl.row(b), None, true).unwrap(), full);
            let none = mlp.backward(&t, dl.row(b), Some(&mut declined), false);
            assert_eq!(none.unwrap(), None);
            assert_eq!(declined, grads, "row {b}");
            assert!(mlp.backward(&t, &dl.row(b)[..1], None, true).is_err());
        }
        for workers in [1, 2, 8] {
            let par = Parallelism::with_workers(workers);
            let trace = mlp.forward_batch(&x, &mut off(&mlp), &par).unwrap();
            let mut batched = MlpGrads::zeros_like(&mlp);
            let full = mlp
                .backward_batch(&trace, &dl, Some(&mut batched), true, &par)
                .unwrap();
            assert!(full.is_some());
            assert_eq!(batched, grads, "{workers} workers");
            let lean = mlp.backward_batch(&trace, &dl, None, true, &par).unwrap();
            assert_eq!(lean, full, "{workers} workers");
            let mut declined = MlpGrads::zeros_like(&mlp);
            let none = mlp
                .backward_batch(&trace, &dl, Some(&mut declined), false, &par)
                .unwrap();
            assert_eq!(none, None);
            assert_eq!(
                declined, grads,
                "{workers} workers, input gradient declined"
            );
            let bad_dl = Matrix::<Fx32>::zeros(3, 2);
            assert!(mlp
                .backward_batch(&trace, &bad_dl, None, true, &par)
                .is_err());
        }
    }

    #[test]
    fn batched_qat_calibration_and_quantization_match_per_sample() {
        let cfg = MlpConfig::new(vec![4, 10, 2]).with_output_activation(Activation::Tanh);
        let mlp = Mlp::<Fx32>::new_random(&cfg, 9).unwrap();
        let x = fx32_batch(8, 4);
        let par = Parallelism::with_workers(4);

        let mut qat_batched = QatRuntime::builder(mlp.num_layers() + 1)
            .uniform_bits(8)
            .build()
            .unwrap();
        let mut qat_looped = qat_batched.clone();

        mlp.forward_batch(&x, &mut qat_batched, &par).unwrap();
        for b in 0..x.rows() {
            mlp.forward_qat(x.row(b), &mut qat_looped).unwrap();
        }
        for p in 0..qat_batched.num_points() {
            assert_eq!(
                qat_batched.monitor(p).range(),
                qat_looped.monitor(p).range(),
                "point {p} range"
            );
            assert_eq!(
                qat_batched.monitor(p).count(),
                qat_looped.monitor(p).count(),
                "point {p} count"
            );
        }

        qat_batched.freeze().unwrap();
        qat_looped.freeze().unwrap();
        let yb = mlp
            .forward_batch(&x, &mut qat_batched, &par)
            .unwrap()
            .output;
        // The quantizing batch agrees with the per-sample pass, on a
        // clone of the runtime (the snapshot's spelling) and on itself.
        for b in 0..x.rows() {
            let frozen = mlp
                .forward_qat(x.row(b), &mut qat_looped.clone())
                .unwrap()
                .output;
            assert_eq!(yb.row(b), frozen.as_slice(), "frozen row {b}");
            let y = mlp.forward_qat(x.row(b), &mut qat_looped).unwrap().output;
            assert_eq!(yb.row(b), y.as_slice(), "quantized row {b}");
        }
    }

    #[test]
    fn batch_shape_errors_are_reported() {
        let mlp = Mlp::<f64>::new_random(&tiny_cfg(), 1).unwrap();
        let bad = Matrix::<f64>::zeros(4, 2);
        assert!(mlp.forward_batch(&bad, &mut off(&mlp), &seq()).is_err());
        let x = Matrix::<f64>::zeros(4, 3);
        let t = mlp.forward_batch(&x, &mut off(&mlp), &seq()).unwrap();
        let bad_dl = Matrix::<f64>::zeros(3, 2);
        let mut grads = MlpGrads::zeros_like(&mlp);
        assert!(mlp
            .backward_batch(&t, &bad_dl, Some(&mut grads), true, &seq())
            .is_err());
        // Mismatched runtime point counts are rejected up front.
        let mut wrong = QatRuntime::disabled(mlp.num_layers() + 5);
        assert!(mlp.forward_batch(&x, &mut wrong, &seq()).is_err());
    }

    #[test]
    fn grads_reset_and_scale() {
        let mlp = Mlp::<f64>::new_random(&tiny_cfg(), 3).unwrap();
        let mut grads = MlpGrads::zeros_like(&mlp);
        let trace = mlp.forward_trace(&[1.0, 1.0, 1.0]).unwrap();
        mlp.backward(&trace, &[1.0, 1.0], Some(&mut grads), false)
            .unwrap();
        let norm_before = grads.w[0].max_abs();
        assert!(norm_before > 0.0);
        grads.scale(0.5);
        assert!((grads.w[0].max_abs() - norm_before * 0.5).abs() < 1e-12);
        grads.reset();
        assert_eq!(grads.w[0].max_abs(), 0.0);
    }
}
