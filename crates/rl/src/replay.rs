//! Experience replay at scale: a structure-of-arrays ring buffer with
//! gather-based sampling and prioritized replay.
//!
//! # Layout
//!
//! [`ReplayBuffer`] stores transitions **pre-transposed**: states,
//! actions, and next-states live in column-major `Matrix<f64>` panels
//! (one stored sample per logical column, held as the row-major
//! transpose `(capacity, dim)`, so each stored sample is one contiguous
//! row),
//! rewards and terminal flags in one flat interleaved lane (a pick
//! touches a single cache line for both). All lanes are
//! allocated **once**, to full capacity, so steady-state insertion is a
//! wrap-around write with no allocation and no per-transition `Vec`s.
//! Sampling a minibatch is then a column gather straight into the batch
//! matrices the batched kernels consume — no per-sample row staging,
//! no pointer chasing through `Vec<f64>` fields.
//!
//! # Determinism contract
//!
//! * Uniform sampling draws exactly the index sequence of the legacy
//!   array-of-structs buffer (`batch` × `gen_range(0..len)` on the
//!   caller's RNG), and the gathered [`TransitionBatch`] is
//!   bit-identical to packing the same picks through
//!   [`TransitionBatch::from_transitions`] — so trainers built on this
//!   buffer reproduce their pre-SoA runs bit-for-bit.
//! * The gather ([`ReplayBuffer::gather_into`]) is pure row copies, so
//!   it is bit-identical to that pack and reads no worker count.
//! * Prioritized sampling ([`PrioritizedReplay`]) draws from its own
//!   RNG stream (`priority_stream_seed`) and walks a deterministic
//!   sum-tree, so prioritized runs are reproducible per seed and
//!   invariant to `FIXAR_WORKERS`.

use fixar_pool::Parallelism;
use fixar_tensor::{Matrix, ShapeError};
use rand::rngs::StdRng;
use rand::Rng;

/// One environment transition `(s, a, r, s', done)`.
///
/// Stored in `f64` on the host side; batches are converted to the
/// accelerator's numeric format when they are shipped over "PCIe".
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State the action was taken in.
    pub state: Vec<f64>,
    /// Action taken (normalized to `[-1, 1]`).
    pub action: Vec<f64>,
    /// Immediate reward.
    pub reward: f64,
    /// Resulting state.
    pub next_state: Vec<f64>,
    /// `true` if `next_state` is terminal (no bootstrapping).
    pub terminal: bool,
}

/// Fixed-capacity replay ring buffer in structure-of-arrays form.
///
/// # Example
///
/// ```
/// use fixar_rl::{ReplayBuffer, Transition};
///
/// let mut buf = ReplayBuffer::with_dims(100, 1, 1);
/// buf.push(Transition {
///     state: vec![0.0],
///     action: vec![0.1],
///     reward: 1.0,
///     next_state: vec![0.2],
///     terminal: false,
/// });
/// assert_eq!(buf.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    /// Stored transpose of the column-major `(state_dim, capacity)`
    /// state panel: stored row `i` = slot `i`'s state, contiguous.
    states: Matrix<f64>,
    actions: Matrix<f64>,
    next_states: Matrix<f64>,
    /// `(reward, terminal)` per slot, interleaved so one pick reads one
    /// cache line for both scalars.
    meta: Vec<(f64, bool)>,
    capacity: usize,
    len: usize,
    write_head: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions of
    /// `state_dim`-wide states and `action_dim`-wide actions, with every
    /// lane allocated to full capacity — no allocation ever happens on
    /// the push path.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_dims(capacity: usize, state_dim: usize, action_dim: usize) -> Self {
        assert!(capacity > 0, "replay buffer needs positive capacity");
        Self {
            states: Matrix::zeros(capacity, state_dim),
            actions: Matrix::zeros(capacity, action_dim),
            next_states: Matrix::zeros(capacity, state_dim),
            meta: vec![(0.0, false); capacity],
            capacity,
            len: 0,
            write_head: 0,
        }
    }

    /// Stored transition count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(state_dim, action_dim)` fixed at construction.
    pub fn dims(&self) -> (usize, usize) {
        (self.states.cols(), self.actions.cols())
    }

    /// The state panel's stored transpose (`(capacity, state_dim)`;
    /// rows beyond [`ReplayBuffer::len`] are unwritten zeros). Exposed
    /// for the capacity-stability tests and the replay benches.
    pub fn state_panel(&self) -> &Matrix<f64> {
        &self.states
    }

    /// The action panel's stored transpose (`(capacity, action_dim)`).
    pub fn action_panel(&self) -> &Matrix<f64> {
        &self.actions
    }

    /// The next-state panel's stored transpose.
    pub fn next_state_panel(&self) -> &Matrix<f64> {
        &self.next_states
    }

    /// Inserts a transition, overwriting the oldest once full. Returns
    /// the slot index written (the hook prioritized replay uses to
    /// assign the new transition its initial priority).
    ///
    /// # Panics
    ///
    /// Panics if the transition's dimensions disagree with the buffer's
    /// (fixed at construction) — the push path is where the
    /// homogeneous-storage contract is enforced.
    pub fn push(&mut self, t: Transition) -> usize {
        let (state_dim, action_dim) = self.dims();
        assert_eq!(t.state.len(), state_dim, "replay push: state dim changed");
        assert_eq!(
            t.action.len(),
            action_dim,
            "replay push: action dim changed"
        );
        assert_eq!(
            t.next_state.len(),
            state_dim,
            "replay push: next-state dim changed"
        );
        let slot = self.write_head;
        self.states.row_mut(slot).copy_from_slice(&t.state);
        self.actions.row_mut(slot).copy_from_slice(&t.action);
        self.next_states
            .row_mut(slot)
            .copy_from_slice(&t.next_state);
        self.meta[slot] = (t.reward, t.terminal);
        if self.len < self.capacity {
            self.len += 1;
        }
        self.write_head = (self.write_head + 1) % self.capacity;
        slot
    }

    /// Draws `batch` slot indices uniformly with replacement into a
    /// caller-owned scratch vector (cleared first, capacity reused) —
    /// the **single shared draw path** of uniform sampling: exactly
    /// `batch` `gen_range(0..len)` calls in order (the legacy buffer's
    /// draw sequence, so pre-SoA runs reproduce bit-for-bit), or no
    /// draws at all when the buffer holds fewer than `batch`
    /// transitions (`out` is left empty; callers treat that as "keep
    /// exploring").
    pub fn sample_indices_into(&self, batch: usize, rng: &mut StdRng, out: &mut Vec<usize>) {
        out.clear();
        if self.len < batch {
            return;
        }
        out.extend((0..batch).map(|_| rng.gen_range(0..self.len)));
    }

    /// Samples `batch` transitions uniformly (with replacement — the
    /// hardware batch builder does the same single-ported read pattern),
    /// materialized from the panels. Returns an empty vector when the
    /// buffer holds fewer than `batch` transitions.
    pub fn sample(&self, batch: usize, rng: &mut StdRng) -> Vec<Transition> {
        let mut indices = Vec::with_capacity(batch);
        self.sample_indices_into(batch, rng, &mut indices);
        indices.into_iter().map(|i| self.transition(i)).collect()
    }

    /// Gathers the transitions at `indices` into a caller-owned scratch
    /// batch in a single pass over the picks: one contiguous row copy
    /// per pick and panel, reshaped in place, storage reused — no
    /// allocation once grown. Pure copies, so the bytes are those of
    /// packing the picked transitions row by row.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len()` — evicted or unwritten slots
    /// can never be gathered.
    pub fn gather_into(&self, indices: &[usize], out: &mut TransitionBatch) {
        assert!(
            indices.iter().all(|&i| i < self.len),
            "replay gather index out of live range"
        );
        out.reset_for(indices.len(), self.states.cols(), self.actions.cols());
        for (k, &i) in indices.iter().enumerate() {
            out.states.row_mut(k).copy_from_slice(self.states.row(i));
            out.actions.row_mut(k).copy_from_slice(self.actions.row(i));
            out.next_states
                .row_mut(k)
                .copy_from_slice(self.next_states.row(i));
            let (reward, terminal) = self.meta[i];
            out.rewards.push(reward);
            out.terminals.push(terminal);
        }
    }

    /// Materializes the transition at `slot` (ring order).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    pub fn transition(&self, slot: usize) -> Transition {
        assert!(slot < self.len, "replay slot out of live range");
        Transition {
            state: self.states.row(slot).to_vec(),
            action: self.actions.row(slot).to_vec(),
            reward: self.meta[slot].0,
            next_state: self.next_states.row(slot).to_vec(),
            terminal: self.meta[slot].1,
        }
    }

    /// Materializes the stored transitions in ring order (the order
    /// they were pushed, modulo wraparound) — the fleet-equivalence
    /// tests compare two trainers' replay contents through this.
    pub fn transitions(&self) -> Vec<Transition> {
        (0..self.len).map(|i| self.transition(i)).collect()
    }
}

/// A minibatch of transitions in structure-of-arrays form: one sample
/// per matrix row, ready for the batched kernels without per-sample
/// staging. Row `b` holds exactly the fields of the `b`-th sampled
/// [`Transition`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionBatch {
    states: Matrix<f64>,
    actions: Matrix<f64>,
    rewards: Vec<f64>,
    next_states: Matrix<f64>,
    terminals: Vec<bool>,
}

impl TransitionBatch {
    /// Packs borrowed transitions into batch matrices, in slice order —
    /// the legacy row-copy path, kept as the bit-exactness reference
    /// for the panel gather (and for callers that build batches from
    /// loose transitions).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the transitions disagree on state or
    /// action dimensions.
    pub fn from_transitions(batch: &[&Transition]) -> Result<Self, ShapeError> {
        let lane = |field: fn(&Transition) -> &[f64]| {
            let rows: Vec<&[f64]> = batch.iter().map(|t| field(t)).collect();
            Matrix::from_rows(&rows)
        };
        let states = lane(|t| &t.state)?;
        let next_states = lane(|t| &t.next_state)?;
        if next_states.cols() != states.cols() {
            return Err(ShapeError::new(
                "transition batch next states",
                states.shape(),
                next_states.shape(),
            ));
        }
        Ok(Self {
            states,
            actions: lane(|t| &t.action)?,
            rewards: batch.iter().map(|t| t.reward).collect(),
            next_states,
            terminals: batch.iter().map(|t| t.terminal).collect(),
        })
    }

    /// An empty batch — the natural starting value for a reusable
    /// sampling scratch (see [`ReplayBuffer::gather_into`]): the
    /// first fill sizes every lane, later fills reuse the storage.
    pub fn empty() -> Self {
        Self {
            states: Matrix::zeros(0, 0),
            actions: Matrix::zeros(0, 0),
            rewards: Vec::new(),
            next_states: Matrix::zeros(0, 0),
            terminals: Vec::new(),
        }
    }

    /// Reshapes every lane for `n` samples of the given dimensions,
    /// reusing grown storage (matrices through
    /// [`Matrix::reset_shape`], vectors through `clear`).
    fn reset_for(&mut self, n: usize, state_dim: usize, action_dim: usize) {
        self.states.reset_shape(n, state_dim);
        self.actions.reset_shape(n, action_dim);
        self.next_states.reset_shape(n, state_dim);
        self.rewards.clear();
        self.terminals.clear();
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    /// `true` for a 0-sample batch.
    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        self.states.cols()
    }

    /// Action dimension.
    pub fn action_dim(&self) -> usize {
        self.actions.cols()
    }

    /// `(batch, state_dim)` state matrix.
    pub fn states(&self) -> &Matrix<f64> {
        &self.states
    }

    /// `(batch, action_dim)` action matrix.
    pub fn actions(&self) -> &Matrix<f64> {
        &self.actions
    }

    /// Per-sample rewards.
    pub fn rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// `(batch, state_dim)` successor-state matrix.
    pub fn next_states(&self) -> &Matrix<f64> {
        &self.next_states
    }

    /// Per-sample terminal flags.
    pub fn terminals(&self) -> &[bool] {
        &self.terminals
    }
}

/// Configuration of proportional prioritized replay (Schaul et al.):
/// priorities `p_i = (|δ_i| + eps)^alpha`, importance weights
/// `w_i = (N · P(i))^-beta` normalized by the batch maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrioritizedConfig {
    /// Priority exponent `α` (0 = uniform, 1 = fully proportional).
    pub alpha: f64,
    /// Importance-sampling exponent `β` (bias correction strength).
    pub beta: f64,
    /// Floor added to `|δ|` so no transition starves.
    pub eps: f64,
}

impl Default for PrioritizedConfig {
    fn default() -> Self {
        Self {
            alpha: 0.6,
            beta: 0.4,
            eps: 1e-6,
        }
    }
}

impl PrioritizedConfig {
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.alpha.is_finite() && self.alpha >= 0.0) {
            return Err(format!(
                "prioritized alpha must be >= 0, got {}",
                self.alpha
            ));
        }
        if !(self.beta.is_finite() && self.beta >= 0.0) {
            return Err(format!("prioritized beta must be >= 0, got {}", self.beta));
        }
        if !(self.eps.is_finite() && self.eps > 0.0) {
            return Err(format!("prioritized eps must be > 0, got {}", self.eps));
        }
        Ok(())
    }
}

/// How a trainer samples its replay buffer.
///
/// `Uniform` is the paper's protocol and the bit-exactness anchor: a
/// uniform-strategy run reproduces the pre-SoA trainer bit-for-bit.
/// `Prioritized` is the new workload the SoA ring unlocks: proportional
/// prioritized experience replay over a sum-tree, with importance
/// weights applied in the batched critic loss.
///
/// # Example
///
/// ```
/// use fixar_rl::{DdpgConfig, PrioritizedConfig, ReplayStrategy};
///
/// // The default is the paper's uniform replay.
/// assert_eq!(DdpgConfig::default().replay, ReplayStrategy::Uniform);
///
/// // Opt a trainer into prioritized replay:
/// let cfg = DdpgConfig::small_test()
///     .with_replay(ReplayStrategy::Prioritized(PrioritizedConfig::default()));
/// let trainer = fixar_rl::Trainer::<f32>::new(
///     fixar_env::EnvPool::from_kind(fixar_env::EnvKind::Pendulum, 1, 1),
///     fixar_env::EnvKind::Pendulum.make(2),
///     cfg,
/// )?;
/// # let _ = trainer;
/// # Ok::<(), fixar_rl::RlError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReplayStrategy {
    /// Uniform sampling with replacement (the legacy behaviour,
    /// bit-for-bit).
    #[default]
    Uniform,
    /// Proportional prioritized replay (sum-tree, importance weights).
    Prioritized(PrioritizedConfig),
}

/// Flat binary sum-tree over `capacity` leaves (padded to a power of
/// two). Leaf `i` holds slot `i`'s priority mass; every internal node
/// holds the sum of its children, so a proportional draw is a
/// deterministic root-to-leaf descent.
#[derive(Debug, Clone)]
struct SumTree {
    base: usize,
    tree: Vec<f64>,
}

impl SumTree {
    fn new(capacity: usize) -> Self {
        let base = capacity.next_power_of_two().max(1);
        Self {
            base,
            tree: vec![0.0; 2 * base],
        }
    }

    fn total(&self) -> f64 {
        self.tree[1]
    }

    fn get(&self, leaf: usize) -> f64 {
        self.tree[self.base + leaf]
    }

    fn set(&mut self, leaf: usize, mass: f64) {
        let mut node = self.base + leaf;
        self.tree[node] = mass;
        node /= 2;
        while node >= 1 {
            // Recompute from the children (not += delta): parents are
            // always the exact sum of their current children, so the
            // tree state depends only on the leaf values, never on the
            // update history.
            self.tree[node] = self.tree[2 * node] + self.tree[2 * node + 1];
            node /= 2;
        }
    }

    /// Leaf whose cumulative-mass interval contains `mass ∈ [0, total)`.
    fn find(&self, mut mass: f64) -> usize {
        let mut node = 1;
        while node < self.base {
            let left = 2 * node;
            if mass < self.tree[left] {
                node = left;
            } else {
                mass -= self.tree[left];
                node = left + 1;
            }
        }
        node - self.base
    }
}

/// Proportional prioritized experience replay (Schaul et al. 2016) over
/// the SoA ring: a sum-tree maps TD-error-derived priorities to slots,
/// sampling is a stratified proportional draw, and per-sample
/// importance weights correct the induced bias inside the batched loss
/// (`Ddpg::train_minibatch_weighted`).
///
/// All tree updates and draws happen on the calling thread, so
/// prioritized runs are deterministic per seed and invariant to the
/// worker count (only the gather is pool-parallel, and that is
/// bit-exact).
#[derive(Debug, Clone)]
pub struct PrioritizedReplay {
    tree: SumTree,
    cfg: PrioritizedConfig,
    max_priority: f64,
    capacity: usize,
}

impl PrioritizedReplay {
    /// Creates the priority structure for a buffer of `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if the config is malformed or `capacity == 0`.
    pub fn new(capacity: usize, cfg: PrioritizedConfig) -> Self {
        assert!(capacity > 0, "prioritized replay needs positive capacity");
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        Self {
            tree: SumTree::new(capacity),
            cfg,
            max_priority: 1.0,
            capacity,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PrioritizedConfig {
        &self.cfg
    }

    /// Current priority mass of `slot` (diagnostics/tests).
    pub fn priority(&self, slot: usize) -> f64 {
        self.tree.get(slot)
    }

    /// Hook for [`ReplayBuffer::push`]: the freshly written slot gets
    /// the maximum priority seen so far (new experience is sampled at
    /// least once before its TD error is known), and an overwritten
    /// slot's old priority is replaced — evicted transitions lose all
    /// sampling mass atomically with their eviction.
    pub fn on_insert(&mut self, slot: usize) {
        assert!(slot < self.capacity, "slot out of range");
        self.tree.set(slot, self.max_priority);
    }

    /// Draws `batch` slot indices proportionally to priority mass into
    /// a caller-owned scratch vector (cleared first, capacity reused),
    /// stratified: draw `k` is uniform in the `k`-th of `batch` equal
    /// segments of the total mass (lower variance than independent
    /// draws, same deterministic RNG consumption: exactly `batch`
    /// `gen_range` calls). Indices are clamped into the live range
    /// `0..len`, so evicted/unwritten slots are never yielded.
    ///
    /// # Panics
    ///
    /// Panics if the total priority mass is zero or `len == 0`.
    pub fn sample_indices_into(
        &self,
        len: usize,
        batch: usize,
        rng: &mut StdRng,
        out: &mut Vec<usize>,
    ) {
        let total = self.tree.total();
        assert!(
            total > 0.0 && len > 0,
            "prioritized sampling from an empty mass"
        );
        out.clear();
        out.extend((0..batch).map(|k| {
            let lo = total * k as f64 / batch as f64;
            let hi = total * (k + 1) as f64 / batch as f64;
            let mass = rng.gen_range(lo..hi);
            self.tree
                .find(mass.min(total * (1.0 - f64::EPSILON)))
                .min(len - 1)
        }));
    }

    /// Importance weights `w_i = (len · P(i))^-beta`, normalized by the
    /// batch maximum so weights only scale updates **down**, computed
    /// into a caller-owned vector (cleared first, capacity reused) —
    /// after the first draw at a given batch size, no allocation happens.
    pub fn weights_into(&self, len: usize, indices: &[usize], out: &mut Vec<f64>) {
        let total = self.tree.total();
        out.clear();
        out.extend(indices.iter().map(|&i| {
            let p = self.tree.get(i) / total;
            (len as f64 * p).powf(-self.cfg.beta)
        }));
        let max = out.iter().copied().fold(0.0_f64, f64::max);
        if max > 0.0 {
            for v in out.iter_mut() {
                *v /= max;
            }
        }
    }

    /// Re-prioritizes `indices` from their fresh TD errors:
    /// `p_i = (|δ_i| + eps)^alpha`, applied in ascending position order
    /// (later duplicates win, deterministically).
    ///
    /// # Panics
    ///
    /// Panics, before writing anything, if `indices` and `td_errors`
    /// disagree in length (a silent `zip` truncation would leave the
    /// tail's insert-time max priorities in place and permanently
    /// oversample those slots), if an index is `>= capacity` (it would
    /// land in a padding leaf the draw then clamps onto the last slot),
    /// or if a TD error is not finite (a NaN poisons the tree total, an
    /// infinity the max priority every later insert receives).
    pub fn update_priorities(&mut self, indices: &[usize], td_errors: &[f64]) {
        assert_eq!(
            indices.len(),
            td_errors.len(),
            "one TD error per re-prioritized index"
        );
        for (k, (&i, &td)) in indices.iter().zip(td_errors).enumerate() {
            assert!(
                i < self.capacity,
                "re-prioritized index {i} at position {k} is outside capacity {}",
                self.capacity
            );
            assert!(
                td.is_finite(),
                "TD error {td} at position {k} is not finite"
            );
        }
        for (&i, &td) in indices.iter().zip(td_errors) {
            let p = (td.abs() + self.cfg.eps).powf(self.cfg.alpha);
            self.tree.set(i, p);
            self.max_priority = self.max_priority.max(p);
        }
    }
}

/// A sampled minibatch plus the bookkeeping prioritized replay needs:
/// which slots were drawn, and the importance weight per sample
/// (`None` under the uniform strategy — the unweighted loss stays on
/// its bit-exact legacy path).
#[derive(Debug, Clone)]
pub struct SampledBatch {
    /// The gathered minibatch.
    pub batch: TransitionBatch,
    /// Slot index each row was gathered from.
    pub indices: Vec<usize>,
    /// Per-sample importance weights (prioritized only).
    pub weights: Option<Vec<f64>>,
}

impl SampledBatch {
    /// An empty scratch for [`ReplaySampler::sample_into`]: the first
    /// draw sizes every lane (batch matrices, index vector, weight
    /// vector), every later draw reuses the storage — the train step
    /// becomes allocation-free.
    pub fn scratch() -> Self {
        Self {
            batch: TransitionBatch::empty(),
            indices: Vec::new(),
            weights: None,
        }
    }
}

impl Default for SampledBatch {
    fn default() -> Self {
        Self::scratch()
    }
}

/// Runtime sampler unifying the two [`ReplayStrategy`] arms — the
/// object the trainers drive: `on_insert` after every push,
/// `sample_into` before every update, `update_priorities` after it.
#[derive(Debug, Clone)]
pub enum ReplaySampler {
    /// Uniform draws on the caller's replay stream (legacy behaviour).
    Uniform,
    /// Sum-tree proportional draws on the priority stream.
    Prioritized(PrioritizedReplay),
}

impl ReplaySampler {
    /// Builds the sampler for a strategy over `capacity` slots.
    pub fn new(strategy: ReplayStrategy, capacity: usize) -> Self {
        match strategy {
            ReplayStrategy::Uniform => Self::Uniform,
            ReplayStrategy::Prioritized(cfg) => {
                Self::Prioritized(PrioritizedReplay::new(capacity, cfg))
            }
        }
    }

    /// `true` for the prioritized arm (trainers use this to pick the
    /// RNG stream the draw consumes).
    pub fn is_prioritized(&self) -> bool {
        matches!(self, Self::Prioritized(_))
    }

    /// Records that `slot` was just (over)written.
    pub fn on_insert(&mut self, slot: usize) {
        if let Self::Prioritized(p) = self {
            p.on_insert(slot);
        }
    }

    /// Samples a minibatch from `buf` into a caller-owned scratch:
    /// indices, batch lanes, and (on the prioritized arm) the weight
    /// vector are all refilled in place, so no allocation happens after
    /// the first draw. Uniform consumes
    /// exactly the legacy draw sequence and carries no weights;
    /// prioritized draws through the sum-tree and attaches importance
    /// weights. Both arms gather with [`ReplayBuffer::gather_into`].
    /// `par` is unused (the gather is one pass of row copies, too
    /// little work to shard); it stays because the frozen call surface
    /// that `benchmarks/e2e` compiles against spells it.
    ///
    /// Returns `false` (scratch untouched, no RNG draws on either arm)
    /// when `batch == 0` or fewer than `batch` transitions are stored.
    pub fn sample_into(
        &mut self,
        buf: &ReplayBuffer,
        batch: usize,
        rng: &mut StdRng,
        _par: &Parallelism,
        out: &mut SampledBatch,
    ) -> bool {
        if batch == 0 || buf.len() < batch {
            return false;
        }
        match self {
            Self::Uniform => {
                buf.sample_indices_into(batch, rng, &mut out.indices);
                buf.gather_into(&out.indices, &mut out.batch);
                out.weights = None;
                true
            }
            Self::Prioritized(p) => {
                p.sample_indices_into(buf.len(), batch, rng, &mut out.indices);
                let weights = out.weights.get_or_insert_with(Vec::new);
                p.weights_into(buf.len(), &out.indices, weights);
                buf.gather_into(&out.indices, &mut out.batch);
                true
            }
        }
    }

    /// Feeds fresh TD errors back into the priority structure (no-op
    /// for uniform).
    pub fn update_priorities(&mut self, indices: &[usize], td_errors: &[f64]) {
        if let Self::Prioritized(p) = self {
            p.update_priorities(indices, td_errors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// One sequential uniform draw into a fresh scratch (`None` on
    /// underflow or an empty batch).
    fn draw(buf: &ReplayBuffer, batch: usize, rng: &mut StdRng) -> Option<TransitionBatch> {
        let mut indices = Vec::new();
        buf.sample_indices_into(batch, rng, &mut indices);
        if indices.is_empty() {
            return None;
        }
        let mut out = TransitionBatch::empty();
        buf.gather_into(&indices, &mut out);
        Some(out)
    }

    /// The legacy row-copy pack of the transitions at `indices`.
    fn row_copy(buf: &ReplayBuffer, indices: &[usize]) -> TransitionBatch {
        let picks: Vec<Transition> = indices.iter().map(|&i| buf.transition(i)).collect();
        let refs: Vec<&Transition> = picks.iter().collect();
        TransitionBatch::from_transitions(&refs).unwrap()
    }

    fn t(v: f64) -> Transition {
        Transition {
            state: vec![v],
            action: vec![v],
            reward: v,
            next_state: vec![v + 1.0],
            terminal: false,
        }
    }

    #[test]
    fn fills_then_wraps() {
        let mut buf = ReplayBuffer::with_dims(3, 1, 1);
        for i in 0..5 {
            buf.push(t(i as f64));
        }
        assert_eq!(buf.len(), 3);
        // Oldest (0, 1) were overwritten by (3, 4); 2 survives.
        let rewards: Vec<f64> = buf.transitions().iter().map(|t| t.reward).collect();
        assert!(rewards.contains(&2.0));
        assert!(rewards.contains(&3.0));
        assert!(rewards.contains(&4.0));
    }

    #[test]
    fn wraparound_never_yields_evicted_transitions() {
        // The satellite contract at both a dividing (12 = 3×4) and a
        // non-dividing (13) insertion count for capacity 4.
        for pushes in [12usize, 13] {
            let cap = 4;
            let mut buf = ReplayBuffer::with_dims(cap, 1, 1);
            for i in 0..pushes {
                buf.push(t(i as f64));
            }
            assert_eq!(buf.len(), cap);
            let floor = (pushes - cap) as f64;
            let live: Vec<f64> = buf.transitions().iter().map(|t| t.reward).collect();
            assert!(live.iter().all(|&r| r >= floor && r < pushes as f64));
            let mut rng = StdRng::seed_from_u64(1);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..40 {
                let batch = draw(&buf, cap, &mut rng).unwrap();
                for b in 0..batch.len() {
                    let r = batch.rewards()[b];
                    assert!(
                        r >= floor && r < pushes as f64,
                        "pushes {pushes}: evicted reward {r} sampled"
                    );
                    seen.insert(r as i64);
                }
            }
            assert_eq!(seen.len(), cap, "pushes {pushes}: all live slots reachable");
        }
    }

    #[test]
    fn lanes_are_allocated_once_and_stay_put() {
        // Capacity-stability: with_dims allocates every lane up front;
        // no push (filling or wrapping) ever reallocates or grows them.
        let cap = 8;
        let mut buf = ReplayBuffer::with_dims(cap, 2, 1);
        let state_ptr = buf.state_panel().as_slice().as_ptr();
        let action_ptr = buf.action_panel().as_slice().as_ptr();
        let next_ptr = buf.next_state_panel().as_slice().as_ptr();
        assert_eq!(buf.state_panel().shape(), (cap, 2));
        assert_eq!(buf.dims(), (2, 1));
        for i in 0..3 * cap {
            buf.push(Transition {
                state: vec![i as f64; 2],
                action: vec![i as f64],
                reward: i as f64,
                next_state: vec![i as f64 + 1.0; 2],
                terminal: false,
            });
            assert_eq!(buf.state_panel().as_slice().as_ptr(), state_ptr);
            assert_eq!(buf.action_panel().as_slice().as_ptr(), action_ptr);
            assert_eq!(buf.next_state_panel().as_slice().as_ptr(), next_ptr);
            assert_eq!(buf.state_panel().len(), cap * 2, "panel never grows");
        }
    }

    #[test]
    #[should_panic(expected = "state dim changed")]
    fn push_rejects_ragged_dimensions() {
        let mut buf = ReplayBuffer::with_dims(4, 1, 1);
        buf.push(t(1.0));
        let mut bad = t(2.0);
        bad.state = vec![1.0, 2.0];
        buf.push(bad);
    }

    #[test]
    fn sample_respects_underflow() {
        let mut buf = ReplayBuffer::with_dims(10, 1, 1);
        let mut rng = StdRng::seed_from_u64(0);
        buf.push(t(1.0));
        assert!(buf.sample(2, &mut rng).is_empty());
        buf.push(t(2.0));
        assert_eq!(buf.sample(2, &mut rng).len(), 2);
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let mut buf = ReplayBuffer::with_dims(100, 1, 1);
        for i in 0..100 {
            buf.push(t(i as f64));
        }
        let a: Vec<f64> = buf
            .sample(10, &mut StdRng::seed_from_u64(7))
            .iter()
            .map(|t| t.reward)
            .collect();
        let b: Vec<f64> = buf
            .sample(10, &mut StdRng::seed_from_u64(7))
            .iter()
            .map(|t| t.reward)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sample_covers_the_buffer() {
        let mut buf = ReplayBuffer::with_dims(16, 1, 1);
        for i in 0..16 {
            buf.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            for tr in buf.sample(16, &mut rng) {
                seen.insert(tr.reward as i64);
            }
        }
        assert_eq!(seen.len(), 16, "uniform sampling should reach every slot");
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = ReplayBuffer::with_dims(0, 1, 1);
    }

    #[test]
    fn sample_paths_share_one_gather_from_any_rng_state() {
        // The anti-drift contract: from the *same mid-stream* RNG state,
        // `sample` and the batch draw pick identical indices and leave
        // the RNG in identical states (a divergence means the shared
        // draw path was forked).
        let mut buf = ReplayBuffer::with_dims(32, 1, 1);
        for i in 0..32 {
            buf.push(t(i as f64));
        }
        let mut rng_a = StdRng::seed_from_u64(17);
        // Advance past the seed point so the test pins mid-stream state.
        for _ in 0..5 {
            let _: f64 = rng_a.gen_range(0.0..1.0);
        }
        let mut rng_b = rng_a.clone();
        let picks = buf.sample(8, &mut rng_a);
        let batch = draw(&buf, 8, &mut rng_b).expect("filled buffer");
        let refs: Vec<&Transition> = picks.iter().collect();
        assert_eq!(batch, TransitionBatch::from_transitions(&refs).unwrap());
        // Both paths consumed exactly the same draws.
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn uniform_sample_into_reuses_storage_and_is_worker_invariant() {
        // Same RNG stream → the bytes of the legacy row-copy pack, and
        // once the scratch has been sized, repeated draws never
        // reallocate any lane.
        let mut buf = ReplayBuffer::with_dims(64, 1, 1);
        for i in 0..64 {
            buf.push(t(i as f64));
        }
        let seq = Parallelism::sequential();
        let mut sampler = ReplaySampler::Uniform;
        let mut scratch = SampledBatch::scratch();
        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = rng_a.clone();
        assert!(sampler.sample_into(&buf, 16, &mut rng_a, &seq, &mut scratch));
        let ptr = scratch.batch.states().as_slice().as_ptr();
        let mut indices = Vec::new();
        buf.sample_indices_into(16, &mut rng_b, &mut indices);
        assert_eq!(
            scratch.batch,
            row_copy(&buf, &indices),
            "same draws, same bytes"
        );
        for _ in 0..10 {
            assert!(sampler.sample_into(&buf, 16, &mut rng_a, &seq, &mut scratch));
            buf.sample_indices_into(16, &mut rng_b, &mut indices);
            assert_eq!(scratch.batch, row_copy(&buf, &indices));
            assert_eq!(
                scratch.batch.states().as_slice().as_ptr(),
                ptr,
                "steady-state draws must not reallocate"
            );
        }
        // RNG parity: both paths consumed exactly the same draws.
        assert_eq!(rng_a, rng_b);
        // Underflow leaves the scratch untouched and draws nothing.
        let small = ReplayBuffer::with_dims(8, 1, 1);
        let before = scratch.batch.clone();
        let mut rng_c = StdRng::seed_from_u64(1);
        let state = rng_c.clone();
        assert!(!sampler.sample_into(&small, 4, &mut rng_c, &seq, &mut scratch));
        assert_eq!(scratch.batch, before);
        assert_eq!(rng_c, state);
        // The pooled arm agrees at every worker count.
        let reference = draw(&buf, 16, &mut StdRng::seed_from_u64(5)).unwrap();
        for workers in [1usize, 2, 8] {
            let par = Parallelism::with_workers(workers);
            let mut out = SampledBatch::scratch();
            let mut rng = StdRng::seed_from_u64(5);
            assert!(sampler.sample_into(&buf, 16, &mut rng, &par, &mut out));
            assert_eq!(out.batch, reference, "workers {workers}");
        }
    }

    #[test]
    fn sampler_sample_into_is_allocation_free_and_gathers_its_indices() {
        // Both strategy arms: sample_into refills one scratch whose rows
        // are the drawn slots, and the prioritized arm's importance
        // weights are computed into it without per-draw allocation.
        let cap = 32;
        let mut buf = ReplayBuffer::with_dims(cap, 1, 1);
        let par = Parallelism::sequential();
        for strategy in [
            ReplayStrategy::Uniform,
            ReplayStrategy::Prioritized(PrioritizedConfig::default()),
        ] {
            let mut sampler = ReplaySampler::new(strategy, cap);
            for i in 0..cap {
                let slot = buf.push(t(i as f64));
                sampler.on_insert(slot);
            }
            let mut scratch = SampledBatch::scratch();
            let mut rng_a = StdRng::seed_from_u64(40);
            // First draw sizes the scratch lanes.
            assert!(sampler.sample_into(&buf, 8, &mut rng_a, &par, &mut scratch));
            assert_eq!(scratch.batch, row_copy(&buf, &scratch.indices));
            let batch_ptr = scratch.batch.states().as_slice().as_ptr();
            let idx_ptr = scratch.indices.as_ptr();
            for round in 0..6 {
                // Priorities shift between draws on the prioritized arm.
                sampler.update_priorities(&scratch.indices, &[0.3 * (round + 1) as f64; 8]);
                assert!(sampler.sample_into(&buf, 8, &mut rng_a, &par, &mut scratch));
                assert_eq!(scratch.batch, row_copy(&buf, &scratch.indices));
                assert_eq!(
                    scratch.batch.states().as_slice().as_ptr(),
                    batch_ptr,
                    "{strategy:?}: batch lanes must be reused"
                );
                assert_eq!(
                    scratch.indices.as_ptr(),
                    idx_ptr,
                    "{strategy:?}: index scratch must be reused"
                );
                if sampler.is_prioritized() {
                    let w = scratch.weights.as_ref().expect("prioritized weights");
                    assert_eq!(w.len(), 8);
                    assert!(w.iter().all(|&v| v > 0.0 && v <= 1.0));
                } else {
                    assert!(scratch.weights.is_none());
                }
            }
        }
    }

    #[test]
    fn priority_weights_are_refilled_in_the_scratch() {
        let cap = 16;
        let mut buf = ReplayBuffer::with_dims(cap, 1, 1);
        let strategy = ReplayStrategy::Prioritized(PrioritizedConfig::default());
        let mut sampler = ReplaySampler::new(strategy, cap);
        for i in 0..cap {
            let slot = buf.push(t(i as f64));
            sampler.on_insert(slot);
        }
        let indices: Vec<usize> = (0..cap).collect();
        let tds: Vec<f64> = (0..cap).map(|i| 0.2 + i as f64 * 0.5).collect();
        sampler.update_priorities(&indices, &tds);
        let (seq, mut rng) = (Parallelism::sequential(), StdRng::seed_from_u64(3));
        let mut scratch = SampledBatch::scratch();
        assert!(sampler.sample_into(&buf, cap, &mut rng, &seq, &mut scratch));
        let ptr = scratch
            .weights
            .as_ref()
            .expect("prioritized weights")
            .as_ptr();
        // A smaller draw refills the scratch's own storage, not appended
        // and not copied in from elsewhere.
        assert!(sampler.sample_into(&buf, 8, &mut rng, &seq, &mut scratch));
        let w = scratch.weights.as_ref().expect("prioritized weights");
        assert_eq!(w.len(), 8);
        assert_eq!(w.as_ptr(), ptr);
        let ReplaySampler::Prioritized(pr) = &sampler else {
            unreachable!("built prioritized")
        };
        let mut want = Vec::new();
        pr.weights_into(cap, &scratch.indices, &mut want);
        assert_eq!(w, &want);
    }

    #[test]
    fn transitions_expose_ring_order() {
        let mut buf = ReplayBuffer::with_dims(3, 1, 1);
        for i in 0..4 {
            buf.push(t(i as f64));
        }
        // Slot 0 was overwritten by the 4th push (ring order).
        let rewards: Vec<f64> = buf.transitions().iter().map(|t| t.reward).collect();
        assert_eq!(rewards, vec![3.0, 1.0, 2.0]);
        assert_eq!(buf.transition(1), t(1.0));
    }

    #[test]
    fn uniform_draw_respects_underflow() {
        let mut buf = ReplayBuffer::with_dims(8, 1, 1);
        buf.push(t(1.0));
        let mut rng = StdRng::seed_from_u64(0);
        assert!(draw(&buf, 2, &mut rng).is_none());
        assert!(draw(&buf, 0, &mut rng).is_none());
    }

    #[test]
    fn gather_into_equals_the_row_copy_pack_and_reuses_storage() {
        let mut buf = ReplayBuffer::with_dims(24, 1, 1);
        for i in 0..24 {
            buf.push(t(i as f64));
        }
        let long: Vec<usize> = (0..17).map(|k| (k * 5 + 2) % 24).collect();
        let short: Vec<usize> = (0..9).map(|k| (k * 7 + 1) % 24).collect();
        let mut out = TransitionBatch::empty();
        buf.gather_into(&long, &mut out);
        assert_eq!(out, row_copy(&buf, &long));
        let states = out.states().as_slice().as_ptr();
        buf.gather_into(&short, &mut out);
        assert_eq!(out, row_copy(&buf, &short));
        assert_eq!(out.states().as_slice().as_ptr(), states, "scratch reused");
    }

    #[test]
    #[should_panic(expected = "out of live range")]
    fn gather_rejects_dead_slots() {
        let mut buf = ReplayBuffer::with_dims(8, 1, 1);
        buf.push(t(0.0));
        buf.push(t(1.0));
        // Slot 2 is unwritten.
        buf.gather_into(&[0, 2], &mut TransitionBatch::empty());
    }

    #[test]
    fn transition_batch_rows_mirror_transitions() {
        let data: Vec<Transition> = (0..4).map(|i| t(i as f64)).collect();
        let refs: Vec<&Transition> = data.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.state_dim(), 1);
        assert_eq!(batch.action_dim(), 1);
        for (b, tr) in data.iter().enumerate() {
            assert_eq!(batch.states().row(b), tr.state.as_slice());
            assert_eq!(batch.actions().row(b), tr.action.as_slice());
            assert_eq!(batch.next_states().row(b), tr.next_state.as_slice());
            assert_eq!(batch.rewards()[b], tr.reward);
            assert_eq!(batch.terminals()[b], tr.terminal);
        }
    }

    #[test]
    fn transition_batch_rejects_ragged_dimensions() {
        let a = t(1.0);
        let mut b = t(2.0);
        b.state = vec![1.0, 2.0];
        assert!(TransitionBatch::from_transitions(&[&a, &b]).is_err());
    }

    // --- prioritized replay -------------------------------------------

    #[test]
    fn sum_tree_masses_partition_the_total() {
        let mut tree = SumTree::new(5);
        for (i, p) in [1.0, 2.0, 0.5, 4.0, 0.25].iter().enumerate() {
            tree.set(i, *p);
        }
        assert!((tree.total() - 7.75).abs() < 1e-12);
        // Walking the cumulative intervals lands on each leaf.
        assert_eq!(tree.find(0.5), 0);
        assert_eq!(tree.find(1.0), 1);
        assert_eq!(tree.find(2.9), 1);
        assert_eq!(tree.find(3.2), 2);
        assert_eq!(tree.find(3.6), 3);
        assert_eq!(tree.find(7.6), 4);
        // Updates recompute exactly: with leaf 3 zeroed the cumulative
        // intervals become [0,1) [1,3) [3,3.5) — [3.5,3.75).
        tree.set(3, 0.0);
        assert!((tree.total() - 3.75).abs() < 1e-12);
        assert_eq!(tree.find(3.3), 2);
        assert_eq!(tree.find(3.6), 4);
    }

    #[test]
    fn prioritized_sampling_prefers_high_priority_slots() {
        let cap = 16;
        let mut pr = PrioritizedReplay::new(cap, PrioritizedConfig::default());
        for slot in 0..cap {
            pr.on_insert(slot);
        }
        // Slot 3 gets a huge TD error, the rest tiny ones.
        let indices: Vec<usize> = (0..cap).collect();
        let tds: Vec<f64> = (0..cap).map(|i| if i == 3 { 50.0 } else { 0.01 }).collect();
        pr.update_priorities(&indices, &tds);
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0usize;
        let mut draws = 0usize;
        let mut picks = Vec::new();
        for _ in 0..200 {
            pr.sample_indices_into(cap, 8, &mut rng, &mut picks);
            for &i in &picks {
                assert!(i < cap);
                hits += usize::from(i == 3);
                draws += 1;
            }
        }
        assert!(
            hits as f64 > 0.5 * draws as f64,
            "slot 3 holds ~87% of the mass but got {hits}/{draws}"
        );
    }

    #[test]
    fn prioritized_weights_are_normalized_and_downweight_frequent_picks() {
        let cap = 8;
        let mut pr = PrioritizedReplay::new(cap, PrioritizedConfig::default());
        for slot in 0..cap {
            pr.on_insert(slot);
        }
        let indices: Vec<usize> = (0..cap).collect();
        let tds: Vec<f64> = (0..cap).map(|i| 0.1 + i as f64).collect();
        pr.update_priorities(&indices, &tds);
        let mut w = Vec::new();
        pr.weights_into(cap, &indices, &mut w);
        // Normalized by the max: everything in (0, 1], rarest pick = 1.
        assert!(w.iter().all(|&v| v > 0.0 && v <= 1.0));
        assert_eq!(w[0], 1.0, "lowest-priority slot carries the max weight");
        // Higher priority => sampled more often => smaller weight.
        for k in 1..cap {
            assert!(w[k] <= w[k - 1], "weights must fall with priority");
        }
    }

    #[test]
    fn prioritized_sampling_is_deterministic_per_seed() {
        let mut pr = PrioritizedReplay::new(32, PrioritizedConfig::default());
        for slot in 0..32 {
            pr.on_insert(slot);
        }
        pr.update_priorities(&[4, 9], &[3.0, 7.0]);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        pr.sample_indices_into(32, 16, &mut StdRng::seed_from_u64(42), &mut a);
        pr.sample_indices_into(32, 16, &mut StdRng::seed_from_u64(42), &mut b);
        assert_eq!(a.len(), 16);
        assert_eq!(a, b);
    }

    #[test]
    fn sampler_uniform_matches_raw_buffer_draws_and_carries_no_weights() {
        let mut buf = ReplayBuffer::with_dims(32, 1, 1);
        for i in 0..32 {
            buf.push(t(i as f64));
        }
        let par = Parallelism::sequential();
        let mut sampler = ReplaySampler::new(ReplayStrategy::Uniform, 32);
        let direct = draw(&buf, 8, &mut StdRng::seed_from_u64(9)).unwrap();
        let mut sampled = SampledBatch::scratch();
        assert!(sampler.sample_into(&buf, 8, &mut StdRng::seed_from_u64(9), &par, &mut sampled));
        assert_eq!(sampled.batch, direct, "one shared uniform draw path");
        assert!(sampled.weights.is_none());
        for underflow in [0, 64] {
            let mut rng = StdRng::seed_from_u64(9);
            assert!(!sampler.sample_into(&buf, underflow, &mut rng, &par, &mut sampled));
            assert_eq!(rng, StdRng::seed_from_u64(9), "no draws on underflow");
            assert_eq!(sampled.batch, direct, "scratch untouched");
        }
    }

    #[test]
    fn sampler_prioritized_rows_match_their_drawn_slots() {
        let cap = 16;
        let mut buf = ReplayBuffer::with_dims(cap, 1, 1);
        let mut sampler = ReplaySampler::new(
            ReplayStrategy::Prioritized(PrioritizedConfig::default()),
            cap,
        );
        assert!(sampler.is_prioritized());
        for i in 0..cap {
            let slot = buf.push(t(i as f64));
            sampler.on_insert(slot);
        }
        let par = Parallelism::with_workers(2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = SampledBatch::scratch();
        assert!(sampler.sample_into(&buf, 6, &mut rng, &par, &mut s));
        let w = s.weights.as_ref().expect("prioritized carries weights");
        assert_eq!(w.len(), 6);
        for (k, &slot) in s.indices.iter().enumerate() {
            assert_eq!(
                s.batch.rewards()[k],
                slot as f64,
                "row {k} gathers slot {slot}"
            );
        }
        // TD feedback shifts mass deterministically.
        sampler.update_priorities(&s.indices, &[10.0; 6]);
        if let ReplaySampler::Prioritized(p) = &sampler {
            assert!(p.priority(s.indices[0]) > 1.0);
        }
    }
}
