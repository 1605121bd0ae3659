//! The sequential-impulse joint solve, run on `L` worlds at once.
//!
//! A fleet steps many worlds of one morphology, and the solve is the
//! same arithmetic in every one of them. [`SolveLanes`] gathers each
//! body's velocities and mass properties and each joint's geometry into
//! `[f64; L]` lanes, one world per lane, runs every iteration over every
//! joint on the lanes, and scatters the velocities back. Lane `l` does
//! exactly the operations the one-world solve would, in the same order,
//! so every world's bits are those of stepping it alone; the lanes only
//! let the compiler issue `L` worlds' operations as one vector op.

use super::{borrow_two, World};

/// Worlds per lane group of [`World::step_lockstep`]. Chosen by
/// measurement on a 64-world HalfCheetah fleet (traced `env.step_us` on
/// a 2-core AVX-512 Xeon: 5.1–5.8 µs at 8 lanes, 7.2–8.2 µs at 4, where
/// the compiler left the kernel scalar).
pub(super) const LANES: usize = 8;

/// One body's solver inputs and outputs across the lanes.
#[derive(Debug, Clone, Copy)]
struct BodyLanes<const L: usize> {
    vx: [f64; L],
    vy: [f64; L],
    w: [f64; L],
    inv_mass: [f64; L],
    inv_inertia: [f64; L],
}

/// One joint's geometry across the lanes. A lane whose joint is
/// singular is not `live`: its bodies keep their velocities.
#[derive(Debug, Clone, Copy)]
struct JointLanes<const L: usize> {
    a: usize,
    b: usize,
    live: [bool; L],
    rax: [f64; L],
    ray: [f64; L],
    rbx: [f64; L],
    rby: [f64; L],
    k11: [f64; L],
    k12: [f64; L],
    k22: [f64; L],
    det: [f64; L],
    bias_x: [f64; L],
    bias_y: [f64; L],
}

/// The lanes of one group of `L` worlds. Kept between steps, so a warm
/// solve allocates nothing.
#[derive(Debug, Clone, Default)]
pub(super) struct SolveLanes<const L: usize> {
    bodies: Vec<BodyLanes<L>>,
    joints: Vec<JointLanes<L>>,
}

impl<const L: usize> SolveLanes<L> {
    /// Solves the joints of exactly `L` worlds whose phase 2 and joint
    /// geometry are done: gather, `iterations` passes over the joints in
    /// order, scatter.
    pub(super) fn solve(&mut self, worlds: &mut [&mut World], iterations: usize) {
        assert_eq!(worlds.len(), L, "a lane group holds one world per lane");
        self.gather(worlds);
        for _ in 0..iterations {
            for j in &self.joints {
                let (a, b) = borrow_two(&mut self.bodies, j.a, j.b);
                impulse(j, a, b);
            }
        }
        for (l, w) in worlds.iter_mut().enumerate() {
            for (body, lanes) in w.bodies.iter_mut().zip(&self.bodies) {
                body.velocity.x = lanes.vx[l];
                body.velocity.y = lanes.vy[l];
                body.angular_velocity = lanes.w[l];
            }
        }
    }

    fn gather(&mut self, worlds: &[&mut World]) {
        let zero = [0.0; L];
        self.bodies.resize(
            worlds[0].bodies.len(),
            BodyLanes {
                vx: zero,
                vy: zero,
                w: zero,
                inv_mass: zero,
                inv_inertia: zero,
            },
        );
        self.joints.resize(
            worlds[0].joints.len(),
            JointLanes {
                a: 0,
                b: 0,
                live: [false; L],
                rax: zero,
                ray: zero,
                rbx: zero,
                rby: zero,
                k11: zero,
                k12: zero,
                k22: zero,
                det: zero,
                bias_x: zero,
                bias_y: zero,
            },
        );
        for (l, w) in worlds.iter().enumerate() {
            for (lanes, body) in self.bodies.iter_mut().zip(&w.bodies) {
                lanes.vx[l] = body.velocity.x;
                lanes.vy[l] = body.velocity.y;
                lanes.w[l] = body.angular_velocity;
                lanes.inv_mass[l] = body.inv_mass;
                lanes.inv_inertia[l] = body.inv_inertia;
            }
            for ((lanes, joint), g) in self.joints.iter_mut().zip(&w.joints).zip(&w.geometry) {
                lanes.a = joint.def.body_a.0;
                lanes.b = joint.def.body_b.0;
                lanes.live[l] = g.is_some();
                // A singular lane's words are never kept, whatever they are.
                let g = g.unwrap_or_default();
                lanes.rax[l] = g.ra.x;
                lanes.ray[l] = g.ra.y;
                lanes.rbx[l] = g.rb.x;
                lanes.rby[l] = g.rb.y;
                lanes.k11[l] = g.k11;
                lanes.k12[l] = g.k12;
                lanes.k22[l] = g.k22;
                lanes.det[l] = g.det;
                lanes.bias_x[l] = g.bias.x;
                lanes.bias_y[l] = g.bias.y;
            }
        }
    }
}

/// One velocity-level sequential-impulse iteration of one point-to-point
/// joint with Baumgarte position feedback, on every lane: solve
/// `K·p = −(v_err + bias)` and apply `−p` to body `a` at `ra` and `p` to
/// body `b` at `rb`. The lever arms are the geometry's `ra` / `rb`, the
/// words `RigidBody::apply_impulse_at` would recompute as
/// `anchor − position` (no position moves during the solve).
#[inline(always)]
fn impulse<const L: usize>(j: &JointLanes<L>, a: &mut BodyLanes<L>, b: &mut BodyLanes<L>) {
    for l in 0..L {
        // v_err = (v_b + w_b × r_b) − (v_a + w_a × r_a)
        let ex = (b.vx[l] + -b.w[l] * j.rby[l]) - (a.vx[l] + -a.w[l] * j.ray[l]);
        let ey = (b.vy[l] + b.w[l] * j.rbx[l]) - (a.vy[l] + a.w[l] * j.rax[l]);
        let rhs_x = -(ex + j.bias_x[l]);
        let rhs_y = -(ey + j.bias_y[l]);
        let px = (j.k22[l] * rhs_x - j.k12[l] * rhs_y) / j.det[l];
        let py = (j.k11[l] * rhs_y - j.k12[l] * rhs_x) / j.det[l];
        let (qx, qy) = (-px, -py);
        let avx = a.vx[l] + qx * a.inv_mass[l];
        let avy = a.vy[l] + qy * a.inv_mass[l];
        let aw = a.w[l] + (j.rax[l] * qy - j.ray[l] * qx) * a.inv_inertia[l];
        let bvx = b.vx[l] + px * b.inv_mass[l];
        let bvy = b.vy[l] + py * b.inv_mass[l];
        let bw = b.w[l] + (j.rbx[l] * py - j.rby[l] * px) * b.inv_inertia[l];
        let live = j.live[l];
        a.vx[l] = if live { avx } else { a.vx[l] };
        a.vy[l] = if live { avy } else { a.vy[l] };
        a.w[l] = if live { aw } else { a.w[l] };
        b.vx[l] = if live { bvx } else { b.vx[l] };
        b.vy[l] = if live { bvy } else { b.vy[l] };
        b.w[l] = if live { bw } else { b.w[l] };
    }
}
