//! Differential pin for [`World::step`]: a reference stepper written the
//! way the step was before its pose-derived terms were hoisted — one
//! `world_point` (one `sin_cos`) per contact point and joint anchor, and
//! each joint's geometry rebuilt inside every solver iteration — run
//! side by side with `World::step` in one process and compared bit for
//! bit on every body after every step. Both sides call the same libm in
//! the same binary, so the verdict does not depend on the host.
//!
//! A `World::step` that reuses joint geometry across steps (built once
//! per control step instead of once per substep) fails every scene here.

use super::*;
use crate::body::Shape;

/// The pre-hoist `World::step`, operation for operation.
fn reference_step(w: &mut World) {
    let cfg = w.config;

    // 1. External forces.
    for body in &mut w.bodies {
        if body.is_static() {
            continue;
        }
        let m = 1.0 / body.inv_mass;
        body.apply_force(Vec2::new(0.0, -cfg.gravity * m));
    }
    for j in &w.joints {
        let (a, b) = borrow_two(&mut w.bodies, j.def.body_a.0, j.def.body_b.0);
        j.apply_torques(a, b, cfg.limit_stiffness, cfg.limit_damping);
    }
    if cfg.ground_enabled {
        for body in &mut w.bodies {
            if body.is_static() {
                continue;
            }
            let shape = body.shape();
            let radius = shape.contact_radius();
            for local in shape.contact_points() {
                let p = body.world_point(local);
                let surface_y = p.y - radius;
                let penetration = cfg.ground_y - surface_y;
                if penetration <= 0.0 {
                    continue;
                }
                let v = body.velocity_at(p);
                let normal_force =
                    (cfg.contact_stiffness * penetration - cfg.contact_damping * v.y).max(0.0);
                let max_friction = cfg.friction * normal_force;
                let tangential =
                    (-cfg.contact_stiffness * 0.1 * v.x).clamp(-max_friction, max_friction);
                body.apply_force_at(Vec2::new(tangential, normal_force), p);
            }
        }
    }
    if cfg.fluid_drag_perp > 0.0 || cfg.fluid_drag_par > 0.0 {
        for body in &mut w.bodies {
            if body.is_static() {
                continue;
            }
            let axis = Vec2::new(1.0, 0.0).rotated(body.angle());
            for local in body.shape().contact_points() {
                let p = body.world_point(local);
                let v = body.velocity_at(p);
                let v_par = axis * v.dot(axis);
                let v_perp = v - v_par;
                let drag = -(v_perp * cfg.fluid_drag_perp) - (v_par * cfg.fluid_drag_par);
                body.apply_force_at(drag, p);
            }
            let spin = body.angular_velocity();
            body.apply_torque(-cfg.fluid_drag_perp * 0.05 * spin);
        }
    }

    // 2. Integrate velocities and apply damping.
    let lin_decay = 1.0 / (1.0 + cfg.dt * cfg.linear_damping);
    let ang_decay = 1.0 / (1.0 + cfg.dt * cfg.angular_damping);
    for body in &mut w.bodies {
        if body.is_static() {
            body.force = Vec2::ZERO;
            body.torque = 0.0;
            continue;
        }
        body.velocity += body.force * (body.inv_mass * cfg.dt);
        body.angular_velocity += body.torque * (body.inv_inertia * cfg.dt);
        body.velocity = body.velocity * lin_decay;
        body.angular_velocity *= ang_decay;
        body.force = Vec2::ZERO;
        body.torque = 0.0;
    }

    // 3. Sequential-impulse joint solve, geometry rebuilt per iteration.
    let bias = cfg.baumgarte / cfg.dt;
    for _ in 0..cfg.solver_iterations {
        for j in &w.joints {
            let (a, b) = borrow_two(&mut w.bodies, j.def.body_a.0, j.def.body_b.0);
            solve_velocity(j, a, b, bias);
        }
    }

    // 4. Integrate positions.
    for body in &mut w.bodies {
        if body.is_static() {
            continue;
        }
        body.position += body.velocity * cfg.dt;
        body.angle += body.angular_velocity * cfg.dt;
    }
    w.time += cfg.dt;
    w.steps += 1;
}

/// The pre-hoist `RevoluteJoint::solve_velocity`.
fn solve_velocity(j: &RevoluteJoint, a: &mut RigidBody, b: &mut RigidBody, bias: f64) {
    let pa = a.world_point(j.def.local_anchor_a);
    let pb = b.world_point(j.def.local_anchor_b);
    let ra = pa - a.position;
    let rb = pb - b.position;
    let k11 = a.inv_mass + b.inv_mass + a.inv_inertia * ra.y * ra.y + b.inv_inertia * rb.y * rb.y;
    let k12 = -a.inv_inertia * ra.x * ra.y - b.inv_inertia * rb.x * rb.y;
    let k22 = a.inv_mass + b.inv_mass + a.inv_inertia * ra.x * ra.x + b.inv_inertia * rb.x * rb.x;
    let det = k11 * k22 - k12 * k12;
    if det.abs() < 1e-12 {
        return;
    }
    let vel_err = (b.velocity + Vec2::cross_scalar(b.angular_velocity, rb))
        - (a.velocity + Vec2::cross_scalar(a.angular_velocity, ra));
    let c = pb - pa;
    let rhs = -(vel_err + c * bias);
    let p = Vec2::new(
        (k22 * rhs.x - k12 * rhs.y) / det,
        (k11 * rhs.y - k12 * rhs.x) / det,
    );
    a.apply_impulse_at(-p, pa);
    b.apply_impulse_at(p, pb);
}

/// SplitMix64 draws in `[0, 1)`: the scenes' seeded jitter and torques.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn symmetric(&mut self, half_width: f64) -> f64 {
        (2.0 * self.next() - 1.0) * half_width
    }
}

const STEPS: usize = 2000;
/// Substeps per control step, as in the locomotion environments.
const SUBSTEPS: usize = 10;

/// Jitters every dynamic body's state, then steps `world` and its clone
/// — the one through `World::step`, the other through `reference_step` —
/// with fresh seeded motor torques every control step and a mid-run
/// reset, comparing every body bit for bit after every step.
fn assert_pinned(mut world: World, seed: u64) {
    let mut draws = Draws(seed);
    let jitter = |world: &mut World, draws: &mut Draws| {
        for i in 0..world.body_count() {
            let body = world.body_mut(BodyHandle(i));
            if body.is_static() {
                continue;
            }
            let p = body.position() + Vec2::new(draws.symmetric(0.01), draws.symmetric(0.01));
            let angle = body.angle() + draws.symmetric(0.05);
            let v = Vec2::new(draws.symmetric(0.5), draws.symmetric(0.5));
            body.set_state(p, angle, v, draws.symmetric(1.0));
        }
    };
    jitter(&mut world, &mut draws);
    let mut reference = world.clone();
    for step in 0..STEPS {
        if step % SUBSTEPS == 0 {
            for ji in 0..world.joint_count() {
                // Past the budget a fifth of the time: the clamp is pinned too.
                let torque = draws.symmetric(1.25) * world.joints[ji].def.max_motor_torque;
                world.set_motor_torque(JointHandle(ji), torque);
                reference.set_motor_torque(JointHandle(ji), torque);
            }
        }
        if step == STEPS / 2 {
            let mut reset = Draws(seed ^ 1);
            jitter(&mut world, &mut reset);
            let mut reset = Draws(seed ^ 1);
            jitter(&mut reference, &mut reset);
        }
        world.step();
        reference_step(&mut reference);
        for (i, (got, want)) in world.bodies.iter().zip(&reference.bodies).enumerate() {
            let bits = |b: &RigidBody| {
                [
                    b.position.x,
                    b.position.y,
                    b.angle,
                    b.velocity.x,
                    b.velocity.y,
                    b.angular_velocity,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(got), bits(want), "body {i} diverged at step {step}");
        }
    }
    assert_eq!(world.time().to_bits(), reference.time().to_bits());
    assert!(world.kinetic_energy().is_finite());
}

/// Torso with two thigh–shin–foot legs (limits, springs, motors) on the
/// ground, plus a box and a circle so every contact shape is sampled.
fn cheetah_scene() -> World {
    let mut w = World::new(WorldConfig::default());
    let torso_y = 0.85;
    let capsule = |half_len| Shape::Capsule {
        half_len,
        radius: 0.046,
    };
    let torso = w.add_body(BodyDef::dynamic(7.0, capsule(0.5)).at(Vec2::new(0.0, torso_y)));
    for (hip_x, gears) in [(-0.5, [50.0, 35.0, 20.0]), (0.5, [50.0, 30.0, 15.0])] {
        let (mut parent, mut anchor, mut top_y) = (torso, Vec2::new(hip_x, 0.0), torso_y);
        let segments = [
            (0.145, 1.5, 35.0, 1.2),
            (0.15, 1.0, 25.0, 1.0),
            (0.094, 0.5, 12.0, 0.6),
        ];
        for ((half_len, mass, stiffness, damping), gear) in segments.into_iter().zip(gears) {
            let seg = w.add_body(
                BodyDef::dynamic(mass, capsule(half_len))
                    .at(Vec2::new(hip_x, top_y - half_len))
                    .rotated(-std::f64::consts::FRAC_PI_2),
            );
            w.add_joint(
                JointDef::new(parent, seg, anchor, Vec2::new(-half_len, 0.0))
                    .with_limits(-1.0, 1.0)
                    .with_motor(gear)
                    .with_spring(stiffness, damping),
            );
            (parent, anchor, top_y) = (seg, Vec2::new(half_len, 0.0), top_y - 2.0 * half_len);
        }
    }
    let head = w.add_body(
        BodyDef::dynamic(0.8, Shape::Box { hx: 0.1, hy: 0.06 }).at(Vec2::new(0.62, torso_y)),
    );
    w.add_joint(
        JointDef::new(torso, head, Vec2::new(0.5, 0.0), Vec2::new(-0.1, 0.0))
            .with_limits(-0.3, 0.3)
            .with_spring(20.0, 0.5),
    );
    w.add_body(BodyDef::dynamic(0.3, Shape::Circle { radius: 0.08 }).at(Vec2::new(1.5, 0.5)));
    w
}

/// A joint between two static bodies (singular effective mass: skipped
/// by the solver) next to a pendulum hung from a tilted static pivot.
fn static_pair_scene() -> World {
    let mut w = World::new(WorldConfig::default());
    let wall = w.add_body(BodyDef::fixed(Shape::Box { hx: 0.2, hy: 1.0 }).at(Vec2::new(-1.0, 1.0)));
    let pivot = w.add_body(
        BodyDef::fixed(Shape::Circle { radius: 0.02 })
            .at(Vec2::new(0.0, 1.5))
            .rotated(0.3),
    );
    w.add_joint(JointDef::new(wall, pivot, Vec2::new(0.2, 0.5), Vec2::ZERO).with_motor(10.0));
    let bob = w.add_body(
        BodyDef::dynamic(
            1.0,
            Shape::Capsule {
                half_len: 0.4,
                radius: 0.05,
            },
        )
        .at(Vec2::new(0.4, 1.5)),
    );
    w.add_joint(
        JointDef::new(pivot, bob, Vec2::new(0.05, 0.0), Vec2::new(-0.4, 0.0)).with_motor(20.0),
    );
    w
}

/// The Swimmer's medium: no gravity, no ground, anisotropic drag, three
/// capsule links with limited, motorised joints.
fn swimmer_scene() -> World {
    let mut w = World::new(WorldConfig {
        gravity: 0.0,
        ground_enabled: false,
        linear_damping: 0.0,
        angular_damping: 0.0,
        fluid_drag_perp: 4.0,
        fluid_drag_par: 0.15,
        ..WorldConfig::default()
    });
    let links: Vec<_> = (0..3)
        .map(|i| {
            w.add_body(
                BodyDef::dynamic(
                    1.0,
                    Shape::Capsule {
                        half_len: 0.5,
                        radius: 0.05,
                    },
                )
                .at(Vec2::new(-(i as f64), 0.0)),
            )
        })
        .collect();
    for pair in links.windows(2) {
        w.add_joint(
            JointDef::new(pair[0], pair[1], Vec2::new(-0.5, 0.0), Vec2::new(0.5, 0.0))
                .with_limits(-1.7, 1.7)
                .with_motor(6.0),
        );
    }
    w
}

#[test]
fn cheetah_chain_steps_bit_identically_to_the_reference() {
    for seed in [12, 13] {
        assert_pinned(cheetah_scene(), seed);
    }
}

#[test]
fn static_pair_steps_bit_identically_to_the_reference() {
    assert_pinned(static_pair_scene(), 7);
}

#[test]
fn swimmer_in_fluid_steps_bit_identically_to_the_reference() {
    for seed in [12, 13] {
        assert_pinned(swimmer_scene(), seed);
    }
}
