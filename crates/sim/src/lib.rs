//! Planar rigid-body physics engine — the MuJoCo substitute of the FIXAR
//! reproduction.
//!
//! The paper evaluates FIXAR on MuJoCo locomotion tasks (HalfCheetah,
//! Hopper, Swimmer) with the environment emulated on the host CPU. MuJoCo
//! is proprietary-grade C we do not reimplement verbatim; instead this
//! crate provides a deterministic 2-D articulated rigid-body simulator
//! with the ingredients those tasks need:
//!
//! * maximal-coordinate [`RigidBody`]s (position, angle, velocities) with
//!   capsule/box/circle shapes and consistent mass properties,
//! * [`RevoluteJoint`]s solved by velocity-level **sequential impulses**
//!   with Baumgarte position stabilization, plus torque motors and soft
//!   angle limits,
//! * penalty-based ground contact with Coulomb-clamped friction (MuJoCo
//!   itself uses soft contacts),
//! * optional linear/angular damping and per-body viscous fluid drag
//!   (the Swimmer medium),
//! * a fixed-timestep, deterministic [`World::step`], and
//!   [`World::step_lockstep`], which steps many worlds of one topology
//!   at once.
//!
//! Determinism matters: FIXAR's precision study compares four training
//! runs that must see identical environments given identical action
//! streams.
//!
//! On a 64-environment fleet the simulator is the largest layer of a
//! training step. A step derives pose-only terms once into reused
//! scratch and allocates nothing. Its joint solve is one kernel over
//! `[f64; L]` lanes, one world per lane: [`World::step`] runs it on one
//! lane, [`World::step_lockstep`] on eight worlds at a time, so the
//! paper's intra-batch parallelism reaches the host side as SIMD lanes
//! on one core. Every world's bits are those of stepping it alone. A
//! test-only reference stepper, which re-derives every term at every
//! use and solves one world at a time, pins both entries bit for bit.
//!
//! # Example
//!
//! ```
//! use fixar_sim::{BodyDef, Shape, Vec2, World, WorldConfig};
//!
//! let mut world = World::new(WorldConfig::default());
//! let ball = world.add_body(
//!     BodyDef::dynamic(1.0, Shape::Circle { radius: 0.1 })
//!         .at(Vec2::new(0.0, 1.0)),
//! );
//! for _ in 0..1000 {
//!     world.step();
//! }
//! // The ball fell and now rests on the ground near y = radius.
//! let y = world.body(ball).position().y;
//! assert!(y > 0.0 && y < 0.2, "y={y}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod body;
mod joint;
mod vec2;
mod world;

pub use body::{BodyDef, BodyHandle, RigidBody, Shape};
pub use joint::{JointDef, JointHandle, RevoluteJoint};
pub use vec2::Vec2;
pub use world::{World, WorldConfig};
