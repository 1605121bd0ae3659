//! The float-guard instrumentation behind the artifact's no-float contract.
//!
//! The interpreter in this crate claims to execute **zero** floating-point
//! operations. That claim is enforced twice: statically (the walk it runs,
//! `fixar_fixed::WALK_SOURCE`, passes [`crate::verify_generated_source`]'s
//! float-token gate) and dynamically through this module. Every function in `fixar-deploy` that performs floating-point
//! arithmetic — export-time quantizer freezing, the `f64` convenience
//! wrapper around inference — calls [`float_op`] first. The integer-only
//! entry point ([`crate::PolicyArtifact::infer_raw`]) arms a
//! [`NoFloatZone`] for the duration of the walk, so with the
//! `deploy-float-guard` cargo feature enabled, any float helper reached
//! from inside it panics immediately.
//!
//! Without the feature the hooks compile to no-ops, so production builds
//! pay nothing.
//!
//! # Example
//!
//! ```
//! use fixar_deploy::guard::{self, NoFloatZone};
//!
//! assert!(!guard::is_active());
//! let zone = NoFloatZone::enter();
//! // With `deploy-float-guard` enabled, any instrumented float helper
//! // called here would panic; `is_active` reports whether the tripwire
//! // is armed.
//! assert_eq!(guard::is_active(), cfg!(feature = "deploy-float-guard"));
//! drop(zone);
//! assert!(!guard::is_active());
//! ```

use std::cell::Cell;

thread_local! {
    static ARMED: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard arming the no-float tripwire on the current thread.
///
/// Zones nest; the tripwire disarms when the last zone on the thread
/// drops. Arming is per-thread by design: parallel callers each arm their
/// own worker, so a float operation on an unrelated thread never trips a
/// zone it did not enter.
#[derive(Debug)]
pub struct NoFloatZone {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl NoFloatZone {
    /// Arms the tripwire for the current thread until the zone drops.
    pub fn enter() -> Self {
        ARMED.with(|a| a.set(a.get() + 1));
        Self {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for NoFloatZone {
    fn drop(&mut self) {
        ARMED.with(|a| a.set(a.get() - 1));
    }
}

/// `true` when a [`NoFloatZone`] is armed on this thread **and** the
/// `deploy-float-guard` feature is compiled in (without the feature the
/// tripwire never fires, so it reports inactive).
pub fn is_active() -> bool {
    cfg!(feature = "deploy-float-guard") && ARMED.with(|a| a.get()) > 0
}

/// Instrumentation hook: declares that the caller is about to perform
/// floating-point arithmetic.
///
/// No-op unless the `deploy-float-guard` feature is enabled and a
/// [`NoFloatZone`] is armed on this thread — then it panics, naming the
/// operation, because a float op inside the zone falsifies the artifact's
/// integer-only contract.
#[inline]
pub fn float_op(what: &str) {
    #[cfg(feature = "deploy-float-guard")]
    {
        if ARMED.with(|a| a.get()) > 0 {
            panic!("floating-point operation inside a no-float zone: {what}");
        }
    }
    #[cfg(not(feature = "deploy-float-guard"))]
    {
        let _ = what;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_nest_and_disarm() {
        assert!(!is_active());
        {
            let _outer = NoFloatZone::enter();
            let inner = NoFloatZone::enter();
            assert_eq!(is_active(), cfg!(feature = "deploy-float-guard"));
            drop(inner);
            assert_eq!(is_active(), cfg!(feature = "deploy-float-guard"));
        }
        assert!(!is_active());
    }

    #[test]
    fn hook_is_silent_outside_a_zone() {
        // Must never panic when no zone is armed, feature or not.
        float_op("unit test probe");
    }

    #[cfg(feature = "deploy-float-guard")]
    #[test]
    fn hook_panics_inside_a_zone_when_armed() {
        let _zone = NoFloatZone::enter();
        let err = std::panic::catch_unwind(|| float_op("unit test probe")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("no-float zone"), "unexpected panic: {msg}");
    }
}
