//! The repository benchmark: simulated MIPS of the `mlpwin` simulator
//! on two workloads (`ilp`, `mlp`), each result
//! checked against the single-stepped reference, plus a traced run that
//! breaks host time down by layer. See `README.md` next to this crate.

pub mod check;
pub mod inproc;
pub mod layers;
pub mod service;
pub mod stats;
pub mod suite;
pub mod wrap;

/// Serializes the tests that simulate: the reference computation flips
/// a process-wide environment switch.
#[cfg(test)]
pub(crate) fn sim_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
