//! Timing wrappers around the two objects the benchmark hands to
//! `Core`, and the run body they go through.
//!
//! The core is generic over its [`Workload`] and takes its
//! [`WindowPolicy`] as a trait object, so the benchmark can measure the
//! generator and the resize policy without any hook inside the program:
//! it wraps them. Each wrapper forwards every trait method — a wrapper
//! that dropped `quiet_until` would silently turn the stall
//! fast-forward off, one that dropped `save_state` would break
//! snapshots — and the tests below prove a wrapped run is identical to
//! `runner::run`, skip schedule included.

use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::{Cycle, Instruction};
use mlpwin_ooo::{Core, WakeSource, WindowPolicy};
use mlpwin_sim::runner::{RunResult, RunSpec};
use mlpwin_sim::SimError;
use mlpwin_workloads::{profiles, ProfileWorkload, Workload};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

/// Call count and host nanoseconds spent inside one wrapped layer.
#[derive(Debug, Default)]
pub struct LayerClock {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl LayerClock {
    /// A shared, zeroed clock.
    pub fn shared() -> Rc<LayerClock> {
        Rc::new(LayerClock::default())
    }

    fn charge(&self, since: Instant) {
        self.calls.set(self.calls.get() + 1);
        self.nanos
            .set(self.nanos.get() + since.elapsed().as_nanos() as u64);
    }

    /// Calls charged so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Nanoseconds charged so far.
    pub fn nanos(&self) -> u64 {
        self.nanos.get()
    }
}

/// A workload whose `next_inst` calls are counted and timed.
pub struct TimedWorkload<W> {
    inner: W,
    clock: Rc<LayerClock>,
}

impl<W> TimedWorkload<W> {
    /// Wraps `inner`, charging its `next_inst` calls to `clock`.
    pub fn new(inner: W, clock: Rc<LayerClock>) -> TimedWorkload<W> {
        TimedWorkload { inner, clock }
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_inst(&mut self) -> Instruction {
        let t = Instant::now();
        let inst = self.inner.next_inst();
        self.clock.charge(t);
        inst
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// A workload that busy-waits a fixed time in every `next_inst` call:
/// a known slowdown of the generator layer, for the sensitivity check.
/// The wait is a calibrated arithmetic loop rather than a clock poll, so
/// even a few nanoseconds can be added.
pub struct SlowWorkload<W> {
    inner: W,
    spins: u64,
}

impl<W> SlowWorkload<W> {
    /// Wraps `inner`, adding about `delay_ns` of spinning to each call
    /// (0 adds nothing).
    pub fn new(inner: W, delay_ns: u64) -> SlowWorkload<W> {
        let spins = if delay_ns == 0 {
            0
        } else {
            (delay_ns as f64 * spins_per_ns()).round().max(1.0) as u64
        };
        SlowWorkload { inner, spins }
    }
}

/// Iterations of [`spin`] per nanosecond on this host, measured once.
fn spins_per_ns() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        const N: u64 = 20_000_000;
        let t = Instant::now();
        spin(N);
        N as f64 / t.elapsed().as_nanos().max(1) as f64
    })
}

fn spin(iters: u64) {
    let mut x = 0u64;
    for i in 0..iters {
        x = std::hint::black_box(x.wrapping_add(i));
    }
}

impl<W: Workload> Workload for SlowWorkload<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_inst(&mut self) -> Instruction {
        spin(self.spins);
        self.inner.next_inst()
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// A window policy whose queries are counted and timed, and whose
/// completed transitions are counted.
pub struct TimedPolicy {
    inner: Box<dyn WindowPolicy>,
    clock: Rc<LayerClock>,
    transitions: Rc<Cell<u64>>,
}

impl TimedPolicy {
    /// Wraps `inner`, charging `target_level`/`quiet_until` calls to
    /// `clock` and counting `on_transition` calls in `transitions`.
    pub fn new(
        inner: Box<dyn WindowPolicy>,
        clock: Rc<LayerClock>,
        transitions: Rc<Cell<u64>>,
    ) -> TimedPolicy {
        TimedPolicy {
            inner,
            clock,
            transitions,
        }
    }
}

impl WindowPolicy for TimedPolicy {
    fn target_level(
        &mut self,
        now: Cycle,
        l2_demand_misses: u32,
        current_level: usize,
        max_level: usize,
    ) -> usize {
        let t = Instant::now();
        let level = self
            .inner
            .target_level(now, l2_demand_misses, current_level, max_level);
        self.clock.charge(t);
        level
    }

    fn on_transition(&mut self, now: Cycle, old_level: usize, new_level: usize) {
        self.transitions.set(self.transitions.get() + 1);
        self.inner.on_transition(now, old_level, new_level);
    }

    fn quiet_until(&self, now: Cycle, current_level: usize) -> Cycle {
        let t = Instant::now();
        let until = self.inner.quiet_until(now, current_level);
        self.clock.charge(t);
        until
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// Host seconds of the run phases `runner::run` goes through, less the
/// time spent inside the wrappers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Profile compile, model build and `Core::try_new`.
    pub build_s: f64,
    /// `Core::run_warmup`.
    pub warmup_s: f64,
    /// `Core::run`.
    pub measure_s: f64,
}

/// Everything one run through [`execute`] reports.
pub struct Executed {
    /// The run's result, equal to what `runner::run` returns.
    pub result: RunResult,
    /// Host time per phase.
    pub phases: Phases,
    /// How many coasts each wake source ended.
    pub wake: [u64; WakeSource::COUNT],
    /// Lifetime simulated cycles, warm-up included.
    pub sim_cycles: u64,
    /// Measured-window L2 demand misses.
    pub l2_misses: u64,
    /// Measured-window L1D accesses.
    pub l1d_accesses: u64,
}

/// The engine switches `runner::run` reads from the environment: the
/// single-stepped loop and the event-driven wake plan.
pub const ENGINE_SWITCHES: [&str; 2] = [crate::check::NO_FAST_FORWARD, "MLPWIN_EVENT_DRIVEN"];

/// The body of `runner::run` for a plain spec (no fault, watchdog,
/// deadline or interval overrides), with the workload and the policy
/// passed through the given wrappers: the same calls in the same order —
/// `profiles::by_name`, `SimModel::build`, `Core::try_new`,
/// `run_warmup`, `run` — timed one by one. The engine follows
/// [`ENGINE_SWITCHES`] as `runner::run` does, so a traced run describes
/// the engine the untraced run uses. `wrapped_ns` reports the
/// nanoseconds the wrappers have spent so far; each phase is charged net
/// of the wrapper time inside it, so it is the `ooo` layer's self time.
///
/// # Errors
///
/// The same taxonomy as `runner::run`.
pub fn execute<W: Workload>(
    spec: &RunSpec,
    wrap_workload: impl FnOnce(ProfileWorkload) -> W,
    wrap_policy: impl FnOnce(Box<dyn WindowPolicy>) -> Box<dyn WindowPolicy>,
    wrapped_ns: impl Fn() -> u64,
) -> Result<Executed, SimError> {
    let t0 = Instant::now();
    let params = profiles::params_by_name(&spec.profile)?;
    assert!(
        spec.fault.is_none()
            && spec.watchdog_cycles.is_none()
            && spec.deadline_cycles.is_none()
            && spec.interval_cycles.is_none(),
        "execute takes plain specs only: {spec:?}"
    );
    let (mut config, policy) = spec.model.build();
    let [no_fast_forward, event_driven] = ENGINE_SWITCHES.map(|v| std::env::var_os(v).is_some());
    config.fast_forward &= !no_fast_forward;
    config.event_driven |= event_driven;
    let workload = profiles::by_name(&spec.profile, spec.seed)?;
    let levels = config.levels.clone();
    let mut core = Core::try_new(config, wrap_workload(workload), wrap_policy(policy))?;
    let (t1, n1) = (Instant::now(), wrapped_ns());
    if spec.warmup > 0 {
        core.run_warmup(spec.warmup)?;
    }
    let (t2, n2) = (Instant::now(), wrapped_ns());
    let stats = core.run(spec.insts)?;
    let (t3, n3) = (Instant::now(), wrapped_ns());
    let net = |wall: std::time::Duration, ns: u64| wall.as_secs_f64() - ns as f64 * 1e-9;
    let phases = Phases {
        build_s: (t1 - t0).as_secs_f64(),
        warmup_s: net(t2 - t1, n2 - n1),
        measure_s: net(t3 - t2, n3 - n2),
    };
    core.mem_mut().finalize();
    let mem = core.mem();
    let l1d_accesses = mem.l1d().stats().hits + mem.l1d().stats().misses;
    let result = RunResult {
        spec: spec.clone(),
        category: params.category,
        predictor: core.predictor().stats().clone(),
        provenance: *mem.provenance(),
        l2_miss_cycles: mem.stats().l2_demand_miss_cycles.clone(),
        l1_accesses: l1d_accesses + mem.l1i().stats().hits + mem.l1i().stats().misses,
        l2_accesses: mem.l2().stats().hits + mem.l2().stats().misses,
        dram_lines: mem.dram().stats().requests,
        avg_load_latency: stats.avg_load_latency(),
        levels,
        stats,
        engine: core.engine_counters(),
    };
    Ok(Executed {
        phases,
        wake: *core.wake_histogram(),
        sim_cycles: core.cycle(),
        l2_misses: mem.l2().stats().misses,
        l1d_accesses,
        result,
    })
}

/// Runs `spec` with the generator slowed by `delay_ns` per instruction.
///
/// # Errors
///
/// The same taxonomy as `runner::run`.
pub fn run_slowed(spec: &RunSpec, delay_ns: u64) -> Result<RunResult, SimError> {
    execute(spec, |w| SlowWorkload::new(w, delay_ns), |p| p, || 0).map(|e| e.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpwin_sim::journal::encode_line;
    use mlpwin_sim::runner::run;
    use mlpwin_sim::SimModel;

    /// A wrapped run must equal the unwrapped one in every result field
    /// *and* in the skip schedule: `RunResult` equality ignores engine
    /// counters, and a dropped `quiet_until` would only show there.
    fn assert_wrapping_is_invisible(spec: &RunSpec) {
        let plain = run(spec).expect("plain run");
        let (wl, pol, tr) = (
            LayerClock::shared(),
            LayerClock::shared(),
            Rc::new(Cell::new(0)),
        );
        let timed = execute(
            spec,
            |w| TimedWorkload::new(SlowWorkload::new(w, 0), Rc::clone(&wl)),
            |p| Box::new(TimedPolicy::new(p, Rc::clone(&pol), Rc::clone(&tr))),
            || 0,
        )
        .expect("wrapped run");
        assert_eq!(timed.result, plain, "{spec:?}");
        assert_eq!(timed.result.engine, plain.engine, "skip schedule changed");
        assert!(plain.engine.skipped_cycles > 0, "fast-forward engaged");
        assert_eq!(encode_line(spec, &timed.result), encode_line(spec, &plain));
        assert!(wl.calls() >= spec.warmup + spec.insts);
        assert!(pol.calls() > 0);
    }

    #[test]
    fn wrapped_ilp_run_equals_runner_run() {
        let _sim = crate::sim_lock();
        assert_wrapping_is_invisible(
            &RunSpec::new("gcc", SimModel::Dynamic).with_budget(20_000, 20_000),
        );
    }

    #[test]
    fn wrapped_mlp_run_equals_runner_run() {
        let _sim = crate::sim_lock();
        for model in [SimModel::Dynamic, SimModel::Runahead] {
            assert_wrapping_is_invisible(
                &RunSpec::new("hash-probe", model).with_budget(20_000, 20_000),
            );
        }
    }

    #[test]
    fn wrapped_run_follows_the_engine_switches() {
        let _sim = crate::sim_lock();
        let spec = RunSpec::new("mcf", SimModel::Dynamic).with_budget(10_000, 10_000);
        let wake_mem = WakeSource::MemSystem.index();
        for switch in ENGINE_SWITCHES {
            std::env::set_var(switch, "1");
            let plain = run(&spec).expect("plain run");
            let wrapped = execute(
                &spec,
                |w| TimedWorkload::new(w, LayerClock::shared()),
                |p| {
                    Box::new(TimedPolicy::new(
                        p,
                        LayerClock::shared(),
                        Rc::new(Cell::new(0)),
                    ))
                },
                || 0,
            )
            .expect("wrapped run");
            std::env::remove_var(switch);
            assert_eq!(wrapped.result, plain, "{switch}");
            assert_eq!(
                wrapped.result.engine, plain.engine,
                "{switch}: engine counters"
            );
            if switch == "MLPWIN_EVENT_DRIVEN" {
                assert!(wrapped.wake[wake_mem] > 0, "memory-system wakes counted");
            } else {
                assert_eq!(plain.engine.skipped_cycles, 0, "single-stepped");
            }
        }
    }

    #[test]
    fn wrapped_snapshots_restore_identically() {
        let _sim = crate::sim_lock();
        let spec = RunSpec::new("mcf", SimModel::Dynamic).with_budget(10_000, 10_000);
        let build = || {
            let (config, policy) = spec.model.build();
            let w = profiles::by_name(&spec.profile, spec.seed).expect("profile");
            let policy: Box<dyn WindowPolicy> = Box::new(TimedPolicy::new(
                policy,
                LayerClock::shared(),
                Rc::new(Cell::new(0)),
            ));
            Core::new(config, TimedWorkload::new(w, LayerClock::shared()), policy)
        };
        let mut a = build();
        a.run_warmup(spec.warmup).expect("warm-up");
        let image = a.snapshot();
        let mut b = build();
        b.restore(&image).expect("restore through the wrappers");
        assert_eq!(a.run(spec.insts).expect("a"), b.run(spec.insts).expect("b"));
    }

    #[test]
    fn slowed_run_changes_time_not_results() {
        let _sim = crate::sim_lock();
        let spec = RunSpec::new("gobmk", SimModel::Base).with_budget(5_000, 5_000);
        assert_eq!(
            run_slowed(&spec, 200).expect("slowed"),
            run(&spec).expect("plain")
        );
    }
}
