//! Determinism guarantees: every run is a pure function of
//! (profile, model, seed, budgets) — across repeated executions, across
//! thread counts, and across all models.

use mlpwin::ooo::Core;
use mlpwin::sim::runner::{run, run_matrix, RunSpec};
use mlpwin::sim::SimModel;
use mlpwin::workloads::profiles;

fn spec(profile: &str, model: SimModel, seed: u64) -> RunSpec {
    let mut s = RunSpec::new(profile, model).with_budget(10_000, 5_000);
    s.seed = seed;
    s
}

/// The L2 miss cycles of `spec`, run with miss-cycle recording on (it
/// is off by default, leaving the list empty).
fn recorded_miss_cycles(spec: &RunSpec) -> Vec<u64> {
    let (mut config, policy) = spec.model.build();
    config.memory.record_miss_cycles = true;
    let workload = profiles::by_name(&spec.profile, spec.seed).expect("known profile");
    let mut core = Core::try_new(config, workload, policy).expect("valid config");
    core.run_warmup(spec.warmup).expect("healthy warm-up");
    core.run(spec.insts).expect("healthy run");
    core.mem().stats().l2_demand_miss_cycles.clone()
}

#[test]
fn repeated_runs_are_bit_identical() {
    for model in [
        SimModel::Base,
        SimModel::Fixed(3),
        SimModel::Dynamic,
        SimModel::Runahead,
        SimModel::BigL2,
    ] {
        let a = run(&spec("soplex", model, 1)).expect("healthy run");
        let b = run(&spec("soplex", model, 1)).expect("healthy run");
        assert_eq!(a.stats, b.stats, "{model:?} not deterministic");
        assert_eq!(a.provenance, b.provenance);
        let a = recorded_miss_cycles(&spec("soplex", model, 1));
        let b = recorded_miss_cycles(&spec("soplex", model, 1));
        assert!(!a.is_empty(), "{model:?}: soplex misses in L2");
        assert_eq!(a, b, "{model:?}: miss cycles not deterministic");
    }
}

#[test]
fn thread_count_cannot_change_results() {
    let specs: Vec<RunSpec> = ["gcc", "milc", "mcf", "sjeng"]
        .iter()
        .map(|p| spec(p, SimModel::Dynamic, 1))
        .collect();
    let serial = run_matrix(&specs, 1);
    let parallel = run_matrix(&specs, 4);
    for (s, p) in serial.iter().zip(&parallel) {
        let s = s.result().expect("healthy spec");
        let p = p.result().expect("healthy spec");
        assert_eq!(
            s.stats, p.stats,
            "{}: thread-count sensitivity",
            s.spec.profile
        );
    }
}

#[test]
fn interval_series_is_deterministic_across_threads_and_repeats() {
    let specs: Vec<RunSpec> = ["libquantum", "gcc", "mcf"]
        .iter()
        .map(|p| spec(p, SimModel::Dynamic, 1).with_intervals(500))
        .collect();
    let serial = run_matrix(&specs, 1);
    let parallel = run_matrix(&specs, 4);
    let again = run_matrix(&specs, 4);
    for ((s, p), a) in serial.iter().zip(&parallel).zip(&again) {
        let s = s.result().expect("healthy spec");
        let p = p.result().expect("healthy spec");
        let a = a.result().expect("healthy spec");
        assert!(
            !s.stats.intervals.is_empty(),
            "{}: series must be collected",
            s.spec.profile
        );
        // The whole CoreStats — intervals and CPI stack included — must
        // be bit-identical whatever the thread count, and across runs.
        assert_eq!(
            s.stats, p.stats,
            "{}: thread-count sensitivity in observability data",
            s.spec.profile
        );
        assert_eq!(
            p.stats, a.stats,
            "{}: repeat sensitivity in observability data",
            p.spec.profile
        );
    }
}

#[test]
fn different_seeds_diverge() {
    let a = run(&spec("soplex", SimModel::Base, 1)).expect("healthy run");
    let b = run(&spec("soplex", SimModel::Base, 2)).expect("healthy run");
    assert_ne!(
        a.stats.cycles, b.stats.cycles,
        "distinct seeds should explore distinct dynamic behaviour"
    );
    // But aggregate character stays put: same category, same regime.
    let ratio = a.ipc() / b.ipc();
    assert!(
        (0.5..2.0).contains(&ratio),
        "seed variance should be bounded: {ratio}"
    );
}

#[test]
fn warmup_reset_preserves_microarchitectural_state() {
    // Running 2k after an 8k warmup must differ from a cold 2k run
    // (warm caches), and two warm runs must agree with each other.
    let cold =
        run(&RunSpec::new("gcc", SimModel::Base).with_budget(0, 2_000)).expect("healthy run");
    let warm1 =
        run(&RunSpec::new("gcc", SimModel::Base).with_budget(8_000, 2_000)).expect("healthy run");
    let warm2 =
        run(&RunSpec::new("gcc", SimModel::Base).with_budget(8_000, 2_000)).expect("healthy run");
    assert_eq!(warm1.stats, warm2.stats);
    assert!(
        warm1.ipc() > cold.ipc(),
        "warm ({:.3}) should beat cold ({:.3})",
        warm1.ipc(),
        cold.ipc()
    );
}
