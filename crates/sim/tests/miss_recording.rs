//! Miss-cycle recording is opt-in and only observes.
//!
//! `MemSystemConfig::record_miss_cycles` is off by default, so an
//! ordinary run's `l2_miss_cycles` is empty. Turning it on (as the
//! Fig. 4 histogram does) must change nothing but that list: every other
//! field of the result, and every other member of its journal line,
//! stays identical, on memory-bound profiles under every window policy.

use mlpwin_ooo::Core;
use mlpwin_sim::journal::encode_line;
use mlpwin_sim::json::Json;
use mlpwin_sim::runner::{run, RunResult, RunSpec};
use mlpwin_sim::SimModel;
use mlpwin_workloads::profiles;

/// `spec` run with recording on, its result assembled field by field
/// the way the runner assembles one.
fn run_recording(spec: &RunSpec) -> RunResult {
    let category = profiles::params_by_name(&spec.profile)
        .expect("known profile")
        .category;
    let (mut config, policy) = spec.model.build();
    config.memory.record_miss_cycles = true;
    let levels = config.levels.clone();
    let workload = profiles::by_name(&spec.profile, spec.seed).expect("known profile");
    let mut core = Core::try_new(config, workload, policy).expect("valid config");
    core.run_warmup(spec.warmup).expect("healthy warm-up");
    let stats = core.run(spec.insts).expect("healthy run");
    core.mem_mut().finalize();
    let mem = core.mem();
    RunResult {
        spec: spec.clone(),
        category,
        predictor: core.predictor().stats().clone(),
        provenance: *mem.provenance(),
        l2_miss_cycles: mem.stats().l2_demand_miss_cycles.clone(),
        l1_accesses: mem.l1d().stats().hits
            + mem.l1d().stats().misses
            + mem.l1i().stats().hits
            + mem.l1i().stats().misses,
        l2_accesses: mem.l2().stats().hits + mem.l2().stats().misses,
        dram_lines: mem.dram().stats().requests,
        avg_load_latency: stats.avg_load_latency(),
        levels,
        stats,
        engine: core.engine_counters(),
    }
}

/// The journal line of `result` as a tree, without its miss-cycle list.
fn line_without_miss_cycles(spec: &RunSpec, result: &RunResult) -> Json {
    let mut line = Json::parse(&encode_line(spec, result)).expect("own line parses");
    let Json::Obj(top) = &mut line else {
        panic!("a journal line is an object")
    };
    let Some(Json::Obj(body)) = top.get_mut("result") else {
        panic!("a journal line carries a result object")
    };
    assert!(body.remove("l2_miss_cycles").is_some(), "member present");
    line
}

#[test]
fn recording_changes_nothing_but_the_miss_list() {
    for profile in ["mcf", "hash-probe", "soplex"] {
        for model in [SimModel::Base, SimModel::Dynamic, SimModel::Runahead] {
            let spec = RunSpec::new(profile, model).with_budget(10_000, 5_000);
            let plain = run(&spec).expect("healthy run");
            let recorded = run_recording(&spec);
            assert!(
                plain.l2_miss_cycles.is_empty(),
                "{profile}/{model:?}: recording is off by default"
            );
            assert!(
                !recorded.l2_miss_cycles.is_empty(),
                "{profile}/{model:?}: a memory-bound run records misses"
            );
            assert!(
                recorded.l2_miss_cycles.windows(2).all(|w| w[0] <= w[1]),
                "{profile}/{model:?}: miss cycles are in time order"
            );
            assert_eq!(
                line_without_miss_cycles(&spec, &recorded),
                line_without_miss_cycles(&spec, &plain),
                "{profile}/{model:?}: journal line"
            );
            let recorded = RunResult {
                l2_miss_cycles: Vec::new(),
                ..recorded
            };
            assert_eq!(recorded, plain, "{profile}/{model:?}: result");
        }
    }
}
