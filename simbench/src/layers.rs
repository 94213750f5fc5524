//! The traced run: the per-layer breakdown, measured from outside.
//!
//! - `ooo`, `workloads`, `core`, `branch`/`memsys` counts and
//!   `runahead` come from in-process rounds that make the same calls
//!   `runner::run` makes ([`wrap::execute`]) with the generator and the
//!   policy wrapped in timers. Untraced rounds (`runner::run` itself)
//!   alternate with traced ones, so the run also reports what tracing
//!   costs.
//! - The `*_ns`/`*_us` figures of `memsys`, `branch`, `queue`,
//!   `journal`, `cachestore` and `snapshot` come from calling those
//!   public functions directly on the workload's own inputs.
//! - `serve` comes from one campaign pass over the workload's specs and
//!   its Chrome trace; `split` from one interval-parallel run of the
//!   workload's first spec, cut into `SPLIT_INTERVALS` intervals.
//!
//! Every simulated result along the way is checked against the
//! reference, like in the untraced run.

use crate::check::Tally;
use crate::inproc::{self, Round};
use crate::service;
use crate::stats::{median, secs_since, Metrics};
use crate::suite::{spec_insts, split_interval_cycles, WORKERS};
use crate::wrap::{self, LayerClock, SlowWorkload, TimedPolicy, TimedWorkload};
use mlpwin_branch::BranchPredictor;
use mlpwin_isa::{Instruction, OpClass};
use mlpwin_memsys::{AccessKind, Cache, MemSystem, PathKind};
use mlpwin_ooo::{Core, WakeSource, WindowPolicy};
use mlpwin_sim::journal::{decode_line, encode_line, spec_hash};
use mlpwin_sim::json::Json;
use mlpwin_sim::queue::QueuePolicy;
use mlpwin_sim::runner::{RunResult, RunSpec};
use mlpwin_sim::snapshot::SnapshotPhase;
use mlpwin_sim::{CacheStore, JobQueue, Lane, SnapshotStore};
use mlpwin_workloads::{profiles, Workload};
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Instructions of each spec's stream replayed into the structures.
const STREAM_INSTS: usize = 40_000;
/// Repetitions of each micro-measurement; the median is reported.
const REPS: usize = 5;

/// Layer totals of one traced pass over every spec.
#[derive(Debug, Default, Clone)]
struct Sample {
    wall_s: f64,
    insts: u64,
    build_s: f64,
    warmup_self_s: f64,
    measure_self_s: f64,
    stepped: u64,
    skipped: u64,
    posted: u64,
    popped: u64,
    wake: [u64; WakeSource::COUNT],
    sim_cycles: u64,
    squashes: u64,
    wrongpath: u64,
    next_inst_calls: u64,
    next_inst_ns: u64,
    policy_calls: u64,
    policy_ns: u64,
    transitions: u64,
    branch_lookups: u64,
    branch_mispredicts: u64,
    l1d: u64,
    l2: u64,
    l2_misses: u64,
    dram_lines: u64,
    load_latency_sum: u64,
    loads: u64,
    ra_episodes: u64,
    ra_cycles: u64,
    results: Vec<RunResult>,
}

/// One traced pass: every spec through [`wrap::execute`] with timed
/// wrappers (and the optional generator slowdown inside them).
fn traced_round(specs: &[RunSpec], refs: &[String], slow_ns: u64, tally: &mut Tally) -> Sample {
    let mut s = Sample::default();
    for (spec, reference) in specs.iter().zip(refs) {
        let (gen, pol, tr) = (
            LayerClock::shared(),
            LayerClock::shared(),
            Rc::new(Cell::new(0)),
        );
        let wrapped_ns = {
            let (gen, pol) = (Rc::clone(&gen), Rc::clone(&pol));
            move || gen.nanos() + pol.nanos()
        };
        let start = Instant::now();
        let run = wrap::execute(
            spec,
            |w| TimedWorkload::new(SlowWorkload::new(w, slow_ns), Rc::clone(&gen)),
            |p| {
                Box::new(TimedPolicy::new(p, Rc::clone(&pol), Rc::clone(&tr)))
                    as Box<dyn WindowPolicy>
            },
            wrapped_ns,
        );
        s.wall_s += secs_since(start);
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                tally.result(spec, &Err(e), reference);
                continue;
            }
        };
        tally.result(spec, &Ok(run.result.clone()), reference);
        let r = &run.result;
        s.insts += spec_insts(spec);
        s.build_s += run.phases.build_s;
        s.warmup_self_s += run.phases.warmup_s;
        s.measure_self_s += run.phases.measure_s;
        s.stepped += r.engine.stepped_cycles;
        s.skipped += r.engine.skipped_cycles;
        s.posted += r.engine.events_posted;
        s.popped += r.engine.events_popped;
        for (acc, n) in s.wake.iter_mut().zip(run.wake) {
            *acc += n;
        }
        s.sim_cycles += run.sim_cycles;
        s.squashes += r.stats.squashes;
        s.wrongpath += r.stats.wrongpath_dispatched;
        s.next_inst_calls += gen.calls();
        s.next_inst_ns += gen.nanos();
        s.policy_calls += pol.calls();
        s.policy_ns += pol.nanos();
        s.transitions += tr.get();
        s.branch_lookups += r.predictor.conditional_branches + r.predictor.unconditional_branches;
        s.branch_mispredicts += r.predictor.total_mispredicts();
        s.l1d += run.l1d_accesses;
        s.l2 += r.l2_accesses;
        s.l2_misses += run.l2_misses;
        s.dram_lines += r.dram_lines;
        s.load_latency_sum += r.stats.load_latency_sum;
        s.loads += r.stats.committed_loads;
        s.ra_episodes += r.stats.runahead_episodes;
        s.ra_cycles += r.stats.runahead_cycles;
        s.results.push(run.result);
    }
    s
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Runs the traced measurement of `specs` for about `seconds` of
/// alternating untraced/traced rounds plus the layer probes.
pub fn traced_run(
    specs: &[RunSpec],
    refs: &[String],
    seconds: f64,
    slow_ns: u64,
    work: &Path,
    tally: &mut Tally,
) -> Metrics {
    let mut m = Metrics::default();
    let start = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    while traced.is_empty() || secs_since(start) < seconds {
        plain.push(inproc::round(specs, refs, slow_ns, tally, &mut |_, _| {}));
        traced.push(traced_round(specs, refs, slow_ns, tally));
    }
    let med = |f: &dyn Fn(&Sample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let last = traced.last().expect("at least one traced round").clone();

    m.put("ooo.build_ms", med(&|s| s.build_s * 1e3), "ms");
    m.put("ooo.warmup_s", med(&|s| s.warmup_self_s), "s");
    m.put("ooo.measure_s", med(&|s| s.measure_self_s), "s");
    m.put("ooo.stepped_cycles", last.stepped as f64, "cycles");
    m.put("ooo.skipped_cycles", last.skipped as f64, "cycles");
    m.put(
        "ooo.skip_fraction",
        per(last.skipped as f64, last.skipped + last.stepped),
        "frac",
    );
    m.put(
        "ooo.ns_per_stepped_cycle",
        med(&|s| per((s.warmup_self_s + s.measure_self_s) * 1e9, s.stepped)),
        "ns",
    );
    m.put("ooo.events_posted", last.posted as f64, "count");
    m.put("ooo.events_popped", last.popped as f64, "count");
    for source in WakeSource::ALL {
        m.put(
            format!("ooo.wake.{source:?}"),
            last.wake[source.index()] as f64,
            "count",
        );
    }
    m.put("ooo.sim_cycles", last.sim_cycles as f64, "cycles");
    m.put("ooo.squashes", last.squashes as f64, "count");
    m.put("ooo.wrongpath_dispatched", last.wrongpath as f64, "count");

    m.put(
        "workloads.next_inst_calls",
        last.next_inst_calls as f64,
        "count",
    );
    m.put(
        "workloads.next_inst_ns",
        med(&|s| per(s.next_inst_ns as f64, s.next_inst_calls)),
        "ns",
    );
    m.put("core.policy_calls", last.policy_calls as f64, "count");
    m.put(
        "core.policy_ns",
        med(&|s| per(s.policy_ns as f64, s.policy_calls)),
        "ns",
    );
    m.put("core.transitions", last.transitions as f64, "count");
    m.put("runahead.episodes", last.ra_episodes as f64, "count");
    m.put("runahead.cycles", last.ra_cycles as f64, "cycles");

    m.put("branch.lookups", last.branch_lookups as f64, "count");
    m.put(
        "branch.mispredicts",
        last.branch_mispredicts as f64,
        "count",
    );
    m.put("memsys.l1d_accesses", last.l1d as f64, "count");
    m.put("memsys.l2_accesses", last.l2 as f64, "count");
    m.put("memsys.l2_misses", last.l2_misses as f64, "count");
    m.put("memsys.dram_lines", last.dram_lines as f64, "count");
    m.put(
        "memsys.avg_load_latency_cycles",
        per(last.load_latency_sum as f64, last.loads),
        "cycles",
    );
    structures_probe(specs, &mut m);

    let throughput = |insts: u64, wall_s: f64| insts as f64 / 1e6 / wall_s;
    let untraced = throughput(
        plain.iter().map(|r| r.insts).sum(),
        plain.iter().map(|r| r.wall_s).sum(),
    );
    let with_trace = throughput(
        traced.iter().map(|s| s.insts).sum(),
        traced.iter().map(|s| s.wall_s).sum(),
    );
    m.put("trace.sim_mips_untraced", untraced, "MIPS");
    m.put("trace.sim_mips_traced", with_trace, "MIPS");
    m.put("trace.overhead_frac", untraced / with_trace - 1.0, "frac");

    service_probes(&last.results, specs, work, &mut m);
    snapshot_probe(specs, work, &mut m);
    let spec_walls: f64 = (0..specs.len())
        .map(|i| median(&plain.iter().map(|r| r.spec_s[i]).collect::<Vec<_>>()))
        .sum();
    serve_probe(specs, refs, spec_walls, work, tally, &mut m);
    let interval = split_interval_cycles(&refs[0]);
    let split = service::split_pass(
        &specs[0],
        &refs[0],
        interval,
        &work.join("split-probe"),
        tally,
    );
    m.put("sim.split.sweep_s", split.sweep_s, "s");
    m.put("sim.split.phase2_s", split.wall_s - split.sweep_s, "s");
    m.put("sim.split.intervals", split.intervals as f64, "count");
    m
}

/// Per-operation host nanoseconds of the memory system, an L1D probe
/// and the branch predictor, fed each spec's own instruction stream.
fn structures_probe(specs: &[RunSpec], m: &mut Metrics) {
    let mut streams: Vec<(RunSpec, Vec<Instruction>)> = Vec::new();
    for spec in specs {
        if streams
            .iter()
            .any(|(s, _)| s.profile == spec.profile && s.seed == spec.seed && s.model == spec.model)
        {
            continue;
        }
        let mut w = profiles::by_name(&spec.profile, spec.seed).expect("checked profile");
        streams.push((
            spec.clone(),
            (0..STREAM_INSTS).map(|_| w.next_inst()).collect(),
        ));
    }
    let time_per_op = |f: &dyn Fn(&RunSpec, &[Instruction]) -> u64| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let start = Instant::now();
                let ops: u64 = streams.iter().map(|(spec, insts)| f(spec, insts)).sum();
                per(start.elapsed().as_nanos() as f64, ops)
            })
            .collect();
        median(&samples)
    };
    let access_ns = time_per_op(&|spec, insts| {
        let mut mem = MemSystem::new(spec.model.build().0.memory);
        let mut ops = 0;
        for (now, inst) in insts.iter().enumerate() {
            let Some(r) = inst.mem else { continue };
            let kind = if inst.op == OpClass::Store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            black_box(mem.access(kind, inst.pc, r.addr, now as u64, PathKind::Correct));
            ops += 1;
        }
        ops
    });
    let probe_ns = time_per_op(&|spec, insts| {
        let mut cache = Cache::new(spec.model.build().0.memory.l1d);
        let mut ops = 0;
        for inst in insts {
            let Some(r) = inst.mem else { continue };
            black_box(cache.access(r.addr, inst.op == OpClass::Store, true));
            ops += 1;
        }
        ops
    });
    let branch_ns = time_per_op(&|spec, insts| {
        let mut bp = BranchPredictor::new(spec.model.build().0.predictor);
        let mut ops = 0;
        for inst in insts.iter().filter(|i| i.branch.is_some()) {
            let outcome = bp.predict(inst);
            bp.resolve(inst, &outcome);
            ops += 1;
        }
        ops
    });
    m.put("memsys.access_ns", access_ns, "ns");
    m.put("memsys.cache_probe_ns", probe_ns, "ns");
    m.put("branch.predict_resolve_ns", branch_ns, "ns");
}

/// Per-operation costs of the WAL queue, the journal codec and the
/// result cache on the workload's own specs and results.
fn service_probes(results: &[RunResult], specs: &[RunSpec], work: &Path, m: &mut Metrics) {
    let us = |d: Duration, n: usize| per(d.as_secs_f64() * 1e6, n as u64);

    let wal = work.join("probe.wal");
    let _ = std::fs::remove_file(&wal);
    let mut queue = JobQueue::open(&wal, QueuePolicy::default()).expect("probe WAL");
    let start = Instant::now();
    for spec in specs {
        queue.submit(spec, Lane::Normal).expect("submit");
    }
    let submit = us(start.elapsed(), specs.len());
    let start = Instant::now();
    let mut leased = Vec::new();
    while let Some(job) = queue.lease("probe", 0).expect("lease") {
        leased.push(job.id);
    }
    let lease = us(start.elapsed(), leased.len());
    let start = Instant::now();
    for id in &leased {
        queue.complete(*id, false, 0).expect("complete");
    }
    let complete = us(start.elapsed(), leased.len());
    drop(queue);
    m.put("sim.queue.submit_us", submit, "us");
    m.put("sim.queue.lease_us", lease, "us");
    m.put("sim.queue.complete_us", complete, "us");
    let wal_bytes = std::fs::metadata(&wal).map_or(0, |md| md.len());
    m.put("sim.queue.wal_bytes", wal_bytes as f64, "bytes");

    let reps = (2_000 / results.len().max(1)).max(1);
    let start = Instant::now();
    let mut lines = Vec::new();
    for _ in 0..reps {
        lines = results
            .iter()
            .map(|r| encode_line(&r.spec, r))
            .collect::<Vec<_>>();
        black_box(&lines);
    }
    let encode = us(start.elapsed(), reps * results.len());
    let start = Instant::now();
    for _ in 0..reps {
        for line in &lines {
            black_box(decode_line(line).expect("own line decodes"));
        }
    }
    let decode = us(start.elapsed(), reps * lines.len());
    m.put("sim.journal.encode_us", encode, "us");
    m.put("sim.journal.decode_us", decode, "us");

    let path = work.join("probe-cache.jsonl");
    std::fs::write(&path, lines.join("\n") + "\n").expect("probe cache file");
    let start = Instant::now();
    let cache = CacheStore::load(&path).expect("cache loads");
    let load_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let mut hits = 0;
    for _ in 0..reps {
        for r in results {
            hits += usize::from(matches!(cache.lookup(&r.spec), Ok(Some(_))));
        }
    }
    let lookup = us(start.elapsed(), reps * results.len());
    m.put("sim.cachestore.load_ms", load_ms, "ms");
    m.put("sim.cachestore.lookup_us", lookup, "us");
    m.put("sim.cachestore.hits", (hits / reps) as f64, "count");
}

/// Saves and restores a post-warm-up snapshot of (up to) the first four
/// specs through the snapshot store.
fn snapshot_probe(specs: &[RunSpec], work: &Path, m: &mut Metrics) {
    let dir = work.join("snaps");
    let (mut bytes, mut save_s, mut restore_s, mut writes) = (0usize, 0.0, 0.0, 0u64);
    for spec in specs.iter().take(4) {
        let build = || {
            let (config, policy) = spec.model.build();
            let w = profiles::by_name(&spec.profile, spec.seed).expect("checked profile");
            Core::try_new(config, w, policy).expect("valid model")
        };
        let mut core = build();
        core.run_warmup(spec.warmup.min(50_000)).expect("warm-up");
        let image = core.snapshot();
        let store = SnapshotStore::new(&dir, spec_hash(spec), 3);
        let start = Instant::now();
        store
            .save(SnapshotPhase::Measure, core.cycle(), &image)
            .expect("snapshot saves");
        save_s += secs_since(start);
        let start = Instant::now();
        let loaded = store.load_latest().expect("snapshot loads");
        let mut fresh = build();
        fresh.restore(&loaded.payload).expect("snapshot restores");
        restore_s += secs_since(start);
        assert_eq!(fresh.cycle(), core.cycle(), "restored cycle");
        store.discard();
        bytes += image.len();
        writes += 1;
    }
    m.put("sim.snapshot.bytes", per(bytes as f64, writes), "bytes");
    m.put("sim.snapshot.save_ms", per(save_s * 1e3, writes), "ms");
    m.put(
        "sim.snapshot.restore_ms",
        per(restore_s * 1e3, writes),
        "ms",
    );
    m.put("sim.snapshot.writes", writes as f64, "count");
}

/// One campaign pass over the specs with its Chrome trace: per-job
/// controller overhead against the in-process wall time of the same
/// specs, median queue wait and run span, and worker spawn cost.
fn serve_probe(
    specs: &[RunSpec],
    refs: &[String],
    inproc_wall_s: f64,
    work: &Path,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let dir = work.join("serve-probe");
    let trace = work.join("serve-probe.trace.json");
    let wall_s = service::campaign_pass(specs, refs, &dir, &trace, tally);
    let _ = std::fs::remove_dir_all(&dir);
    let overhead_s = wall_s * WORKERS as f64 - inproc_wall_s;
    m.put(
        "sim.serve.overhead_ms_per_job",
        per(overhead_s * 1e3, specs.len() as u64),
        "ms",
    );
    let doc = std::fs::read_to_string(&trace)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .unwrap_or(Json::Null);
    let (mut queued, mut running) = (Vec::new(), Vec::new());
    for ev in doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(dur_ms) = ev.get("dur").and_then(Json::as_f64).map(|us| us / 1e3) else {
            continue;
        };
        if name.ends_with(" queued") {
            queued.push(dur_ms);
        } else if name.contains(" attempt ") {
            running.push(dur_ms);
        }
    }
    m.put("sim.serve.queue_wait_ms_p50", median(&queued), "ms");
    m.put("sim.serve.run_ms_p50", median(&running), "ms");
    let spawns: Vec<f64> = (0..REPS).map(|_| service::spawn_ms()).collect();
    m.put("sim.supervisor.spawn_ms", median(&spawns), "ms");
}
