//! Micro-benchmarks of the simulator's hot structures: the cache probe
//! path, the memory hierarchy, the MSHR lookup, the core's event wheel,
//! the branch predictor, the stride prefetcher and the workload
//! generator. These are the per-cycle inner
//! loops; their cost is what makes the 28×7 experiment matrix tractable.
//!
//! Self-contained harness (no external benchmarking crate — the build
//! must work offline): each case is timed with `std::time::Instant`
//! over a fixed iteration count after a warm-up pass.

use mlpwin_branch::{BranchPredictor, PredictorConfig};
use mlpwin_isa::{ArchReg, Instruction, Xoshiro256StarStar};
use mlpwin_memsys::{
    AccessKind, Cache, CacheConfig, MemSystem, MemSystemConfig, MshrFile, PathKind, StrideConfig,
    StridePrefetcher,
};
use mlpwin_ooo::EventWheel;
use mlpwin_workloads::{profiles, Workload};
use std::hint::black_box;
use std::time::Instant;

const WARMUP_ITERS: u64 = 50_000;
const ITERS: u64 = 500_000;

fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..WARMUP_ITERS {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    let elapsed = t0.elapsed();
    println!(
        "{name:32} {:8.1} ns/op   ({ITERS} iters in {elapsed:?})",
        elapsed.as_nanos() as f64 / ITERS as f64,
    );
}

fn main() {
    let mut cache = Cache::new(CacheConfig::l2_default());
    let mut rng = Xoshiro256StarStar::seed_from(1);
    bench("cache_probe_l2", || {
        let addr = rng.range(1 << 24) * 8;
        black_box(cache.access(black_box(addr), false, true));
    });

    let mut mem = MemSystem::new(MemSystemConfig::default());
    let mut rng = Xoshiro256StarStar::seed_from(2);
    let mut now = 0u64;
    bench("memsys_load_access", || {
        now += 3;
        let addr = rng.range(1 << 26) * 8;
        black_box(mem.access(AccessKind::Load, 0x400, addr, now, PathKind::Correct));
    });

    // An L1D hit asks whether its line is still in flight; here 200 of
    // the 256 MSHRs hold fills, none for the probed lines.
    let mut mshr = MshrFile::new(256);
    for i in 0..200u64 {
        mshr.begin_miss(i * 64, 0);
        mshr.set_completion(i * 64, 1_000_000 + i);
    }
    let mut rng = Xoshiro256StarStar::seed_from(4);
    bench("mshr_pending_l1d_hit_200_fills", || {
        let line = (1 << 30) + rng.range(1 << 16) * 64;
        black_box(mshr.pending(black_box(line)));
    });

    // One stepped cycle at the ilp workload's rate: five events posted
    // a few cycles ahead over a 512-entry ROB, then the due slot drained.
    let mut wheel = EventWheel::with_capacity(512);
    let mut due = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from(5);
    let (mut now, mut seq) = (0u64, 0u64);
    bench("event_wheel_post5_drain", || {
        now += 1;
        for _ in 0..5 {
            seq += 1;
            wheel.post(now + 1 + rng.range(12), seq);
        }
        while wheel
            .drain_due(now, seq.saturating_sub(400), &mut due)
            .is_some()
        {
            black_box(&due);
            due.clear();
        }
    });

    let mut bp = BranchPredictor::new(PredictorConfig::default());
    let mut rng = Xoshiro256StarStar::seed_from(3);
    bench("gshare_predict_resolve", || {
        let pc = 0x400 + rng.range(256) * 4;
        let br = Instruction::cond_branch(pc, ArchReg::int(1), rng.chance(0.7), 0x9000);
        let o = bp.predict(&br);
        bp.resolve(&br, &o);
        black_box(o.mispredicted);
    });

    let mut pf = StridePrefetcher::new(StrideConfig::default());
    let mut addr = 0u64;
    bench("stride_prefetcher_train", || {
        addr += 64;
        black_box(pf.train(0x500, addr, true));
    });

    let mut w = profiles::by_name("mcf", 1).expect("profile");
    bench("workload_next_inst", || {
        black_box(w.next_inst());
    });
}
