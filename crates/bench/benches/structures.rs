//! Micro-benchmarks of the simulator's hot structures: the cache probe
//! path, the memory hierarchy, the branch predictor, the stride
//! prefetcher and the workload generator. These are the per-cycle inner
//! loops; their cost is what makes the 28×7 experiment matrix tractable.
//!
//! Self-contained harness (no external benchmarking crate — the build
//! must work offline): each case is timed with `std::time::Instant`
//! over a fixed iteration count after a warm-up pass.

use mlpwin_branch::{BranchPredictor, PredictorConfig};
use mlpwin_isa::{ArchReg, Instruction, Xoshiro256StarStar};
use mlpwin_memsys::{
    AccessKind, Cache, CacheConfig, MemSystem, MemSystemConfig, PathKind, StrideConfig,
    StridePrefetcher,
};
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
