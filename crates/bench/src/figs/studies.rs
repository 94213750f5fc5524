//! Studies beyond the paper's figures: the software-MLP kernels and the
//! four ablations. The ablations change the core's configuration in
//! ways no `RunSpec` expresses, so they build their own cores and run
//! them through [`par_map`].

use super::{grid, par_map, Budget, Ctx, FigsError};
use crate::{in_group, GM_GROUPS};
use mlpwin_core::{DynamicResizingPolicy, WindowModel};
use mlpwin_ooo::{CoreConfig, LevelSpec, WindowPolicy};
use mlpwin_sim::report::{geomean, pct, TextTable};
use mlpwin_sim::runner::RunSpec;
use mlpwin_sim::{SimError, SimModel};
use mlpwin_workloads::{profiles, Category};
use std::io::Write;

/// IPC of `name` on a core built from `built` at budget `b`.
fn ipc(
    b: &Budget,
    name: &str,
    built: (CoreConfig, Box<dyn WindowPolicy>),
) -> Result<f64, SimError> {
    Ok(b.warm_core(name, built)?.run(b.insts)?.ipc())
}

/// `f` over every `(profile, variant)` pair in parallel, as one row of
/// per-variant values per profile.
fn sweep<V: Sync>(
    ctx: &Ctx,
    names: &[&'static str],
    variants: &[V],
    f: impl Fn(&str, &V) -> Result<f64, SimError> + Sync,
) -> Result<Vec<Vec<f64>>, SimError> {
    let pairs: Vec<(&str, &V)> = names
        .iter()
        .flat_map(|&n| variants.iter().map(move |v| (n, v)))
        .collect();
    let values = par_map(&pairs, ctx.threads, |(n, v)| f(n, v))?;
    Ok(values.chunks(variants.len()).map(<[f64]>::to_vec).collect())
}

/// Geometric mean, over the rows of GM group `cat`'s profiles, of
/// column `k` relative to column `reference`.
fn group_gm(
    names: &[&str],
    rows: &[Vec<f64>],
    cat: Option<Category>,
    k: usize,
    reference: usize,
) -> f64 {
    let ratios: Vec<f64> = names
        .iter()
        .zip(rows)
        .filter(|(n, _)| in_group(n, cat))
        .map(|(_, v)| v[k] / v[reference])
        .collect();
    geomean(&ratios)
}

const SWMLP_PROGRAMS: [&str; 3] = ["mcf", "chase-batch", "hash-probe"];
const SWMLP_MODELS: [SimModel; 3] = [SimModel::Base, SimModel::Dynamic, SimModel::Runahead];

pub(super) fn swmlp_specs(b: &Budget) -> Vec<RunSpec> {
    grid(b, &SWMLP_PROGRAMS, &SWMLP_MODELS)
}

/// **Software-MLP kernels** — the Cimple-style batched pointer-chase
/// and hash-probe profiles, against `mcf` as the unbatched baseline.
///
/// Cimple (PAPERS.md) shows software restructuring — interleaving B
/// independent pointer chases, batching hash-table probes — turns
/// serial miss chains into overlapped ones. These profiles model the
/// *result* of that transform, and the three programs land in three
/// distinct regimes: `mcf`'s serial chase has no MLP for any window to
/// find; `chase-batch`'s software pipelining already extracted it all
/// (the memory system saturates at the base window, so the enlarged
/// window the miss-driven policy picks buys nothing — misses are not
/// marginal MLP); `hash-probe`'s narrower batches leave headroom the
/// dynamic window harvests. Every column is a simulated result; host
/// telemetry (skip fraction, event traffic) stays out of the golden so
/// engine knobs and event-queue internals cannot change it.
pub(super) fn swmlp(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let mut t = TextTable::new(vec![
        "program", "model", "IPC", "vs base", "load lat", "avg lvl",
    ]);
    for p in SWMLP_PROGRAMS {
        let base_ipc = ctx.run(p, SimModel::Base).ipc();
        for m in SWMLP_MODELS {
            let r = ctx.run(p, m);
            // Residency-weighted mean window level, 1-based like Fig. 2.
            let avg_level = r
                .stats
                .level_cycles
                .iter()
                .enumerate()
                .map(|(l, &c)| (l + 1) as f64 * c as f64)
                .sum::<f64>()
                / r.stats.cycles.max(1) as f64;
            t.row(vec![
                p.to_string(),
                r.spec.model.tag(),
                format!("{:.3}", r.ipc()),
                format!("{:.2}x", r.ipc() / base_ipc),
                format!("{:.1}", r.avg_load_latency),
                format!("{:.2}", avg_level),
            ]);
        }
    }
    out.write_all(b"Software-MLP kernels (Cimple-style batching) vs serial chase:\n")?;
    writeln!(out, "{}", t.render())?;
    out.write_all(b"expected shape: serial mcf has no MLP to harvest; chase-batch's\n")?;
    out.write_all(b"batching already extracted it in software (the grown window\n")?;
    out.write_all(b"buys ~0); hash-probe's residual MLP rewards the dynamic window.\n")?;
    Ok(())
}

/// **Ablation: maximum resource level.**
///
/// How much of the dynamic model's gain comes from each rung of the
/// Table 2 ladder? Caps the ladder at levels 1, 2 and 3 and reports the
/// GM speedups per category — quantifying that most of the
/// memory-intensive gain needs the full ×4 window.
pub(super) fn ablate_maxlevel(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let names = profiles::names();
    out.write_all(b"Ablation: dynamic resizing with the ladder capped at each level\n\n")?;
    // Per profile: IPC with the ladder capped at levels 1..=3.
    let ipcs = sweep(ctx, &names, &[1usize, 2, 3], |name, &max_level| {
        let config = CoreConfig {
            levels: LevelSpec::table2().into_iter().take(max_level).collect(),
            ..CoreConfig::default()
        };
        let latency = config.memory.dram.min_latency;
        let policy = Box::new(DynamicResizingPolicy::new(latency));
        ipc(&ctx.budget, name, (config, policy))
    })?;

    let mut t = TextTable::new(vec!["group", "max L1 (=base)", "max L2", "max L3 (paper)"]);
    for (label, cat) in GM_GROUPS {
        let gm = |k| group_gm(&names, &ipcs, cat, k, 0);
        t.row(vec![
            label.to_string(),
            "1.000".to_string(),
            format!("{:.3} ({})", gm(1), pct(gm(1) - 1.0)),
            format!("{:.3} ({})", gm(2), pct(gm(2) - 1.0)),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    out.write_all(b"expected shape: the level-2 rung captures part of the gain; the full\n")?;
    out.write_all(b"x4 window (level 3) is needed for the rest; compute GMs stay ~1.0\n")?;
    Ok(())
}

/// **Ablation: level-transition penalty** (paper §4/§5.1 claim).
///
/// The paper asserts the 10-cycle transition penalty barely matters:
/// raising it to 30 cycles costs only ~1.3% performance. This sweep
/// measures GM-all IPC of the dynamic model at penalties 0–50.
pub(super) fn ablate_penalty(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    out.write_all(b"Ablation: dynamic-resizing GM-all IPC vs level-transition penalty\n\n")?;
    let penalties = [0u32, 10, 20, 30, 50];
    let ipcs = sweep(ctx, &profiles::names(), &penalties, |name, &penalty| {
        let base = CoreConfig {
            transition_penalty: penalty,
            ..CoreConfig::default()
        };
        ipc(&ctx.budget, name, WindowModel::Dynamic.build(base))
    })?;
    let gms: Vec<f64> = (0..penalties.len())
        .map(|k| geomean(&ipcs.iter().map(|v| v[k]).collect::<Vec<_>>()))
        .collect();
    let reference = gms[1]; // 10 cycles = the paper's configuration
    let mut t = TextTable::new(vec!["penalty (cycles)", "GM-all IPC", "vs 10-cycle config"]);
    for (&p, &g) in penalties.iter().zip(&gms) {
        t.row(vec![
            format!("{p}"),
            format!("{g:.4}"),
            pct(g / reference - 1.0),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "paper claim: even a 30-cycle penalty costs only ~1.3% (measured here: {})",
        pct(1.0 - gms[3] / reference)
    )?;
    Ok(())
}

/// **Ablation: shrink-timing policy.**
///
/// The paper shrinks one memory latency after the last L2 miss. How
/// sensitive is that choice? This sweep scales the shrink timeout
/// (0.25x, 0.5x, 1x, 2x, 4x of the memory latency) and reports GM IPC
/// per category — showing the design point is flat near 1x (the paper's
/// "simple and cheap" argument) while aggressive shrinking thrashes.
pub(super) fn ablate_policy(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let names = profiles::names();
    let factors = [0.25f64, 0.5, 1.0, 2.0, 4.0];
    let timeouts: Vec<u32> = factors.iter().map(|f| (300.0 * f) as u32).collect();

    out.write_all(b"Ablation: shrink timeout as a multiple of the memory latency\n\n")?;
    let ipcs = sweep(ctx, &names, &timeouts, |name, &timeout| {
        let config = CoreConfig {
            levels: LevelSpec::table2(),
            ..CoreConfig::default()
        };
        let policy = Box::new(DynamicResizingPolicy::new(timeout));
        ipc(&ctx.budget, name, (config, policy))
    })?;

    let mut t = TextTable::new(vec!["group", "0.25x", "0.5x", "1x (paper)", "2x", "4x"]);
    for (label, cat) in GM_GROUPS {
        // Normalize each timeout column to the paper's 1x column.
        let gm = |k| group_gm(&names, &ipcs, cat, k, 2);
        let mut cells = vec![label.to_string()];
        cells.extend((0..timeouts.len()).map(|k| pct(gm(k) - 1.0)));
        t.row(cells);
    }
    writeln!(out, "{}", t.render())?;
    out.write_all(b"expected shape: flat near 1x; early shrinking (0.25x) loses MLP on\n")?;
    out.write_all(b"memory workloads; late shrinking (4x) costs compute workloads ILP\n")?;
    Ok(())
}

/// **Ablation: stride prefetcher × window resizing.**
///
/// Both mechanisms attack memory latency; how much do they overlap?
/// Runs base and dynamic models with the prefetcher on and off and
/// reports GM-mem IPC for the four combinations — showing resizing's
/// gain survives (and grows) without the prefetcher, i.e. the mechanisms
/// are complementary, not redundant.
pub(super) fn ablate_prefetcher(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let names: Vec<&str> = profiles::all()
        .iter()
        .filter(|p| p.category == Category::MemoryIntensive)
        .map(|p| p.name)
        .collect();
    let combos = [
        ("Base + prefetch", WindowModel::Base, true),
        ("Base, no prefetch", WindowModel::Base, false),
        ("Res + prefetch", WindowModel::Dynamic, true),
        ("Res, no prefetch", WindowModel::Dynamic, false),
    ];
    let ipcs = sweep(ctx, &names, &combos, |name, &(_, model, prefetch)| {
        let mut base = CoreConfig::default();
        base.memory.prefetch.enabled = prefetch;
        ipc(&ctx.budget, name, model.build(base))
    })?;

    writeln!(out, "Ablation: prefetcher x window resizing (memory-intensive GM IPC,\nnormalized to base-with-prefetch)\n")?;
    let mut t = TextTable::new(vec!["configuration", "GM-mem IPC rel", "delta"]);
    for (k, (label, _, _)) in combos.iter().enumerate() {
        let gm = group_gm(&names, &ipcs, None, k, 0);
        t.row(vec![label.to_string(), format!("{gm:.3}"), pct(gm - 1.0)]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "expected shape: resizing gains with or without the prefetcher — the\n\
         window exploits the irregular misses the stride table cannot cover"
    )?;
    Ok(())
}
