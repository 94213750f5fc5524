//! Figures 2–12 of the paper.

use super::{grid, Budget, Ctx, FigsError};
use crate::{in_group, selected_profiles, try_category_geomean, GM_GROUPS};
use mlpwin_core::{DynamicResizingPolicy, WindowModel};
use mlpwin_energy::{AreaModel, EnergyModel};
use mlpwin_ooo::{CoreConfig, WindowPolicy};
use mlpwin_sim::report::{cpi_stack_table, histogram, intervals, pct, TextTable};
use mlpwin_sim::runner::RunSpec;
use mlpwin_sim::{SimError, SimModel};
use mlpwin_workloads::{profiles, Category};
use std::io::{self, Write};

/// Writes each program's per-level CPI-stack table under dynamic
/// resizing: where its cycles went.
fn dynamic_cpi_stacks(ctx: &Ctx, out: &mut dyn Write, programs: &[&str]) -> io::Result<()> {
    for p in programs {
        let stats = &ctx.run(p, SimModel::Dynamic).stats;
        writeln!(out, "{p}:\n{}", cpi_stack_table(stats))?;
    }
    Ok(())
}

/// Extra area of the enlarged 2.5 MB L2 over the base 2 MB one (mm²).
pub(super) fn big_l2_extra_mm2(area: &AreaModel) -> f64 {
    area.l2_area_mm2(2 * 1024 * 1024 + 512 * 1024) - area.l2_area_mm2(2 * 1024 * 1024)
}

pub(super) fn fig2_specs(b: &Budget) -> Vec<RunSpec> {
    let models: Vec<SimModel> = (1..=3)
        .flat_map(|l| [SimModel::Fixed(l), SimModel::Ideal(l)])
        .collect();
    grid(b, &["libquantum", "gcc"], &models)
}

/// **Figure 2** — IPC for varying instruction window resource levels on
/// libquantum (memory-intensive) and gcc (compute-intensive), for the
/// fixed (pipelined) and ideal (un-pipelined) models, normalized to
/// level 1.
///
/// The paper's shape: libquantum's bars rise steeply with level and the
/// ideal line sits barely above them (pipelining costs nothing when
/// memory dominates); gcc's bars stay flat or dip below 1.0 while the
/// ideal line stays at ~1.0 (enlarging buys nothing, pipelining hurts).
pub(super) fn fig2(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let ipc = |p: &str, m: SimModel| ctx.run(p, m).ipc();
    for p in ["libquantum", "gcc"] {
        let base = ipc(p, SimModel::Fixed(1));
        writeln!(
            out,
            "Figure 2({}): {p} — relative IPC vs window resource level",
            if p == "libquantum" { "a" } else { "b" }
        )?;
        let mut t = TextTable::new(vec!["level", "fixed (bars)", "ideal (line)"]);
        for l in 1..=3 {
            t.row(vec![
                format!("{l}"),
                format!("{:.2}", ipc(p, SimModel::Fixed(l)) / base),
                format!("{:.2}", ipc(p, SimModel::Ideal(l)) / base),
            ]);
        }
        writeln!(out, "{}", t.render())?;
    }
    out.write_all(b"paper shape: libquantum bars rise steeply, ideal ~= fixed;\n")?;
    out.write_all(b"             gcc bars flat/below 1.0, ideal stays ~1.0\n")?;
    Ok(())
}

/// The cycle of every L2 demand miss of soplex on the base processor.
fn soplex_miss_cycles(b: &Budget) -> Result<Vec<u64>, SimError> {
    let (mut config, policy) = SimModel::Base.build();
    config.memory.record_miss_cycles = true;
    let mut core = b.warm_core("soplex", (config, policy))?;
    core.run(b.insts)?;
    Ok(core.mem().stats().l2_demand_miss_cycles.clone())
}

/// **Figure 4** — histogram of L2 cache-miss occurrences over miss
/// intervals (soplex, 8-cycle bins) on the base processor.
///
/// The paper's shape: the vast majority of misses arrive within a short
/// interval of the previous one (clustering), with a secondary peak near
/// the 300-cycle memory latency — the window fills after a miss, stalls
/// for the round trip, and the next miss cluster begins when it resolves.
///
/// Miss-cycle recording is off by default (only this histogram reads
/// it), so the report builds its own core with recording turned on.
pub(super) fn fig4(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let misses = soplex_miss_cycles(&ctx.budget)?;
    let ivals = intervals(&misses);
    writeln!(
        out,
        "Figure 4: histogram of L2 miss intervals, soplex (bin = 8 cycles)\n\
         misses: {}   mean interval: {:.0} cycles\n",
        misses.len(),
        ivals.iter().sum::<u64>() as f64 / ivals.len().max(1) as f64
    )?;
    let hist = histogram(&ivals, 8);
    let total: u64 = hist.iter().map(|(_, c)| c).sum();
    let mut t = TextTable::new(vec!["interval (cycles)", "misses", "share", "bar"]);
    let mut shown: u64 = 0;
    for (start, count) in hist.iter().take(50) {
        if *count == 0 && *start > 400 {
            continue;
        }
        shown += count;
        let share = *count as f64 / total as f64;
        t.row(vec![
            format!("{start}..{}", start + 8),
            format!("{count}"),
            format!("{:.1}%", share * 100.0),
            "#".repeat((share * 200.0).round() as usize),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    let tail = total - shown;
    writeln!(out, "(+ {tail} misses at intervals beyond the shown range)")?;

    // The two paper-shape checkpoints.
    let short: u64 = hist.iter().filter(|(s, _)| *s < 64).map(|(_, c)| c).sum();
    let near_latency: u64 = hist
        .iter()
        .filter(|(s, _)| (248..=400).contains(s))
        .map(|(_, c)| c)
        .sum();
    writeln!(
        out,
        "\nshort intervals (<64 cycles): {:.0}% of misses — the clustering the\n\
         controller's enlarge-on-miss prediction exploits",
        short as f64 / total as f64 * 100.0
    )?;
    writeln!(
        out,
        "intervals near the 300-cycle memory latency: {:.1}% — the paper's\n\
         secondary peak (window fills, stalls one round trip, next cluster)",
        near_latency as f64 / total as f64 * 100.0
    )?;
    Ok(())
}

/// **Figure 6** — resource-level transitions driven by L2 cache-miss
/// occurrences.
///
/// Two views:
///
/// 1. the controller in isolation, replaying the figure's exact scenario
///    (three misses, the second enlarging to the maximum, then two
///    shrinks spaced by the memory latency);
/// 2. a live excerpt from a dynamic-resizing run of soplex, logging every
///    completed transition with its cycle and direction.
pub(super) fn fig6(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    // Part 1: the paper's exact scenario on the bare controller.
    writeln!(
        out,
        "Figure 6 (controller replay): misses at t=10, 60, 110; memory latency 300\n"
    )?;
    let mut policy = DynamicResizingPolicy::new(300);
    let mut level = 0usize;
    let mut t1 = TextTable::new(vec!["cycle", "event", "level (1-based)"]);
    t1.row(vec!["0".into(), "start".into(), "1".to_string()]);
    for t in 0..1500u64 {
        let miss = matches!(t, 10 | 60 | 110);
        let target = policy.target_level(t, miss as u32, level, 2);
        if target != level {
            policy.on_transition(t, level, target);
            let ev = if target > level {
                "L2 miss -> enlarge"
            } else {
                "latency elapsed -> shrink"
            };
            level = target;
            t1.row(vec![
                format!("{t}"),
                ev.to_string(),
                format!("{}", level + 1),
            ]);
        } else if miss {
            t1.row(vec![
                format!("{t}"),
                "L2 miss (already at max)".into(),
                format!("{}", level + 1),
            ]);
        }
    }
    writeln!(out, "{}", t1.render())?;

    // Part 2: live transitions from a real soplex run.
    out.write_all(b"Figure 6 (live excerpt): dynamic resizing on soplex\n\n")?;
    let b = ctx.budget;
    let mut core = b.warm_core("soplex", WindowModel::Dynamic.build(CoreConfig::default()))?;

    let mut t2 = TextTable::new(vec!["cycle", "transition", "level (1-based)"]);
    let mut last_level = core.current_level();
    let start_cycle = core.cycle();
    let mut logged = 0;
    while core.stats().committed_insts < b.insts && logged < 24 {
        core.step();
        let l = core.current_level();
        if l != last_level {
            t2.row(vec![
                format!("{}", core.cycle() - start_cycle),
                if l > last_level { "enlarge" } else { "shrink" }.to_string(),
                format!("{}", l + 1),
            ]);
            last_level = l;
            logged += 1;
        }
    }
    writeln!(out, "{}", t2.render())?;
    let s = core.stats();
    writeln!(
        out,
        "transitions over the excerpt: {} up, {} down; residency L1/L2/L3 = {:.0}%/{:.0}%/{:.0}%",
        s.transitions_up,
        s.transitions_down,
        s.level_residency(0) * 100.0,
        s.level_residency(1) * 100.0,
        s.level_residency(2) * 100.0,
    )?;
    Ok(())
}

/// The Fig. 7 model set, in presentation order.
const FIG7_MODELS: [SimModel; 7] = [
    SimModel::Fixed(1),
    SimModel::Fixed(2),
    SimModel::Fixed(3),
    SimModel::Dynamic,
    SimModel::Ideal(1),
    SimModel::Ideal(2),
    SimModel::Ideal(3),
];

pub(super) fn fig7_specs(b: &Budget) -> Vec<RunSpec> {
    grid(b, &profiles::names(), &FIG7_MODELS)
}

/// **Figure 7** — IPC normalized to the base processor: fixed-size
/// windows at levels 1–3, dynamic resizing ("Res"), and the un-pipelined
/// ideal models, for the selected programs and the geometric means over
/// all memory-intensive, all compute-intensive and all programs.
///
/// The headline numbers to compare with the paper: GM mem ≈ +48%,
/// GM comp ≈ +4%, GM all ≈ +21% for the dynamic model, with Res matching
/// the best fixed level per program and trailing Ideal by only a few
/// percent.
pub(super) fn fig7(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let names = profiles::names();
    let ipc = |p: &str, m: SimModel| ctx.run(p, m).ipc();

    // Per-program normalized series (base = Fix L1).
    out.write_all(b"Figure 7: IPC normalized to the base (Fix L1) processor\n\n")?;
    let mut t = TextTable::new(vec![
        "program",
        "cat",
        "Fix L1",
        "Fix L2",
        "Fix L3",
        "Res",
        "Ideal L1",
        "Ideal L2",
        "Ideal L3",
        "Res vs best-Fix",
    ]);
    let selected = selected_profiles();
    for p in &names {
        if !selected.contains(p) {
            continue;
        }
        let base = ipc(p, SimModel::Fixed(1));
        let series: Vec<f64> = FIG7_MODELS.iter().map(|m| ipc(p, *m) / base).collect();
        let best_fix = series[0].max(series[1]).max(series[2]);
        let cat = profiles::params_by_name(p).expect("known").category;
        let mut cells = vec![p.to_string(), cat.label().to_string()];
        cells.extend(series.iter().map(|v| format!("{v:.2}")));
        cells.push(format!("{:.2}", series[3] / best_fix));
        t.row(cells);
    }
    writeln!(out, "{}", t.render())?;

    // Geometric means over the full program set.
    let mut gm = TextTable::new(vec![
        "group",
        "Fix L2",
        "Fix L3",
        "Res",
        "Ideal L3",
        "Res speedup vs base",
    ]);
    // Per-model `(category, ratio-to-base)` pairs feed the shared
    // category-filtered geomean helper.
    let ratios = |m: SimModel| -> Vec<(Category, f64)> {
        names
            .iter()
            .map(|p| {
                let cat = profiles::params_by_name(p).expect("known").category;
                (cat, ipc(p, m) / ipc(p, SimModel::Fixed(1)))
            })
            .collect()
    };
    for (label, filter) in GM_GROUPS {
        let rel = |m: SimModel| try_category_geomean(&ratios(m), filter);
        let row = rel(SimModel::Dynamic).and_then(|res| {
            gm.try_row(vec![
                label.to_string(),
                format!("{:.3}", rel(SimModel::Fixed(2))?),
                format!("{:.3}", rel(SimModel::Fixed(3))?),
                format!("{res:.3}"),
                format!("{:.3}", rel(SimModel::Ideal(3))?),
                pct(res - 1.0),
            ])
            .map(|_| ())
        });
        if let Err(e) = row {
            eprintln!("{label}: skipped ({e})");
        }
    }
    writeln!(out, "{}", gm.render())?;
    out.write_all(b"paper: GM mem +48%, GM comp +4%, GM all +21%\n")?;

    // Where the dynamic model's cycles went, per selected program.
    out.write_all(b"\nCPI-stack attribution, dynamic resizing (% of each level's cycles):\n\n")?;
    dynamic_cpi_stacks(ctx, out, &selected)?;
    Ok(())
}

pub(super) fn fig8_specs(b: &Budget) -> Vec<RunSpec> {
    grid(b, &selected_profiles(), &[SimModel::Dynamic])
}

/// **Figure 8** — percentage of cycles the dynamic-resizing window spent
/// at each resource level, per program.
///
/// The paper's shape: compute-intensive programs live at level 1;
/// memory-intensive programs live mostly at level 3; omnetpp and other
/// phase-mixed programs split their time.
pub(super) fn fig8(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let selected = selected_profiles();
    out.write_all(b"Figure 8: % of cycles at each window level (dynamic resizing)\n\n")?;
    let mut t = TextTable::new(vec![
        "program",
        "cat",
        "level 1",
        "level 2",
        "level 3",
        "transitions",
    ]);
    for &p in &selected {
        let r = ctx.run(p, SimModel::Dynamic);
        let row = t.try_row(vec![
            p.to_string(),
            r.category.label().to_string(),
            format!("{:.1}%", r.stats.level_residency(0) * 100.0),
            format!("{:.1}%", r.stats.level_residency(1) * 100.0),
            format!("{:.1}%", r.stats.level_residency(2) * 100.0),
            format!("{}", r.stats.transitions_up + r.stats.transitions_down),
        ]);
        if let Err(e) = row {
            eprintln!("{p}: skipped ({e})");
        }
    }
    writeln!(out, "{}", t.render())?;
    out.write_all(b"paper shape: compute programs sit at level 1, memory programs at level 3,\n")?;
    out.write_all(b"phase-mixed programs (omnetpp) split their residency\n")?;

    // Why each program sits where it does: the per-level CPI stacks.
    out.write_all(b"\nCPI-stack attribution per level (% of each level's cycles):\n\n")?;
    dynamic_cpi_stacks(ctx, out, &selected)?;
    Ok(())
}

/// **Figure 9** — energy efficiency (performance per energy, i.e.
/// normalized 1/EDP) of dynamic resizing relative to the base processor.
///
/// The paper: large gains on memory-intensive programs (time saved
/// dwarfs the window's extra power; libquantum is the extreme), roughly
/// break-even to slightly negative on compute-intensive programs (the
/// provisioned-but-gated window leaks a little with no speedup);
/// averages +36% (mem), −8% (comp), +8% (all).
pub(super) fn fig9(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let energy = EnergyModel::default();
    out.write_all(b"Figure 9: energy efficiency (1/EDP) of dynamic resizing vs base\n\n")?;
    let mut t = TextTable::new(vec![
        "program",
        "cat",
        "IPC ratio",
        "energy ratio",
        "1/EDP rel",
    ]);
    let mut per_cat: Vec<(Category, f64)> = Vec::new();
    let selected = selected_profiles();
    for p in &profiles::names() {
        let base = ctx.run(p, SimModel::Base);
        let dynr = ctx.run(p, SimModel::Dynamic);
        let bc = base.run_counters().expect("non-empty ladder");
        let dc = dynr.run_counters().expect("non-empty ladder");
        let rel = energy.relative_inverse_edp(&bc, &dc);
        per_cat.push((base.category, rel));
        if selected.contains(p) {
            t.row(vec![
                p.to_string(),
                base.category.label().to_string(),
                format!("{:.2}", dynr.ipc() / base.ipc()),
                format!(
                    "{:.2}",
                    energy.energy(&dc).total_pj() / energy.energy(&bc).total_pj()
                ),
                format!("{rel:.2}"),
            ]);
        }
    }
    writeln!(out, "{}", t.render())?;

    crate::write_geomean_summary(out, &per_cat)?;
    out.write_all(b"\npaper: GM mem +36%, GM comp -8%, GM all +8% (libquantum extreme ~+423%)\n")?;

    // The energy story's denominator: where the dynamic model's cycles
    // went on the extremes of each category.
    out.write_all(b"\nCPI-stack attribution, dynamic resizing (% of each level's cycles):\n\n")?;
    let extremes = [profiles::SELECTED_MEM[0], profiles::SELECTED_COMP[0]];
    dynamic_cpi_stacks(ctx, out, &extremes)?;
    Ok(())
}

pub(super) fn fig10_specs(b: &Budget) -> Vec<RunSpec> {
    let models = [SimModel::Base, SimModel::BigL2, SimModel::Dynamic];
    grid(b, &profiles::names(), &models)
}

/// **Figure 10** — dynamic resizing vs spending a comparable area on a
/// larger L2 (2.5 MB, 5-way instead of 2 MB, 4-way).
///
/// The paper: the enlarged L2 buys ~0.6% average IPC while dynamic
/// resizing buys ~21% for ~1.3× *less* area — window resources are a far
/// better use of transistors than more last-level cache.
pub(super) fn fig10(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let names = profiles::names();
    let ipc = |p: &str, m: SimModel| ctx.run(p, m).ipc();

    out.write_all(b"Figure 10: enlarged-L2 model vs dynamic resizing (IPC vs base)\n\n")?;
    let mut t = TextTable::new(vec!["program", "2.5MB L2", "Res"]);
    for p in &selected_profiles() {
        let base = ipc(p, SimModel::Base);
        t.row(vec![
            p.to_string(),
            format!("{:.3}", ipc(p, SimModel::BigL2) / base),
            format!("{:.3}", ipc(p, SimModel::Dynamic) / base),
        ]);
    }
    writeln!(out, "{}", t.render())?;

    let l2_gain = ctx.speedup(&names, SimModel::BigL2, SimModel::Base);
    let res_gain = ctx.speedup(&names, SimModel::Dynamic, SimModel::Base);
    writeln!(
        out,
        "GM all: enlarged L2 {} | dynamic resizing {}",
        pct(l2_gain - 1.0),
        pct(res_gain - 1.0)
    )?;

    let l2_extra = big_l2_extra_mm2(&AreaModel::new());
    writeln!(
        out,
        "\narea: +{:.2} mm2 for the L2 vs +1.60 mm2 for the window (ratio {:.2}x)",
        l2_extra,
        l2_extra / 1.6
    )?;
    out.write_all(b"paper: enlarged L2 +0.6% vs resizing +21% at ~1.3x the area\n")?;
    Ok(())
}

pub(super) fn fig11_specs(b: &Budget) -> Vec<RunSpec> {
    grid(
        b,
        &selected_profiles(),
        &[SimModel::Base, SimModel::Dynamic],
    )
}

/// **Figure 11** — breakdown of L2 cache lines brought in, by who
/// requested them (correct-path demand / wrong-path demand / prefetch)
/// and whether a correct-path access ever used them, for the base and
/// dynamic-resizing models. Bars are normalized to the number of lines
/// the *base* model brought in.
///
/// The paper: wrong-path lines are few, useless lines are a small share,
/// and the resizing model's total barely exceeds the base's — deep
/// speculation does not meaningfully pollute the cache.
pub(super) fn fig11(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let selected = selected_profiles();
    out.write_all(b"Figure 11: L2 lines brought in, by provenance x usefulness\n")?;
    out.write_all(b"(each pair normalized to the base model's total)\n\n")?;
    let mut t = TextTable::new(vec![
        "program",
        "model",
        "corr useful",
        "corr useless",
        "wrong useful",
        "wrong useless",
        "pf useful",
        "pf useless",
        "total",
    ]);
    for p in &selected {
        let base = ctx.run(p, SimModel::Base);
        let norm = base.provenance.total().max(1) as f64;
        for (label, r) in [("Base", base), ("Res", ctx.run(p, SimModel::Dynamic))] {
            let pv = &r.provenance;
            let f = |v: u64| format!("{:.3}", v as f64 / norm);
            t.row(vec![
                p.to_string(),
                label.to_string(),
                f(pv.corrpath_useful),
                f(pv.corrpath_useless),
                f(pv.wrongpath_useful),
                f(pv.wrongpath_useless),
                f(pv.prefetch_useful),
                f(pv.prefetch_useless),
                f(pv.total()),
            ]);
        }
    }
    writeln!(out, "{}", t.render())?;

    // Aggregate checks of the paper's three observations.
    let agg = |model: SimModel| {
        let mut wrong = 0u64;
        let mut useless = 0u64;
        let mut total = 0u64;
        for p in &selected {
            let pv = &ctx.run(p, model).provenance;
            wrong += pv.wrongpath_total();
            useless += pv.useless_total();
            total += pv.total();
        }
        (wrong, useless, total)
    };
    let (bw, bu, bt) = agg(SimModel::Base);
    let (rw, ru, rt) = agg(SimModel::Dynamic);
    writeln!(
        out,
        "aggregate base: wrong-path {:.1}%, useless {:.1}%  |  Res: wrong-path {:.1}%, useless {:.1}%",
        bw as f64 / bt as f64 * 100.0,
        bu as f64 / bt as f64 * 100.0,
        rw as f64 / rt as f64 * 100.0,
        ru as f64 / rt as f64 * 100.0,
    )?;
    writeln!(
        out,
        "total lines, Res vs base: {:.2}x",
        rt as f64 / bt as f64
    )?;
    writeln!(
        out,
        "\npaper: wrong-path lines few, useless share small, Res total ~= base total"
    )?;
    Ok(())
}

pub(super) fn fig12_specs(b: &Budget) -> Vec<RunSpec> {
    let models = [SimModel::Base, SimModel::Runahead, SimModel::Dynamic];
    grid(b, &profiles::names(), &models)
}

/// **Figure 12** — dynamic window resizing vs runahead execution, IPC
/// normalized to the base processor.
///
/// The paper: runahead helps memory-intensive programs but trails
/// resizing by ~8% on their geometric mean (and ~1% on compute), because
/// runahead abandons computation while it prefetches; on milc (sparse,
/// unclustered misses) runahead drops *below* base — useless-runahead
/// episodes — while resizing merely gains little.
pub(super) fn fig12(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let names = profiles::names();
    out.write_all(b"Figure 12: runahead execution vs dynamic resizing (IPC vs base)\n\n")?;
    let mut t = TextTable::new(vec![
        "program",
        "cat",
        "Runahead",
        "Res",
        "RA episodes",
        "RA cycles %",
    ]);
    for p in &selected_profiles() {
        let base = ctx.run(p, SimModel::Base).ipc();
        let ra = ctx.run(p, SimModel::Runahead);
        let res = ctx.run(p, SimModel::Dynamic);
        t.row(vec![
            p.to_string(),
            ra.category.label().to_string(),
            format!("{:.3}", ra.ipc() / base),
            format!("{:.3}", res.ipc() / base),
            format!("{}", ra.stats.runahead_episodes),
            format!(
                "{:.1}%",
                ra.stats.runahead_cycles as f64 / ra.stats.cycles as f64 * 100.0
            ),
        ]);
    }
    writeln!(out, "{}", t.render())?;

    for (label, cat) in GM_GROUPS {
        let sel: Vec<&str> = names.iter().copied().filter(|n| in_group(n, cat)).collect();
        let ra = ctx.speedup(&sel, SimModel::Runahead, SimModel::Base);
        let res = ctx.speedup(&sel, SimModel::Dynamic, SimModel::Base);
        writeln!(
            out,
            "{label}: Runahead {:.3} ({}) vs Res {:.3} ({}) — Res ahead by {}",
            ra,
            pct(ra - 1.0),
            res,
            pct(res - 1.0),
            pct(res / ra - 1.0)
        )?;
    }
    out.write_all(b"\npaper: Res beats runahead by ~8% on GM mem and ~1% on GM comp;\n")?;
    out.write_all(b"       milc: runahead < base (useless runahead), Res >= base\n")?;
    Ok(())
}
