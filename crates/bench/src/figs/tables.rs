//! Tables 1–5 of the paper.

use super::{grid, Budget, Ctx, FigsError};
use mlpwin_energy::AreaModel;
use mlpwin_ooo::{CoreConfig, LevelSpec};
use mlpwin_sim::report::{pct, TextTable};
use mlpwin_sim::runner::RunSpec;
use mlpwin_sim::SimModel;
use mlpwin_workloads::{profiles, Category};
use std::io::Write;

/// **Table 1** — configuration of the base processor, dumped from the
/// live `CoreConfig` so the printout can never drift from the simulator.
pub(super) fn table1(_: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let c = CoreConfig::default();
    let m = &c.memory;
    out.write_all(b"Table 1: configuration of the base processor\n\n")?;
    let (fu, pf) = (&c.fu_counts, &m.prefetch);
    let mut t = TextTable::new(vec!["parameter", "value"]);
    for (parameter, value) in [
        (
            "pipeline width",
            format!("{}-wide fetch/decode/issue/commit", c.fetch_width),
        ),
        ("ROB", format!("{} entries", c.levels[0].rob)),
        ("issue queue", format!("{} entries", c.levels[0].iq)),
        ("LSQ", format!("{} entries", c.levels[0].lsq)),
        (
            "branch prediction",
            format!(
                "{}-bit history {}K-entry PHT gshare, {}-set {}-way BTB, {}-cycle penalty",
                c.predictor.gshare.history_bits,
                c.predictor.gshare.pht_entries / 1024,
                c.predictor.btb.sets,
                c.predictor.btb.ways,
                c.mispredict_penalty
            ),
        ),
        (
            "function units",
            format!(
                "{} iALU, {} iMULT/DIV, {} Ld/St, {} fpALU, {} fpMULT/DIV/SQRT",
                fu[0], fu[1], fu[2], fu[3], fu[4]
            ),
        ),
        (
            "L1 I-cache",
            format!(
                "{}KB, {}-way, {}B line",
                m.l1i.size_bytes / 1024,
                m.l1i.assoc,
                m.l1i.line_bytes
            ),
        ),
        (
            "L1 D-cache",
            format!(
                "{}KB, {}-way, {}B line, 2 ports, {}-cycle hit, non-blocking",
                m.l1d.size_bytes / 1024,
                m.l1d.assoc,
                m.l1d.line_bytes,
                m.l1d.hit_latency
            ),
        ),
        (
            "L2 cache",
            format!(
                "{}MB, {}-way, {}B line, {}-cycle hit",
                m.l2.size_bytes / 1024 / 1024,
                m.l2.assoc,
                m.l2.line_bytes,
                m.l2.hit_latency
            ),
        ),
        (
            "main memory",
            format!(
                "{}-cycle min latency, {}B/cycle bandwidth",
                m.dram.min_latency, m.dram.bytes_per_cycle
            ),
        ),
        (
            "data prefetcher",
            format!(
                "stride-based, {}-entry {}-way table, {}-line prefetch to L2 on miss",
                pf.entries, pf.ways, pf.degree
            ),
        ),
    ] {
        t.row(vec![parameter.to_string(), value]);
    }
    writeln!(out, "{}", t.render())?;
    Ok(())
}

/// **Table 2** — entries and pipeline depths of the window resources at
/// each level, plus the level-transition penalty, dumped from the live
/// `LevelSpec` ladder.
pub(super) fn table2(_: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    let ladder = LevelSpec::table2();
    out.write_all(b"Table 2: window resources per level\n\n")?;
    let mut t = TextTable::new(vec![
        "resource",
        "parameter",
        "level 1",
        "level 2",
        "level 3",
    ]);
    let mut row = |name: &str, param: &str, f: &dyn Fn(&LevelSpec) -> String| {
        let mut cells = vec![name.to_string(), param.to_string()];
        cells.extend(ladder.iter().map(f));
        t.row(cells);
    };
    row("IQ", "entries", &|l| l.iq.to_string());
    row("IQ", "pipeline depth", &|l| l.iq_depth.to_string());
    row("ROB", "entries", &|l| l.rob.to_string());
    row("LSQ", "entries", &|l| l.lsq.to_string());
    row("LSQ", "pipeline depth", &|l| l.iq_depth.to_string());
    row("", "extra mispredict penalty", &|l| {
        format!("+{}", l.extra_mispredict_penalty)
    });
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "level transition penalty: {} cycles",
        CoreConfig::default().transition_penalty
    )?;
    Ok(())
}

/// The paper's Table 3 average load latencies, for side-by-side display.
const PAPER_LATENCY: &[(&str, f64)] = &[
    ("hmmer", 15.0),
    ("libquantum", 247.0),
    ("mcf", 52.0),
    ("omnetpp", 42.0),
    ("xalancbmk", 74.0),
    ("GemsFDTD", 32.0),
    ("lbm", 14.0),
    ("leslie3d", 72.0),
    ("milc", 12.0),
    ("soplex", 36.0),
    ("sphinx3", 51.0),
    ("astar", 7.0),
    ("bzip2", 3.0),
    ("gcc", 6.0),
    ("gobmk", 3.0),
    ("h264ref", 3.0),
    ("perlbench", 4.0),
    ("sjeng", 2.0),
    ("bwaves", 2.0),
    ("cactusADM", 5.0),
    ("calculix", 6.0),
    ("dealII", 2.0),
    ("gamess", 2.0),
    ("gromacs", 5.0),
    ("namd", 3.0),
    ("povray", 2.0),
    ("tonto", 2.0),
    ("zeusmp", 6.0),
];

pub(super) fn table3_specs(b: &Budget) -> Vec<RunSpec> {
    grid(b, &profiles::names(), &[SimModel::Base])
}

/// **Table 3** — benchmark programs and their average load latency.
///
/// Runs every profile on the base processor and reports the measured
/// average committed-load latency and the derived memory-/compute-
/// intensive category (threshold: 10 cycles, as in the paper), next to
/// the paper's published value.
pub(super) fn table3(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    out.write_all(b"Table 3: benchmark programs and their average load latency\n")?;
    out.write_all(b"(measured on the base processor; category threshold 10 cycles)\n\n")?;
    let mut t = TextTable::new(vec![
        "program",
        "type",
        "paper lat",
        "measured lat",
        "measured category",
        "paper category",
        "match",
    ]);
    let names = profiles::names();
    let mut matches = 0;
    for p in &names {
        let r = ctx.run(p, SimModel::Base);
        let params = profiles::params_by_name(p).expect("known profile");
        let paper_lat = PAPER_LATENCY
            .iter()
            .find(|(n, _)| n == p)
            .map(|(_, l)| *l)
            .expect("paper latency table covers all profiles");
        let measured_cat = if r.avg_load_latency > 10.0 {
            Category::MemoryIntensive
        } else {
            Category::ComputeIntensive
        };
        let ok = measured_cat == r.category;
        matches += ok as u32;
        t.row(vec![
            p.to_string(),
            if params.is_fp { "fp" } else { "int" }.to_string(),
            format!("{paper_lat:.0}"),
            format!("{:.1}", r.avg_load_latency),
            measured_cat.label().to_string(),
            r.category.label().to_string(),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "category agreement: {matches}/{} programs",
        names.len()
    )?;
    Ok(())
}

/// Every profile on the base and the dynamic-resizing model.
pub(super) fn base_and_dynamic(b: &Budget) -> Vec<RunSpec> {
    grid(b, &profiles::names(), &[SimModel::Base, SimModel::Dynamic])
}

/// **Table 4** — additional cost vs speedup of the dynamic-resizing
/// hardware: area deltas against the base core, one Sandy Bridge core
/// and the whole Sandy Bridge chip, the measured GM-all speedup, and the
/// Pollack's-law expectation for the same area.
pub(super) fn table4(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    // Measure the GM-all speedup of the dynamic model over the base.
    let speedup = ctx.speedup(&profiles::names(), SimModel::Dynamic, SimModel::Base) - 1.0;

    let area = AreaModel::new();
    let report = area.cost_report(speedup);
    out.write_all(b"Table 4: additional cost vs speedup\n\n")?;
    let l2_extra = super::figures::big_l2_extra_mm2(&area);
    let l2_ratio = l2_extra / report.added_mm2;
    let mut t = TextTable::new(vec!["quantity", "measured", "paper"]);
    for (quantity, measured, paper) in [
        (
            "additional area",
            format!("{:.2} mm2", report.added_mm2),
            "1.6 mm2",
        ),
        ("vs base core", pct(report.vs_base_core), "+6%"),
        ("vs Sandy Bridge core", pct(report.vs_sb_core), "+8%"),
        (
            "vs Sandy Bridge chip (x4 cores)",
            pct(report.vs_sb_chip),
            "+3%",
        ),
        (
            "achieved speedup (GM all)",
            pct(report.measured_speedup),
            "+21%",
        ),
        (
            "Pollack's-law expectation",
            pct(report.pollack_speedup),
            "+3%",
        ),
        (
            "augmented-L2 alternative area",
            format!("{l2_extra:.2} mm2 (~{l2_ratio:.1}x window delta)"),
            "~1.3x, +1% IPC",
        ),
    ] {
        t.row(vec![quantity.to_string(), measured, paper.to_string()]);
    }
    writeln!(out, "{}", t.render())?;
    writeln!(
        out,
        "cost/performance: {:.1}x beyond the Pollack's-law return for the same area",
        report.measured_speedup / report.pollack_speedup
    )?;
    Ok(())
}

/// The paper's Table 5 values for side-by-side display.
const PAPER_DISTANCE: &[(&str, f64)] = &[
    ("libquantum", 3_703_704.0),
    ("omnetpp", 178.0),
    ("GemsFDTD", 10_064.0),
    ("lbm", 32_830.0),
    ("leslie3d", 1_608.0),
    ("milc", 3_448_276.0),
    ("soplex", 154.0),
    ("sphinx3", 327.0),
    ("gcc", 5_323.0),
    ("gobmk", 71.0),
    ("sjeng", 116.0),
    ("bwaves", 169.0),
    ("dealII", 1_294.0),
    ("tonto", 423.0),
];

pub(super) fn table5_specs(b: &Budget) -> Vec<RunSpec> {
    let programs: Vec<&str> = PAPER_DISTANCE.iter().map(|(p, _)| *p).collect();
    grid(b, &programs, &[SimModel::Base])
}

/// **Table 5** — average number of committed instructions between
/// adjacent mispredicted branches, on the base processor.
///
/// The paper's point: the distance is large relative to the window size
/// (especially for memory-intensive programs), so wrong-path loads bring
/// few lines into the L2 (Fig. 11). Absolute distances depend on the
/// synthetic branch populations; the ordering (libquantum/milc/lbm
/// enormous, gobmk/sjeng/soplex/omnetpp small) is the reproduced shape.
pub(super) fn table5(ctx: &Ctx, out: &mut dyn Write) -> Result<(), FigsError> {
    out.write_all(b"Table 5: committed instructions between adjacent mispredicted branches\n\n")?;
    let mut t = TextTable::new(vec!["program", "cat", "measured", "paper", "mispredicts"]);
    for (p, paper) in PAPER_DISTANCE {
        let r = ctx.run(p, SimModel::Base);
        let d = r.stats.mispredict_distance();
        let measured = if r.stats.committed_mispredicts == 0 {
            format!(">{:.0}", d)
        } else {
            format!("{d:.0}")
        };
        t.row(vec![
            p.to_string(),
            r.category.label().to_string(),
            measured,
            format!("{paper:.0}"),
            format!("{}", r.stats.committed_mispredicts),
        ]);
    }
    writeln!(out, "{}", t.render())?;

    // Ordering check: the three near-perfectly-predicted programs must
    // dwarf the branchy ones.
    let dist = |name: &str| ctx.run(name, SimModel::Base).stats.mispredict_distance();
    let huge = ["libquantum", "milc", "lbm"].map(dist);
    let small = ["gobmk", "sjeng", "soplex", "omnetpp"].map(dist);
    let sep =
        huge.iter().copied().fold(f64::MAX, f64::min) / small.iter().copied().fold(0.0, f64::max);
    writeln!(
        out,
        "ordering check: min(libquantum, milc, lbm) / max(gobmk, sjeng, soplex, omnetpp) = {sep:.0}x"
    )?;
    Ok(())
}
