//! The two benchmark workloads and the specs each one runs.
//!
//! Every spec is derived from the `--seed` argument alone, so one seed
//! always names the same inputs. See `simbench/README.md` for why each
//! workload was chosen and which layer it stresses.

use mlpwin_sim::journal::decode_line;
use mlpwin_sim::runner::RunSpec;
use mlpwin_sim::SimModel;
use mlpwin_workloads::profiles::SELECTED_COMP;

/// Memory-bound profiles of the `mlp` workload: four SPEC stand-ins plus
/// the two software-MLP kernels (no MLP to exploit / plenty of it).
pub const MLP_PROFILES: [&str; 6] = [
    "libquantum",
    "omnetpp",
    "GemsFDTD",
    "mcf",
    "chase-batch",
    "hash-probe",
];

/// Warm-up and measured instructions of each `ilp` spec.
pub const ILP_BUDGET: (u64, u64) = (100_000, 100_000);
/// Warm-up and measured instructions of each `mlp` spec: shorter than
/// `ilp`'s because the workload covers six seeds.
pub const MLP_BUDGET: (u64, u64) = (40_000, 40_000);
/// Intervals the traced run's split probe cuts a run into. Fixing the
/// count rather than the length keeps phase-2 parallelism and the
/// boundary frames held in memory the same whatever the seed does to
/// the run's cycle count.
pub const SPLIT_INTERVALS: u64 = 8;
/// Campaign worker processes and split and reference threads: the
/// host's two cores.
pub const WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Compute-bound profiles, base and dynamic, serially in-process.
    Ilp,
    /// Memory-bound profiles, base, dynamic and runahead, over six seeds
    /// (the software-MLP kernels' footprints vary with the seed), serially
    /// in-process.
    Mlp,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 2] = [Kind::Ilp, Kind::Mlp];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ilp => "ilp",
            Kind::Mlp => "mlp",
        }
    }

    /// Spec runs between two set-up and cached re-run samples, spread
    /// evenly over the run: about 250 of each in a 35-second `ilp` run,
    /// whose samples take 3 ms, and 50 to 70 in an `mlp` run, whose take
    /// 100 ms.
    pub fn sample_stride(self) -> usize {
        match self {
            Kind::Ilp => 1,
            Kind::Mlp => 6,
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's specs for `seed`.
    pub fn specs(self, seed: u64) -> Vec<RunSpec> {
        let cross = |profiles: &[&str], models: &[SimModel], seeds: &[u64], budget: (u64, u64)| {
            let mut specs = Vec::new();
            for &s in seeds {
                for p in profiles {
                    for &m in models {
                        let mut spec = RunSpec::new(p, m).with_budget(budget.0, budget.1);
                        spec.seed = s;
                        specs.push(spec);
                    }
                }
            }
            specs
        };
        match self {
            Kind::Ilp => cross(
                &SELECTED_COMP,
                &[SimModel::Base, SimModel::Dynamic],
                &[seed],
                ILP_BUDGET,
            ),
            Kind::Mlp => cross(
                &MLP_PROFILES,
                &[SimModel::Base, SimModel::Dynamic, SimModel::Runahead],
                &(0..6).map(|i| seed.wrapping_add(i)).collect::<Vec<_>>(),
                MLP_BUDGET,
            ),
        }
    }
}

/// The split interval, in measured cycles, that cuts a run into
/// [`SPLIT_INTERVALS`] intervals, from its reference journal line.
pub fn split_interval_cycles(reference: &str) -> u64 {
    let cycles = decode_line(reference).map_or(0, |(_, r)| r.stats.cycles);
    cycles.div_ceil(SPLIT_INTERVALS).max(1)
}

/// Committed correct-path instructions a spec simulates: warm-up plus
/// measured.
pub fn spec_insts(spec: &RunSpec) -> u64 {
    spec.warmup + spec.insts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_a_function_of_the_seed() {
        for kind in Kind::ALL {
            assert_eq!(kind.specs(7), kind.specs(7));
            assert_ne!(kind.specs(7), kind.specs(8));
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::Ilp.specs(1).len(), 12);
        assert_eq!(Kind::Mlp.specs(1).len(), 108);
    }
}
