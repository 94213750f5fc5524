//! Crash-safe matrix checkpointing.
//!
//! A [`Journal`] is a JSON-lines file (conventionally under
//! [`Journal::DEFAULT_DIR`]) holding one line per completed run: the
//! spec, its result, and an FNV-1a hash of the spec's canonical string.
//! A resumed campaign loads the journal, skips every spec whose decoded
//! entry matches exactly, and re-runs only the rest.
//!
//! Robustness rules:
//! - the hash is FNV-1a over a canonical rendering — stable across
//!   processes and compiler versions (unlike `DefaultHasher`);
//! - any line that fails to parse, fails the hash check, or decodes to a
//!   spec that no longer matches is *skipped*, not fatal: a truncated
//!   final line from a killed process merely re-runs one spec;
//! - only successful results are journaled — failed specs are always
//!   re-run so they produce fresh diagnostics.

use crate::error::SimError;
use crate::json::{num, read_fields, s, Json, Reader};
use crate::model::SimModel;
use crate::runner::{FaultSpec, RunResult, RunSpec};
use mlpwin_branch::PredictorStats;
use mlpwin_memsys::ProvenanceStats;
use mlpwin_ooo::{CoreStats, IntervalSample, LevelSpec, CPI_BUCKETS};
use mlpwin_workloads::Category;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// FNV-1a, 64-bit: tiny, dependency-free, stable everywhere.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical one-line rendering of a spec that the journal hash
/// covers. Every field participates: two specs differing anywhere get
/// different strings (and almost surely different hashes).
pub(crate) fn canonical_spec(spec: &RunSpec) -> String {
    let fault = match spec.fault {
        None => "-".to_string(),
        Some(FaultSpec::PanicAt(n)) => format!("panic@{n}"),
        Some(FaultSpec::LivelockAt(n)) => format!("livelock@{n}"),
    };
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}",
        spec.profile,
        spec.model.tag(),
        spec.warmup,
        spec.insts,
        spec.seed,
        spec.watchdog_cycles.map_or("-".into(), |v| v.to_string()),
        spec.deadline_cycles.map_or("-".into(), |v| v.to_string()),
        fault,
        spec.interval_cycles.map_or("-".into(), |v| v.to_string()),
    )
}

/// Stable 64-bit identity of a spec, used as the journal key.
pub fn spec_hash(spec: &RunSpec) -> u64 {
    fnv1a(canonical_spec(spec).as_bytes())
}

/// A JSON-lines file of completed `(spec, result)` pairs.
#[derive(Debug, Clone)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// Conventional directory for journals and other result artifacts.
    pub const DEFAULT_DIR: &'static str = "results";

    /// A journal at `path`. Nothing is opened until the first
    /// [`load`](Journal::load) or [`append`](Journal::append).
    pub fn new(path: impl Into<PathBuf>) -> Journal {
        Journal { path: path.into() }
    }

    /// The file this journal reads and appends.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads every decodable entry. A missing file is an empty journal;
    /// corrupt or stale lines (a kill mid-append, a hand edit) are
    /// skipped — the worst outcome of a bad line is re-running its spec.
    /// A line from an unknown schema (a journal written by a newer
    /// build) is also skipped, with a warning on stderr so the re-run is
    /// explicable.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, unreadable file).
    pub fn load(&self) -> Result<Vec<(RunSpec, RunResult)>, SimError> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(self.io_error(format!("read failed: {e}"))),
        };
        let mut entries = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match decode_line(line) {
                Some(entry) => entries.push(entry),
                None => {
                    if let Some(schema) = line_schema(line) {
                        if !KNOWN_SCHEMAS.contains(&schema) {
                            eprintln!(
                                "warning: {}:{}: skipping record with unknown schema {} \
                                 (this build reads {:?}); its spec will re-run",
                                self.path.display(),
                                n + 1,
                                schema,
                                KNOWN_SCHEMAS,
                            );
                        }
                    }
                }
            }
        }
        Ok(entries)
    }

    /// Appends one completed run. Creates the file (and its parent
    /// directory) on first use; each entry is a single `write` of one
    /// line, so a kill leaves at most one partial trailing line — and if
    /// a previous kill left one, the append starts on a fresh line so
    /// the partial entry cannot swallow the new one.
    ///
    /// # Errors
    ///
    /// I/O failures creating, opening or writing the file.
    pub fn append(&self, spec: &RunSpec, result: &RunResult) -> Result<(), SimError> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| self.io_error(format!("mkdir failed: {e}")))?;
            }
        }
        let mut line = encode_line(spec, result);
        line.push('\n');
        if self.missing_final_newline() {
            line.insert(0, '\n');
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| self.io_error(format!("open failed: {e}")))?;
        // Serialize concurrent appenders (many campaign workers share
        // one journal): the advisory lock rides the handle and releases
        // on close, so each entry lands as one uninterleaved line.
        crate::lock::lock_exclusive_blocking(&file)
            .map_err(|e| self.io_error(format!("flock failed: {e}")))?;
        file.write_all(line.as_bytes())
            .map_err(|e| self.io_error(format!("write failed: {e}")))?;
        Ok(())
    }

    /// Whether the file ends in a partial line (a kill mid-append).
    fn missing_final_newline(&self) -> bool {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let Ok(mut file) = std::fs::File::open(&self.path) else {
            return false; // no file yet — nothing to terminate
        };
        if file.seek(SeekFrom::End(-1)).is_err() {
            return false; // empty file
        }
        let mut last = [0u8; 1];
        file.read_exact(&mut last).is_ok() && last[0] != b'\n'
    }

    fn io_error(&self, detail: String) -> SimError {
        SimError::Journal {
            path: self.path.clone(),
            detail,
        }
    }
}

// --------------------------------------------------------------- encoding

pub(crate) fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn opt_num(v: Option<u64>) -> Json {
    v.map_or(Json::Null, num)
}

pub(crate) fn encode_spec(spec: &RunSpec) -> Json {
    let fault = match spec.fault {
        None => Json::Null,
        Some(FaultSpec::PanicAt(n)) => obj(vec![("panic_at", num(n))]),
        Some(FaultSpec::LivelockAt(n)) => obj(vec![("livelock_at", num(n))]),
    };
    obj(vec![
        ("profile", s(&spec.profile)),
        ("model", s(spec.model.tag())),
        ("warmup", num(spec.warmup)),
        ("insts", num(spec.insts)),
        ("seed", num(spec.seed)),
        ("watchdog", opt_num(spec.watchdog_cycles)),
        ("deadline", opt_num(spec.deadline_cycles)),
        ("fault", fault),
        ("intervals", opt_num(spec.interval_cycles)),
    ])
}

pub(crate) fn encode_stats(stats: &CoreStats) -> Json {
    obj(vec![
        ("cycles", num(stats.cycles)),
        ("committed_insts", num(stats.committed_insts)),
        ("committed_loads", num(stats.committed_loads)),
        ("committed_stores", num(stats.committed_stores)),
        ("committed_branches", num(stats.committed_branches)),
        (
            "committed_cond_branches",
            num(stats.committed_cond_branches),
        ),
        ("committed_mispredicts", num(stats.committed_mispredicts)),
        ("load_latency_sum", num(stats.load_latency_sum)),
        (
            "level_cycles",
            Json::Arr(stats.level_cycles.iter().copied().map(num).collect()),
        ),
        (
            "cpi_stack",
            Json::Arr(
                stats
                    .cpi_stack
                    .iter()
                    .map(|row| Json::Arr(row.iter().copied().map(num).collect()))
                    .collect(),
            ),
        ),
        (
            "intervals",
            Json::Arr(
                stats
                    .intervals
                    .iter()
                    .map(|i| {
                        Json::Arr(vec![
                            num(i.end_cycle),
                            num(i.committed_insts),
                            num(i.level as u64),
                            num(i.rob_occ as u64),
                            num(i.iq_occ as u64),
                            num(i.lsq_occ as u64),
                            num(i.outstanding_misses as u64),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("transitions_up", num(stats.transitions_up)),
        ("transitions_down", num(stats.transitions_down)),
        ("stall_transition", num(stats.stall_transition)),
        ("stall_shrink_wait", num(stats.stall_shrink_wait)),
        ("stall_rob_full", num(stats.stall_rob_full)),
        ("stall_iq_full", num(stats.stall_iq_full)),
        ("stall_lsq_full", num(stats.stall_lsq_full)),
        ("stall_fetch_empty", num(stats.stall_fetch_empty)),
        ("dispatched_total", num(stats.dispatched_total)),
        ("issued_total", num(stats.issued_total)),
        ("squashes", num(stats.squashes)),
        ("wrongpath_dispatched", num(stats.wrongpath_dispatched)),
        ("runahead_episodes", num(stats.runahead_episodes)),
        ("runahead_cycles", num(stats.runahead_cycles)),
        ("runahead_suppressed", num(stats.runahead_suppressed)),
        ("runahead_short_skips", num(stats.runahead_short_skips)),
        (
            "runahead_useful_episodes",
            num(stats.runahead_useful_episodes),
        ),
    ])
}

pub(crate) fn encode_result(result: &RunResult) -> Json {
    let category = match result.category {
        Category::MemoryIntensive => "mem",
        Category::ComputeIntensive => "comp",
    };
    obj(vec![
        ("category", s(category)),
        ("stats", encode_stats(&result.stats)),
        (
            "predictor",
            obj(vec![
                (
                    "conditional_branches",
                    num(result.predictor.conditional_branches),
                ),
                (
                    "unconditional_branches",
                    num(result.predictor.unconditional_branches),
                ),
                (
                    "direction_mispredicts",
                    num(result.predictor.direction_mispredicts),
                ),
                (
                    "target_mispredicts",
                    num(result.predictor.target_mispredicts),
                ),
                ("btb_hits", num(result.predictor.btb_hits)),
                ("btb_misses", num(result.predictor.btb_misses)),
            ]),
        ),
        (
            "provenance",
            obj(vec![
                ("corrpath_useful", num(result.provenance.corrpath_useful)),
                ("corrpath_useless", num(result.provenance.corrpath_useless)),
                ("wrongpath_useful", num(result.provenance.wrongpath_useful)),
                (
                    "wrongpath_useless",
                    num(result.provenance.wrongpath_useless),
                ),
                ("prefetch_useful", num(result.provenance.prefetch_useful)),
                ("prefetch_useless", num(result.provenance.prefetch_useless)),
            ]),
        ),
        (
            "l2_miss_cycles",
            Json::Arr(result.l2_miss_cycles.iter().copied().map(num).collect()),
        ),
        ("l1_accesses", num(result.l1_accesses)),
        ("l2_accesses", num(result.l2_accesses)),
        ("dram_lines", num(result.dram_lines)),
        ("avg_load_latency", Json::Num(result.avg_load_latency)),
        (
            "levels",
            Json::Arr(
                result
                    .levels
                    .iter()
                    .map(|l| {
                        obj(vec![
                            ("iq", num(l.iq as u64)),
                            ("rob", num(l.rob as u64)),
                            ("lsq", num(l.lsq as u64)),
                            ("iq_depth", num(l.iq_depth as u64)),
                            (
                                "extra_mispredict_penalty",
                                num(l.extra_mispredict_penalty as u64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The journal record schema this build writes. Bump it when the record
/// layout changes incompatibly; [`decode_line`] keeps accepting every
/// schema listed in [`KNOWN_SCHEMAS`].
pub const JOURNAL_SCHEMA: u64 = 2;

/// Record schemas this build can decode. Schema 1 is the legacy layout
/// whose version lived in a `"v"` field; schema 2 renamed it to
/// `"schema"` with an otherwise identical record body.
pub const KNOWN_SCHEMAS: &[u64] = &[1, JOURNAL_SCHEMA];

/// Encodes one journal line (no trailing newline).
pub fn encode_line(spec: &RunSpec, result: &RunResult) -> String {
    obj(vec![
        ("schema", num(JOURNAL_SCHEMA)),
        ("hash", s(format!("{:016x}", spec_hash(spec)))),
        ("spec", encode_spec(spec)),
        ("result", encode_result(result)),
    ])
    .encode()
}

// --------------------------------------------------------------- decoding
//
// Every reader of specs and results decodes through these functions: a
// `Reader` pulls each field straight into its struct, with no tree in
// between. Keys may come in any order, unknown keys are skipped, and a
// missing or mistyped field rejects the record.

fn read_owned(r: &mut Reader) -> Result<String, String> {
    r.string().map(Cow::into_owned)
}

fn read_opt_u64(r: &mut Reader) -> Result<Option<u64>, String> {
    r.nullable(Reader::u64)
}

fn narrow(n: u64) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("{n} does not fit 32 bits"))
}

fn read_u32(r: &mut Reader) -> Result<u32, String> {
    narrow(r.u64()?)
}

fn read_usize(r: &mut Reader) -> Result<usize, String> {
    let n = r.u64()?;
    usize::try_from(n).map_err(|_| format!("{n} does not fit a usize"))
}

/// An array of fixed-width counter rows.
fn read_rows<const N: usize>(r: &mut Reader) -> Result<Vec<[u64; N]>, String> {
    let mut rows = Vec::new();
    r.array(|r| {
        let row = r.u64s()?;
        let len = row.len();
        rows.push(<[u64; N]>::try_from(row).map_err(|_| format!("row of {len}, expected {N}"))?);
        Ok(())
    })?;
    Ok(rows)
}

fn read_model(r: &mut Reader) -> Result<SimModel, String> {
    let tag = r.string()?;
    SimModel::from_tag(&tag).ok_or_else(|| format!("unknown model `{tag}`"))
}

fn read_fault(r: &mut Reader) -> Result<Option<FaultSpec>, String> {
    r.nullable(|r| {
        read_fields!(r, {} optional {
            "panic_at" => panic_at: Reader::u64,
            "livelock_at" => livelock_at: Reader::u64,
        });
        panic_at
            .map(FaultSpec::PanicAt)
            .or(livelock_at.map(FaultSpec::LivelockAt))
            .ok_or_else(|| "fault names no kind".to_string())
    })
}

pub(crate) fn read_spec(r: &mut Reader) -> Result<RunSpec, String> {
    read_fields!(r, {
        "profile" => profile: read_owned,
        "model" => model: read_model,
        "warmup" => warmup: Reader::u64,
        "insts" => insts: Reader::u64,
        "seed" => seed: Reader::u64,
        "watchdog" => watchdog_cycles: read_opt_u64,
        "deadline" => deadline_cycles: read_opt_u64,
        "fault" => fault: read_fault,
        "intervals" => interval_cycles: read_opt_u64,
    });
    Ok(RunSpec {
        profile,
        model,
        warmup,
        insts,
        seed,
        watchdog_cycles,
        deadline_cycles,
        fault,
        interval_cycles,
    })
}

/// Decodes a spec embedded in an already-parsed tree (wire frames, WAL
/// records) with the same reader as journal lines.
pub(crate) fn spec_from_json(v: &Json) -> Option<RunSpec> {
    read_spec(&mut Reader::new(&v.encode())).ok()
}

fn read_intervals(r: &mut Reader) -> Result<Vec<IntervalSample>, String> {
    read_rows::<7>(r)?
        .into_iter()
        .map(
            |[end_cycle, committed_insts, level, rob_occ, iq_occ, lsq_occ, outstanding]| {
                Ok(IntervalSample {
                    end_cycle,
                    committed_insts,
                    level: narrow(level)?,
                    rob_occ: narrow(rob_occ)?,
                    iq_occ: narrow(iq_occ)?,
                    lsq_occ: narrow(lsq_occ)?,
                    outstanding_misses: narrow(outstanding)?,
                })
            },
        )
        .collect()
}

pub(crate) fn read_stats(r: &mut Reader) -> Result<CoreStats, String> {
    read_fields!(r, {
        "cycles" => cycles: Reader::u64,
        "committed_insts" => committed_insts: Reader::u64,
        "committed_loads" => committed_loads: Reader::u64,
        "committed_stores" => committed_stores: Reader::u64,
        "committed_branches" => committed_branches: Reader::u64,
        "committed_cond_branches" => committed_cond_branches: Reader::u64,
        "committed_mispredicts" => committed_mispredicts: Reader::u64,
        "load_latency_sum" => load_latency_sum: Reader::u64,
        "level_cycles" => level_cycles: Reader::u64s,
        "cpi_stack" => cpi_stack: read_rows::<CPI_BUCKETS>,
        "intervals" => intervals: read_intervals,
        "transitions_up" => transitions_up: Reader::u64,
        "transitions_down" => transitions_down: Reader::u64,
        "stall_transition" => stall_transition: Reader::u64,
        "stall_shrink_wait" => stall_shrink_wait: Reader::u64,
        "stall_rob_full" => stall_rob_full: Reader::u64,
        "stall_iq_full" => stall_iq_full: Reader::u64,
        "stall_lsq_full" => stall_lsq_full: Reader::u64,
        "stall_fetch_empty" => stall_fetch_empty: Reader::u64,
        "dispatched_total" => dispatched_total: Reader::u64,
        "issued_total" => issued_total: Reader::u64,
        "squashes" => squashes: Reader::u64,
        "wrongpath_dispatched" => wrongpath_dispatched: Reader::u64,
        "runahead_episodes" => runahead_episodes: Reader::u64,
        "runahead_cycles" => runahead_cycles: Reader::u64,
        "runahead_suppressed" => runahead_suppressed: Reader::u64,
        "runahead_short_skips" => runahead_short_skips: Reader::u64,
        "runahead_useful_episodes" => runahead_useful_episodes: Reader::u64,
    });
    Ok(CoreStats {
        cycles,
        committed_insts,
        committed_loads,
        committed_stores,
        committed_branches,
        committed_cond_branches,
        committed_mispredicts,
        load_latency_sum,
        level_cycles,
        cpi_stack,
        intervals,
        transitions_up,
        transitions_down,
        stall_transition,
        stall_shrink_wait,
        stall_rob_full,
        stall_iq_full,
        stall_lsq_full,
        stall_fetch_empty,
        dispatched_total,
        issued_total,
        squashes,
        wrongpath_dispatched,
        runahead_episodes,
        runahead_cycles,
        runahead_suppressed,
        runahead_short_skips,
        runahead_useful_episodes,
    })
}

fn read_category(r: &mut Reader) -> Result<Category, String> {
    match &*r.string()? {
        "mem" => Ok(Category::MemoryIntensive),
        "comp" => Ok(Category::ComputeIntensive),
        other => Err(format!("unknown category `{other}`")),
    }
}

fn read_predictor(r: &mut Reader) -> Result<PredictorStats, String> {
    read_fields!(r, {
        "conditional_branches" => conditional_branches: Reader::u64,
        "unconditional_branches" => unconditional_branches: Reader::u64,
        "direction_mispredicts" => direction_mispredicts: Reader::u64,
        "target_mispredicts" => target_mispredicts: Reader::u64,
        "btb_hits" => btb_hits: Reader::u64,
        "btb_misses" => btb_misses: Reader::u64,
    });
    Ok(PredictorStats {
        conditional_branches,
        unconditional_branches,
        direction_mispredicts,
        target_mispredicts,
        btb_hits,
        btb_misses,
    })
}

fn read_provenance(r: &mut Reader) -> Result<ProvenanceStats, String> {
    read_fields!(r, {
        "corrpath_useful" => corrpath_useful: Reader::u64,
        "corrpath_useless" => corrpath_useless: Reader::u64,
        "wrongpath_useful" => wrongpath_useful: Reader::u64,
        "wrongpath_useless" => wrongpath_useless: Reader::u64,
        "prefetch_useful" => prefetch_useful: Reader::u64,
        "prefetch_useless" => prefetch_useless: Reader::u64,
    });
    Ok(ProvenanceStats {
        corrpath_useful,
        corrpath_useless,
        wrongpath_useful,
        wrongpath_useless,
        prefetch_useful,
        prefetch_useless,
    })
}

fn read_levels(r: &mut Reader) -> Result<Vec<LevelSpec>, String> {
    let mut levels = Vec::new();
    r.array(|r| {
        read_fields!(r, {
            "iq" => iq: read_usize,
            "rob" => rob: read_usize,
            "lsq" => lsq: read_usize,
            "iq_depth" => iq_depth: read_u32,
            "extra_mispredict_penalty" => extra_mispredict_penalty: read_u32,
        });
        levels.push(LevelSpec {
            iq,
            rob,
            lsq,
            iq_depth,
            extra_mispredict_penalty,
        });
        Ok(())
    })?;
    Ok(levels)
}

/// Reads a result body. Its `spec` is not part of the body (a record
/// may carry the spec after the result), so it is left empty for the
/// caller to fill in.
pub(crate) fn read_result(r: &mut Reader) -> Result<RunResult, String> {
    read_fields!(r, {
        "category" => category: read_category,
        "stats" => stats: read_stats,
        "predictor" => predictor: read_predictor,
        "provenance" => provenance: read_provenance,
        "l2_miss_cycles" => l2_miss_cycles: Reader::u64s,
        "l1_accesses" => l1_accesses: Reader::u64,
        "l2_accesses" => l2_accesses: Reader::u64,
        "dram_lines" => dram_lines: Reader::u64,
        "avg_load_latency" => avg_load_latency: Reader::f64,
        "levels" => levels: read_levels,
    });
    Ok(RunResult {
        spec: RunSpec::new("", SimModel::Base),
        category,
        stats,
        predictor,
        provenance,
        l2_miss_cycles,
        l1_accesses,
        l2_accesses,
        dram_lines,
        avg_load_latency,
        levels,
        // Host-side engine telemetry is not journaled (the skip schedule
        // may differ between the engines while results stay identical).
        engine: Default::default(),
    })
}

/// The schema version a parseable journal line declares: the `"schema"`
/// field, falling back to the legacy `"v"` field. `None` when the line
/// is not JSON or carries neither.
pub fn line_schema(line: &str) -> Option<u64> {
    let v = Json::parse(line).ok()?;
    v.get("schema")
        .and_then(Json::as_u64)
        .or_else(|| v.get("v").and_then(Json::as_u64))
}

/// Decodes one journal line; `None` for anything malformed, from an
/// unknown schema, or with a hash that does not match its own spec (a
/// hand-edit or corruption).
pub fn decode_line(line: &str) -> Option<(RunSpec, RunResult)> {
    read_line(line).ok()
}

fn read_line(line: &str) -> Result<(RunSpec, RunResult), String> {
    let mut r = Reader::new(line);
    read_fields!(r, {
        "hash" => hash: Reader::string,
        "spec" => spec: read_spec,
        "result" => result: read_result,
    } optional {
        "schema" => schema: Reader::u64,
        "v" => legacy_schema: Reader::u64,
    });
    r.finish()?;
    let schema = schema.or(legacy_schema).ok_or("no schema")?;
    if !KNOWN_SCHEMAS.contains(&schema) {
        return Err(format!("unknown schema {schema}"));
    }
    if hash != format!("{:016x}", spec_hash(&spec)) {
        return Err("spec hash mismatch".into());
    }
    let result = RunResult {
        spec: spec.clone(),
        ..result
    };
    Ok((spec, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;

    fn sample() -> (RunSpec, RunResult) {
        let spec = RunSpec::new("libquantum", SimModel::Dynamic).with_budget(2_000, 2_000);
        let result = run(&spec).expect("healthy run");
        (spec, result)
    }

    #[test]
    fn hash_is_stable_and_field_sensitive() {
        let spec = RunSpec::new("gcc", SimModel::Base);
        assert_eq!(spec_hash(&spec), spec_hash(&spec.clone()));
        assert_ne!(spec_hash(&spec), spec_hash(&spec.clone().with_budget(1, 1)));
        assert_ne!(
            spec_hash(&spec),
            spec_hash(&spec.clone().with_fault(FaultSpec::PanicAt(5)))
        );
        assert_ne!(
            spec_hash(&spec.clone().with_fault(FaultSpec::PanicAt(5))),
            spec_hash(&spec.clone().with_fault(FaultSpec::LivelockAt(5)))
        );
        assert_ne!(spec_hash(&spec), spec_hash(&spec.clone().with_watchdog(9)));
    }

    #[test]
    fn lines_round_trip_exactly() {
        let (spec, result) = sample();
        let line = encode_line(&spec, &result);
        assert!(!line.contains('\n'));
        let (dspec, dresult) = decode_line(&line).expect("decodes");
        assert_eq!(dspec, spec);
        assert_eq!(dresult, result);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let (spec, result) = sample();
        let good = encode_line(&spec, &result);
        let half = &good[..good.len() / 2];
        let dir = std::env::temp_dir().join(format!(
            "mlpwin-journal-test-{}-{}",
            std::process::id(),
            spec_hash(&spec)
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("matrix.jsonl");
        std::fs::write(&path, format!("{good}\nnot json\n{half}")).expect("write");
        let journal = Journal::new(&path);
        let entries = journal.load().expect("load");
        assert_eq!(entries.len(), 1, "only the intact line survives");
        assert_eq!(entries[0].0, spec);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lines_declare_the_current_schema() {
        let (spec, result) = sample();
        let line = encode_line(&spec, &result);
        assert_eq!(line_schema(&line), Some(JOURNAL_SCHEMA));
        assert!(line_schema("not json").is_none());
        assert!(line_schema("{\"hash\":\"x\"}").is_none());
    }

    #[test]
    fn legacy_v1_lines_still_decode() {
        let (spec, result) = sample();
        let legacy = encode_line(&spec, &result).replace("\"schema\":2", "\"v\":1");
        assert_eq!(line_schema(&legacy), Some(1));
        let (dspec, dresult) = decode_line(&legacy).expect("legacy decodes");
        assert_eq!(dspec, spec);
        assert_eq!(dresult, result);
    }

    #[test]
    fn unknown_schema_records_are_skipped_on_resume() {
        let (spec, result) = sample();
        let good = encode_line(&spec, &result);
        let future = good.replace("\"schema\":2", "\"schema\":99");
        assert!(
            decode_line(&future).is_none(),
            "an unknown schema must not decode"
        );
        let dir = std::env::temp_dir().join(format!(
            "mlpwin-journal-schema-{}-{}",
            std::process::id(),
            spec_hash(&spec)
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("matrix.jsonl");
        std::fs::write(&path, format!("{future}\n{good}\n")).expect("write");
        let entries = Journal::new(&path).load().expect("load");
        assert_eq!(entries.len(), 1, "only the known-schema line survives");
        assert_eq!(entries[0].0, spec);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_hash_invalidates_the_line() {
        let (spec, result) = sample();
        let line = encode_line(&spec, &result)
            .replace(&format!("{:016x}", spec_hash(&spec)), "deadbeefdeadbeef");
        assert!(decode_line(&line).is_none());
    }

    #[test]
    fn missing_journal_is_empty() {
        let journal = Journal::new("/nonexistent/dir/never-created.jsonl");
        assert!(journal.load().expect("missing file is fine").is_empty());
    }

    #[test]
    fn append_creates_parents_and_accumulates() {
        let (spec, result) = sample();
        let dir =
            std::env::temp_dir().join(format!("mlpwin-journal-append-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("matrix.jsonl");
        let journal = Journal::new(&path);
        journal.append(&spec, &result).expect("first append");
        journal.append(&spec, &result).expect("second append");
        assert_eq!(journal.load().expect("load").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
