//! Property-style fuzz suite for the journal line decoder.
//!
//! The workspace is dependency-free, so this is a hand-rolled fuzzer: a
//! deterministic LCG generates random specs, results and byte mutations
//! against the real codec. Invariants:
//!
//! - **Round trip** — every generated `(spec, result)` survives
//!   `encode_line` → `decode_line` exactly, and re-encodes to the same
//!   bytes. Specs cover every [`SimModel`], both [`FaultSpec`]s and the
//!   optional watchdog, deadline and interval fields; results cover
//!   counters up to 2^53, empty and long arrays and fractional floats.
//! - **Layout freedom** — shuffled keys and extra unknown keys at any
//!   depth still decode to the same entry; a legacy `"v":1` line too.
//! - **Strictness** — dropping any field, or giving it a value of the
//!   wrong type, rejects the line.
//! - **No panics** — every truncation of a sample line is rejected, and
//!   every seeded one-byte mutation is either rejected or decodes to an
//!   entry whose re-encoded line decodes again (its hash verifies).

use mlpwin_branch::PredictorStats;
use mlpwin_memsys::ProvenanceStats;
use mlpwin_ooo::{CoreStats, IntervalSample, LevelSpec, CPI_BUCKETS};
use mlpwin_sim::journal::{decode_line, encode_line};
use mlpwin_sim::json::{Json, MAX_EXACT};
use mlpwin_sim::{FaultSpec, RunResult, RunSpec, SimModel};
use mlpwin_workloads::Category;

/// The same LCG the queue, wire and recovery suites use.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    /// A counter from every range the codec must carry exactly: zero,
    /// small, anything below 2^53, and the top of the exact range.
    fn counter(&mut self) -> u64 {
        match self.below(4) {
            0 => 0,
            1 => self.below(1_000),
            2 => self.next(),
            _ => MAX_EXACT - self.below(3),
        }
    }

    fn u32(&mut self) -> u32 {
        self.below(1 << 32) as u32
    }

    fn opt(&mut self) -> Option<u64> {
        (self.below(2) == 0).then(|| self.counter())
    }

    fn counters(&mut self, max_len: u64) -> Vec<u64> {
        let len = match self.below(3) {
            0 => 0,
            1 => self.below(8),
            _ => self.below(max_len),
        };
        (0..len).map(|_| self.counter()).collect()
    }

    /// A profile name, sometimes with characters that need escapes.
    fn name(&mut self) -> String {
        let alphabet = [
            "a", "m", "c", "f", "-", "_", "7", "\"", "\\", "é", "\n", "😀",
        ];
        let len = self.below(10) + 1;
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect()
    }
}

const MODELS: [SimModel; 11] = [
    SimModel::Base,
    SimModel::Fixed(1),
    SimModel::Fixed(2),
    SimModel::Fixed(3),
    SimModel::Ideal(1),
    SimModel::Ideal(2),
    SimModel::Ideal(3),
    SimModel::Dynamic,
    SimModel::Runahead,
    SimModel::RunaheadNoCst,
    SimModel::BigL2,
];

fn random_spec(rng: &mut Lcg) -> RunSpec {
    let model = MODELS[rng.below(MODELS.len() as u64) as usize];
    let mut spec = RunSpec::new(&rng.name(), model).with_budget(rng.counter(), rng.counter());
    spec.seed = rng.counter();
    spec.watchdog_cycles = rng.opt();
    spec.deadline_cycles = rng.opt();
    spec.interval_cycles = rng.opt();
    spec.fault = match rng.below(3) {
        0 => None,
        1 => Some(FaultSpec::PanicAt(rng.counter())),
        _ => Some(FaultSpec::LivelockAt(rng.counter())),
    };
    spec
}

fn random_stats(rng: &mut Lcg) -> CoreStats {
    let cpi_rows = rng.below(4);
    let intervals = rng.below(3) * rng.below(40);
    CoreStats {
        cycles: rng.counter(),
        committed_insts: rng.counter(),
        committed_loads: rng.counter(),
        committed_stores: rng.counter(),
        committed_branches: rng.counter(),
        committed_cond_branches: rng.counter(),
        committed_mispredicts: rng.counter(),
        load_latency_sum: rng.counter(),
        level_cycles: rng.counters(6),
        cpi_stack: (0..cpi_rows)
            .map(|_| std::array::from_fn::<u64, CPI_BUCKETS, _>(|_| rng.counter()))
            .collect(),
        intervals: (0..intervals)
            .map(|_| IntervalSample {
                end_cycle: rng.counter(),
                committed_insts: rng.counter(),
                level: rng.u32(),
                rob_occ: rng.u32(),
                iq_occ: rng.u32(),
                lsq_occ: rng.u32(),
                outstanding_misses: rng.u32(),
            })
            .collect(),
        transitions_up: rng.counter(),
        transitions_down: rng.counter(),
        stall_transition: rng.counter(),
        stall_shrink_wait: rng.counter(),
        stall_rob_full: rng.counter(),
        stall_iq_full: rng.counter(),
        stall_lsq_full: rng.counter(),
        stall_fetch_empty: rng.counter(),
        dispatched_total: rng.counter(),
        issued_total: rng.counter(),
        squashes: rng.counter(),
        wrongpath_dispatched: rng.counter(),
        runahead_episodes: rng.counter(),
        runahead_cycles: rng.counter(),
        runahead_suppressed: rng.counter(),
        runahead_short_skips: rng.counter(),
        runahead_useful_episodes: rng.counter(),
    }
}

fn random_result(rng: &mut Lcg, spec: &RunSpec) -> RunResult {
    let avg_load_latency = match rng.below(3) {
        0 => rng.below(400) as f64,
        1 => rng.next() as f64 / 1024.0 + 0.1,
        _ => (rng.counter() as f64) * 1e290 / 3.0,
    };
    RunResult {
        spec: spec.clone(),
        category: if rng.below(2) == 0 {
            Category::MemoryIntensive
        } else {
            Category::ComputeIntensive
        },
        stats: random_stats(rng),
        predictor: PredictorStats {
            conditional_branches: rng.counter(),
            unconditional_branches: rng.counter(),
            direction_mispredicts: rng.counter(),
            target_mispredicts: rng.counter(),
            btb_hits: rng.counter(),
            btb_misses: rng.counter(),
        },
        provenance: ProvenanceStats {
            corrpath_useful: rng.counter(),
            corrpath_useless: rng.counter(),
            wrongpath_useful: rng.counter(),
            wrongpath_useless: rng.counter(),
            prefetch_useful: rng.counter(),
            prefetch_useless: rng.counter(),
        },
        l2_miss_cycles: rng.counters(5_000),
        l1_accesses: rng.counter(),
        l2_accesses: rng.counter(),
        dram_lines: rng.counter(),
        avg_load_latency,
        levels: (0..rng.below(4))
            .map(|_| LevelSpec {
                iq: rng.counter() as usize,
                rob: rng.counter() as usize,
                lsq: rng.counter() as usize,
                iq_depth: rng.u32(),
                extra_mispredict_penalty: rng.u32(),
            })
            .collect(),
        engine: Default::default(),
    }
}

fn random_entry(rng: &mut Lcg) -> (RunSpec, RunResult) {
    let spec = random_spec(rng);
    let result = random_result(rng, &spec);
    (spec, result)
}

/// Writes `v` with every object's keys in a random order and, when
/// `extras` is set, a random unknown key added to some objects.
fn write_shuffled(v: &Json, rng: &mut Lcg, extras: bool, out: &mut String) {
    match v {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_shuffled(item, rng, extras, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            let mut pairs: Vec<(String, Json)> =
                map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            if extras && rng.below(2) == 0 {
                let unknown = match rng.below(4) {
                    0 => Json::Null,
                    1 => Json::Num(-1.5e3),
                    2 => Json::Str("x\"\\y".into()),
                    _ => Json::parse(r#"[{"k":[1,2.5,null]},true]"#).expect("nested value"),
                };
                pairs.push((format!("zz_unknown_{}", rng.below(100)), unknown));
            }
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.below(i as u64 + 1) as usize);
            }
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(if rng.below(4) == 0 { " , " } else { "," });
                }
                out.push_str(&Json::Str(k.clone()).encode());
                out.push(':');
                write_shuffled(v, rng, extras, out);
            }
            out.push('}');
        }
        other => out.push_str(&other.encode()),
    }
}

#[test]
fn random_lines_round_trip_exactly() {
    let mut rng = Lcg(0x10C0_10C0_2468_ACE0);
    for n in 0..300 {
        let (spec, result) = random_entry(&mut rng);
        let line = encode_line(&spec, &result);
        let (dspec, dresult) =
            decode_line(&line).unwrap_or_else(|| panic!("entry {n} must decode: {line:.300}"));
        assert_eq!(dspec, spec, "entry {n}: spec");
        assert_eq!(dresult, result, "entry {n}: result");
        assert_eq!(
            dresult.avg_load_latency.to_bits(),
            result.avg_load_latency.to_bits(),
            "entry {n}: avg_load_latency must round-trip bit-exactly"
        );
        assert_eq!(
            encode_line(&dspec, &dresult),
            line,
            "entry {n}: re-encoding"
        );
    }
}

#[test]
fn shuffled_keys_and_unknown_keys_still_decode() {
    let mut rng = Lcg(0x5AFF_1E00_0000_0001);
    for n in 0..120 {
        let (spec, result) = random_entry(&mut rng);
        let tree = Json::parse(&encode_line(&spec, &result)).expect("own line parses");
        let extras = n % 2 == 1;
        let mut text = String::new();
        write_shuffled(&tree, &mut rng, extras, &mut text);
        let (dspec, dresult) = decode_line(&text)
            .unwrap_or_else(|| panic!("entry {n} (unknown keys: {extras}): {text:.300}"));
        assert_eq!(dspec, spec, "entry {n}: spec");
        assert_eq!(dresult, result, "entry {n}: result");
    }
    let (spec, result) = random_entry(&mut rng);
    let legacy = encode_line(&spec, &result).replace("\"schema\":2", "\"v\":1");
    assert_eq!(decode_line(&legacy), Some((spec, result)), "legacy v1 line");
}

/// Every object member of `v` as a path of keys, descending into the
/// first element of each array (as key `"0"`).
fn member_paths(v: &Json, prefix: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    match v {
        Json::Obj(map) => {
            for (k, child) in map {
                prefix.push(k.clone());
                out.push(prefix.clone());
                member_paths(child, prefix, out);
                prefix.pop();
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            prefix.push("0".into());
            member_paths(&items[0], prefix, out);
            prefix.pop();
        }
        _ => {}
    }
}

/// `v` with the member at `path` removed (`None`) or replaced.
fn edit(v: &Json, path: &[String], replacement: Option<&Json>) -> Json {
    let (key, rest) = path.split_first().expect("non-empty path");
    match v {
        Json::Arr(items) => {
            let mut items = items.clone();
            items[0] = edit(&items[0], rest, replacement);
            Json::Arr(items)
        }
        Json::Obj(map) => {
            let mut map = map.clone();
            match (rest.is_empty(), replacement) {
                (true, Some(new)) => drop(map.insert(key.clone(), new.clone())),
                (true, None) => drop(map.remove(key)),
                (false, _) => {
                    let child = edit(&map[key], rest, replacement);
                    map.insert(key.clone(), child);
                }
            }
            Json::Obj(map)
        }
        _ => unreachable!("paths only run through objects and arrays"),
    }
}

#[test]
fn dropping_or_retyping_any_field_rejects_the_line() {
    let mut rng = Lcg(0xD0D0_F1E1_D000_0003);
    let spec = random_spec(&mut rng)
        .with_watchdog(9_000)
        .with_fault(FaultSpec::LivelockAt(77));
    let mut result = random_result(&mut rng, &spec);
    result.levels.push(LevelSpec {
        iq: 32,
        rob: 128,
        lsq: 48,
        iq_depth: 1,
        extra_mispredict_penalty: 0,
    });
    let tree = Json::parse(&encode_line(&spec, &result)).expect("own line parses");
    let mut paths = Vec::new();
    member_paths(&tree, &mut Vec::new(), &mut paths);
    // 4 top-level, 9 spec + 1 fault, 10 result, 28 stats, 6 predictor,
    // 6 provenance and 5 level members.
    assert_eq!(paths.len(), 69, "every member is visited");
    let wrong_type = Json::Str("x".into());
    for path in &paths {
        let dropped = edit(&tree, path, None).encode();
        assert!(
            decode_line(&dropped).is_none(),
            "line without {path:?} decoded"
        );
        let retyped = edit(&tree, path, Some(&wrong_type)).encode();
        assert!(
            decode_line(&retyped).is_none(),
            "line with {path:?} replaced by a string decoded"
        );
    }
}

#[test]
fn truncations_and_byte_mutations_never_panic() {
    let mut rng = Lcg(0xB17E_B17E_0000_0004);
    let spec = random_spec(&mut rng).with_fault(FaultSpec::PanicAt(3));
    let mut result = random_result(&mut rng, &spec);
    result.l2_miss_cycles = (0..40).map(|i| i * 1_000 + 17).collect();
    result.avg_load_latency = 123.456;
    let line = encode_line(&spec, &result);
    for cut in 0..line.len() {
        assert!(
            decode_line(&line[..cut]).is_none(),
            "a prefix of {cut} bytes decoded"
        );
    }
    let mut accepted = 0;
    for _ in 0..3_000 {
        let mut bytes = line.clone().into_bytes();
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] = rng.below(128) as u8;
        let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        if let Some((mspec, mresult)) = decode_line(&mutated) {
            accepted += 1;
            let again = encode_line(&mspec, &mresult);
            assert_eq!(
                decode_line(&again),
                Some((mspec, mresult)),
                "a mutation at byte {at} decoded to an entry that does not re-verify"
            );
        }
    }
    assert!(
        0 < accepted && accepted < 3_000,
        "the mutations exercise both outcomes ({accepted} of 3000 decoded)"
    );
}
