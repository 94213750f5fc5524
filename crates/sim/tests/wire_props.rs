//! Property-style fuzz suite for the fleet wire protocol.
//!
//! The workspace is dependency-free, so this is a hand-rolled fuzzer: a
//! deterministic LCG generates hundreds of random messages and byte
//! mutations against the real codec. Invariants:
//!
//! - **Round trip** — every generated message survives
//!   `encode_frame` → `read_frame` bit-exactly, alone and concatenated
//!   into multi-frame streams.
//! - **Torn tail is typed** — truncating a frame at *any* byte yields a
//!   typed [`WireError`] (`Closed` cleanly between frames, `Corrupt`
//!   mid-frame), never a panic, never a wrong message.
//! - **Corruption is typed** — flipping random bits anywhere in a frame
//!   is rejected by magic/length/CRC checks with a typed error.
//! - **Fault injection is statistical and deterministic** — a seeded
//!   [`NetFault`] drops/duplicates within tolerance of its configured
//!   per-mille rates, and the same seed replays the same schedule.
//! - **Parsing is linear** — a `Result` frame carrying a megabyte-long
//!   journal line, and a journal line with half a million miss cycles,
//!   each decode well inside a generous wall budget (a parser quadratic
//!   in the string length takes minutes on the first).

use mlpwin_sim::journal::{decode_line, encode_line};
use mlpwin_sim::runner::{run, RunResult, RunSpec};
use mlpwin_sim::wire::{encode_frame, read_frame, FaultAction, Msg, NetFault, WireError};
use mlpwin_sim::SimModel;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// The same LCG the queue and recovery chaos suites use.
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

    fn word(&mut self) -> String {
        let len = self.below(12) + 1;
        (0..len)
            .map(|_| {
                let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789-_.#";
                alphabet[self.below(alphabet.len() as u64) as usize] as char
            })
            .collect()
    }
}

fn random_spec(rng: &mut Lcg) -> RunSpec {
    let profile = ["gcc", "mcf", "milc", "libquantum"][rng.below(4) as usize];
    let model = SimModel::from_tag(["base", "dynamic"][rng.below(2) as usize]).expect("model tag");
    let mut spec = RunSpec::new(profile, model).with_budget(rng.below(10_000), rng.below(50_000));
    spec.seed = rng.next();
    spec
}

fn random_msg(rng: &mut Lcg) -> Msg {
    match rng.below(12) {
        0 => Msg::Hello {
            schema: rng.below(4),
            worker: rng.word(),
        },
        1 => Msg::Welcome { worker: rng.word() },
        2 => Msg::Reject { reason: rng.word() },
        3 => Msg::LeaseRequest,
        4 => Msg::LeaseGrant {
            job: rng.below(1_000),
            spec: random_spec(rng),
        },
        5 => Msg::Idle {
            backoff_ms: rng.below(5_000),
        },
        6 => Msg::Drain,
        7 => Msg::Heartbeat {
            job: rng.below(1_000),
            cycle: rng.next(),
            rtt_us: rng.below(100_000),
        },
        8 => Msg::Ack,
        9 => Msg::Result {
            job: rng.below(1_000),
            line: rng.word(),
        },
        10 => Msg::Settled {
            owned: rng.below(2) == 0,
        },
        _ => Msg::Failed {
            job: rng.below(1_000),
            detail: rng.word(),
        },
    }
}

#[test]
fn fuzzed_messages_round_trip_alone_and_in_streams() {
    let mut rng = Lcg(0xC0DE_C0DE_1234_5678);
    for _ in 0..300 {
        let msg = random_msg(&mut rng);
        let frame = encode_frame(&msg);
        let got = read_frame(&mut Cursor::new(&frame)).expect("decode own encoding");
        assert_eq!(got, msg, "single-frame round trip");
    }
    // Streams: 2..=9 frames back to back on one reader, then a clean
    // EOF that must surface as `Closed`, not `Corrupt`.
    for _ in 0..60 {
        let batch: Vec<Msg> = (0..rng.below(8) + 2)
            .map(|_| random_msg(&mut rng))
            .collect();
        let mut stream = Vec::new();
        for msg in &batch {
            stream.extend_from_slice(&encode_frame(msg));
        }
        let mut cursor = Cursor::new(&stream);
        for (n, want) in batch.iter().enumerate() {
            let got = read_frame(&mut cursor).unwrap_or_else(|e| panic!("frame {n}: {e}"));
            assert_eq!(&got, want, "frame {n} of the stream");
        }
        assert!(
            matches!(read_frame(&mut cursor), Err(WireError::Closed)),
            "EOF between frames is a clean close"
        );
    }
}

#[test]
fn fuzzed_truncations_are_typed_errors_never_panics() {
    let mut rng = Lcg(0x7E57_7E57_ABCD_EF01);
    for _ in 0..40 {
        let msg = random_msg(&mut rng);
        let frame = encode_frame(&msg);
        for cut in 0..frame.len() {
            match read_frame(&mut Cursor::new(&frame[..cut])) {
                Err(WireError::Closed) => {
                    assert_eq!(cut, 0, "`Closed` only before the first byte (cut {cut})");
                }
                Err(WireError::Corrupt { .. }) => {
                    assert!(cut > 0, "mid-frame tears are `Corrupt` (cut {cut})");
                }
                Err(other) => panic!("cut {cut}: unexpected error class {other}"),
                Ok(got) => panic!("cut {cut} of {} decoded as {got:?}", frame.len()),
            }
        }
    }
}

#[test]
fn fuzzed_bit_and_byte_corruption_is_rejected() {
    let mut rng = Lcg(0xBAD0_BEEF_0000_0001);
    for _ in 0..200 {
        let msg = random_msg(&mut rng);
        let mut frame = encode_frame(&msg);
        // 1..=4 random byte-level mutations anywhere in the frame.
        for _ in 0..rng.below(4) + 1 {
            let at = rng.below(frame.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            frame[at] ^= 1 << bit;
        }
        match read_frame(&mut Cursor::new(&frame)) {
            Err(WireError::Corrupt { .. }) => {}
            Err(other) => panic!("corruption surfaced as {other}, want Corrupt"),
            // A flip can cancel itself out if the same bit is hit twice;
            // only then may the read still succeed — and it must decode
            // to the original, never to a different message.
            Ok(got) => assert_eq!(got, msg, "CRC accepted a *different* message"),
        }
    }
}

#[test]
fn netfault_rates_hold_statistically_and_replay_exactly() {
    let fault = NetFault::parse("seed=42,drop=100,dup=50,delay=2").expect("spec");
    let mut a = fault.for_connection(7);
    let mut b = fault.for_connection(7);
    let mut drops = 0u32;
    let mut dups = 0u32;
    let rolls = 4_000;
    for _ in 0..rolls {
        let act_a = a.next_action().expect("no partition configured");
        let act_b = b.next_action().expect("no partition configured");
        assert_eq!(act_a, act_b, "same seed, same connection, same schedule");
        match act_a {
            FaultAction::Drop => drops += 1,
            FaultAction::Duplicate => dups += 1,
            FaultAction::Delay(ms) => assert!(ms <= 2, "delay bounded by spec"),
            _ => {}
        }
    }
    // 100‰ of 4000 = 400 expected drops, 50‰ = 200 expected dups; a
    // ±50% band is loose enough to never flake with a fixed seed (the
    // observed values are deterministic anyway) while still proving the
    // rates are wired to the right knobs.
    assert!(
        (200..=600).contains(&drops),
        "drop rate off: {drops}/{rolls}"
    );
    assert!((100..=300).contains(&dups), "dup rate off: {dups}/{rolls}");

    // A different connection id must yield a different schedule.
    let mut c = fault.for_connection(8);
    let mut d = fault.for_connection(7);
    let diverged = (0..64)
        .any(|_| c.next_action().expect("no partition") != d.next_action().expect("no partition"));
    assert!(diverged, "per-connection reseeding must diverge schedules");
}

/// Wall budget for decoding one large input, debug builds included.
const LINEAR_BUDGET: Duration = Duration::from_secs(5);

/// A real result whose miss-cycle list is stretched to `misses`
/// ascending cycles, as a long memory-bound run journals them.
fn result_with_misses(misses: u64) -> (RunSpec, RunResult) {
    let spec = RunSpec::new("mcf", SimModel::Dynamic).with_budget(2_000, 2_000);
    let mut result = run(&spec).expect("healthy run");
    result.l2_miss_cycles = (0..misses).map(|i| 100_000 + i * 37).collect();
    (spec, result)
}

#[test]
fn megabyte_result_frame_decodes_in_linear_time() {
    let (spec, result) = result_with_misses(150_000);
    let line = encode_line(&spec, &result);
    assert!(line.len() >= 1 << 20, "the line is {} bytes", line.len());
    let frame = encode_frame(&Msg::Result { job: 7, line });
    let start = Instant::now();
    let msg = read_frame(&mut Cursor::new(&frame)).expect("frame decodes");
    let Msg::Result { job: 7, line } = msg else {
        panic!("decoded as another message")
    };
    let decoded = decode_line(&line).expect("carried line decodes");
    let took = start.elapsed();
    assert_eq!(decoded, (spec, result));
    assert!(took < LINEAR_BUDGET, "decoding took {took:?}");
}

#[test]
fn half_million_miss_cycles_decode_in_linear_time() {
    let (spec, result) = result_with_misses(500_000);
    let line = encode_line(&spec, &result);
    let start = Instant::now();
    let decoded = decode_line(&line).expect("line decodes");
    let took = start.elapsed();
    assert_eq!(decoded, (spec, result));
    assert!(took < LINEAR_BUDGET, "decoding took {took:?}");
}
