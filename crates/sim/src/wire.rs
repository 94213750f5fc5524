//! The fleet wire protocol: remote workers over TCP.
//!
//! `mlpwin-serve --fleet-listen ADDR` accepts connections from
//! `mlpwin-worker` processes on other machines and drives the same
//! lease/heartbeat/settle state machine the local worker threads use —
//! over a std-only, length-prefixed, CRC-guarded frame protocol that
//! trusts nothing about the network:
//!
//! - **Frames, not streams.** Every message is one frame:
//!   `MAGIC(4) | len u32 LE | crc32 u32 LE | payload`, where the
//!   payload is one JSON object and the CRC covers exactly the payload
//!   bytes. A truncated, bit-flipped, overlong, or mis-tagged frame is
//!   a typed [`WireError`] — never a panic, never a silently wrong
//!   message.
//! - **Schema-versioned handshake.** The first frame on every
//!   connection is [`Msg::Hello`] carrying [`WIRE_SCHEMA`]; a
//!   controller from a different build answers [`Msg::Reject`] and
//!   closes, so mixed-version fleets fail loudly at connect time
//!   instead of corrupting a campaign.
//! - **Request/response discipline.** The worker speaks strictly
//!   send-one/receive-one; anything unexpected (a stale duplicate
//!   response, garbage) makes it treat the connection as dead and
//!   reconnect. The controller settles every frame idempotently, so a
//!   retried or duplicated request can waste a little time but never
//!   lose or double-count a job.
//! - **Deterministic fault injection.** [`NetFault`] wraps the send
//!   path with an LCG-driven schedule of drop / duplicate / truncate /
//!   delay / partition faults, seeded per connection — the chaos suites
//!   replay the exact same hostile network every run and assert the
//!   final journal is byte-identical to a serial reference.
//!
//! The module is transport-generic where it can be tested that way:
//! [`write_frame`]/[`read_frame`] run over any `Write`/`Read`, so the
//! fuzz suite exercises the codec on in-memory buffers, while
//! [`Conn`] adds the TCP specifics (connect/read/write timeouts and
//! the idle-tick read used by the controller's per-connection loop).

use crate::error::SimError;
use crate::journal::{encode_spec, spec_from_json};
use crate::json::{num, obj, s, Json};
use crate::queue::JobId;
use crate::runner::RunSpec;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The wire schema this build speaks. Bump on any incompatible frame
/// or message change; handshakes across a mismatch are rejected.
pub const WIRE_SCHEMA: u64 = 1;

/// Frame preamble: identifies an mlpwin fleet stream at byte zero.
pub const MAGIC: [u8; 4] = *b"MLPW";

/// Largest payload a frame may carry. Far above any real message (the
/// biggest is a journal line, tens of KiB); a length field past this is
/// corruption, not a request for a 4 GiB allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Default socket timeout for fleet connections: long enough for a
/// worker sleeping out an idle backoff, short enough that a vanished
/// peer is detected well inside a lease.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything that can go wrong on the wire, typed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying transport failed (connect, read, write, timeout
    /// mid-frame with nothing salvageable). Reconnect is the remedy.
    Io {
        /// What the transport said.
        detail: String,
    },
    /// Bytes arrived but do not form a valid frame or message: bad
    /// magic, oversize length, CRC mismatch, unparsable payload,
    /// unknown message tag, or a truncation mid-frame.
    Corrupt {
        /// Which check failed.
        detail: String,
    },
    /// The peer speaks a different [`WIRE_SCHEMA`]; the handshake was
    /// rejected and retrying cannot help.
    SchemaMismatch {
        /// Our schema.
        ours: u64,
        /// The peer's schema (or the reject reason it sent).
        theirs: String,
    },
    /// The peer closed the connection cleanly between frames.
    Closed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io { detail } => write!(f, "wire I/O: {detail}"),
            WireError::Corrupt { detail } => write!(f, "corrupt frame: {detail}"),
            WireError::SchemaMismatch { ours, theirs } => {
                write!(f, "wire schema mismatch: ours {ours}, peer said {theirs}")
            }
            WireError::Closed => write!(f, "connection closed by peer"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for SimError {
    fn from(e: WireError) -> SimError {
        SimError::Campaign {
            detail: e.to_string(),
        }
    }
}

// ------------------------------------------------------------- messages

/// One protocol message. The worker initiates every exchange; the
/// controller answers each request with exactly one response.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → controller, first frame on every connection.
    Hello {
        /// The worker's [`WIRE_SCHEMA`].
        schema: u64,
        /// The worker's self-chosen base name (e.g. `alpha`).
        worker: String,
    },
    /// Controller → worker: handshake accepted. Carries the unique
    /// identity assigned to this connection (`<name>#<conn>`), which
    /// the queue uses as the lease owner.
    Welcome {
        /// The assigned worker identity.
        worker: String,
    },
    /// Controller → worker: handshake refused (schema mismatch, drain).
    /// The connection closes after this frame.
    Reject {
        /// Why.
        reason: String,
    },
    /// Worker → controller: give me a job.
    LeaseRequest,
    /// Controller → worker: run this spec under this lease.
    LeaseGrant {
        /// The leased job's queue id.
        job: JobId,
        /// The full spec to simulate.
        spec: RunSpec,
    },
    /// Controller → worker: nothing schedulable right now; ask again
    /// after the hinted backoff.
    Idle {
        /// Suggested wait before the next [`Msg::LeaseRequest`].
        backoff_ms: u64,
    },
    /// Controller → worker: the campaign is over (drained or
    /// interrupted); finish up and exit cleanly.
    Drain,
    /// Worker → controller: still alive on `job`, renew my lease.
    Heartbeat {
        /// The job being simulated.
        job: JobId,
        /// Simulated cycle reached (diagnostic).
        cycle: u64,
        /// Round-trip time the worker measured on its previous
        /// exchange, in µs (0 = not yet measured). Feeds the
        /// controller's per-worker RTT histogram.
        rtt_us: u64,
    },
    /// Controller → worker: heartbeat (or failure report) received.
    Ack,
    /// Worker → controller: the job finished; here is its journal
    /// line (spec + result, hash-guarded — the same encoding
    /// `done.jsonl` uses, so the controller verifies it with the
    /// existing decoder).
    Result {
        /// The job the worker believes it ran.
        job: JobId,
        /// The [`crate::journal::encode_line`] rendering.
        line: String,
    },
    /// Controller → worker: result absorbed. `owned` says whether this
    /// worker's lease was still live and the settle counted — `false`
    /// means the result was a duplicate (already done, or re-leased
    /// elsewhere) and was absorbed without double-counting.
    Settled {
        /// Whether this worker's lease performed the settle.
        owned: bool,
    },
    /// Worker → controller: the spec failed with a deterministic,
    /// typed error (not a crash — those just vaporize the worker and
    /// the lease expires).
    Failed {
        /// The failed job.
        job: JobId,
        /// The typed failure rendering.
        detail: String,
    },
}

impl Msg {
    /// The message's wire tag (also its log-friendly name).
    pub fn tag(&self) -> &'static str {
        match self {
            Msg::Hello { .. } => "hello",
            Msg::Welcome { .. } => "welcome",
            Msg::Reject { .. } => "reject",
            Msg::LeaseRequest => "lease_request",
            Msg::LeaseGrant { .. } => "lease_grant",
            Msg::Idle { .. } => "idle",
            Msg::Drain => "drain",
            Msg::Heartbeat { .. } => "heartbeat",
            Msg::Ack => "ack",
            Msg::Result { .. } => "result",
            Msg::Settled { .. } => "settled",
            Msg::Failed { .. } => "failed",
        }
    }

    /// The JSON payload of this message.
    pub fn encode(&self) -> Json {
        let mut pairs = vec![("type", s(self.tag()))];
        match self {
            Msg::Hello { schema, worker } => {
                pairs.push(("schema", num(*schema)));
                pairs.push(("worker", s(worker.clone())));
            }
            Msg::Welcome { worker } => pairs.push(("worker", s(worker.clone()))),
            Msg::Reject { reason } => pairs.push(("reason", s(reason.clone()))),
            Msg::LeaseRequest | Msg::Drain | Msg::Ack => {}
            Msg::LeaseGrant { job, spec } => {
                pairs.push(("job", num(*job)));
                pairs.push(("spec", encode_spec(spec)));
            }
            Msg::Idle { backoff_ms } => pairs.push(("backoff_ms", num(*backoff_ms))),
            Msg::Heartbeat { job, cycle, rtt_us } => {
                pairs.push(("job", num(*job)));
                pairs.push(("cycle", num(*cycle)));
                pairs.push(("rtt_us", num(*rtt_us)));
            }
            Msg::Result { job, line } => {
                pairs.push(("job", num(*job)));
                pairs.push(("line", s(line.clone())));
            }
            Msg::Settled { owned } => pairs.push(("owned", Json::Bool(*owned))),
            Msg::Failed { job, detail } => {
                pairs.push(("job", num(*job)));
                pairs.push(("detail", s(detail.clone())));
            }
        }
        obj(pairs)
    }

    /// Decodes a frame payload; `None` for unknown tags or missing
    /// fields (the caller wraps it in [`WireError::Corrupt`]).
    pub fn decode(v: &Json) -> Option<Msg> {
        let job = || v.get("job").and_then(Json::as_u64);
        match v.get("type")?.as_str()? {
            "hello" => Some(Msg::Hello {
                schema: v.get("schema")?.as_u64()?,
                worker: v.get("worker")?.as_str()?.to_string(),
            }),
            "welcome" => Some(Msg::Welcome {
                worker: v.get("worker")?.as_str()?.to_string(),
            }),
            "reject" => Some(Msg::Reject {
                reason: v.get("reason")?.as_str()?.to_string(),
            }),
            "lease_request" => Some(Msg::LeaseRequest),
            "lease_grant" => Some(Msg::LeaseGrant {
                job: job()?,
                spec: spec_from_json(v.get("spec")?)?,
            }),
            "idle" => Some(Msg::Idle {
                backoff_ms: v.get("backoff_ms")?.as_u64()?,
            }),
            "drain" => Some(Msg::Drain),
            "heartbeat" => Some(Msg::Heartbeat {
                job: job()?,
                cycle: v.get("cycle")?.as_u64()?,
                rtt_us: v.get("rtt_us")?.as_u64()?,
            }),
            "ack" => Some(Msg::Ack),
            "result" => Some(Msg::Result {
                job: job()?,
                line: v.get("line")?.as_str()?.to_string(),
            }),
            "settled" => Some(Msg::Settled {
                owned: matches!(v.get("owned")?, Json::Bool(true)),
            }),
            "failed" => Some(Msg::Failed {
                job: job()?,
                detail: v.get("detail")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }
}

// --------------------------------------------------------------- frames

/// Encodes one message as a complete frame.
pub fn encode_frame(msg: &Msg) -> Vec<u8> {
    let payload = msg.encode().encode().into_bytes();
    let crc = mlpwin_isa::snap::crc32(&payload);
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Writes one message as a frame.
///
/// # Errors
///
/// [`WireError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, msg: &Msg) -> Result<(), WireError> {
    let frame = encode_frame(msg);
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| WireError::Io {
            detail: format!("send {}: {e}", msg.tag()),
        })
}

/// Whether a read error is a socket-timeout tick rather than a real
/// failure (Linux reports `WouldBlock` for `SO_RCVTIMEO`, other
/// platforms `TimedOut`).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Fills `buf` completely. `started` says whether earlier bytes of this
/// frame were already consumed: a timeout before any byte of the frame
/// is a clean idle tick (`Ok(false)`), a timeout or EOF mid-frame is
/// corruption (the peer died between bytes).
fn read_full(r: &mut impl Read, buf: &mut [u8], started: bool) -> Result<bool, WireError> {
    let mut at = 0;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) => {
                if at == 0 && !started {
                    return Err(WireError::Closed);
                }
                return Err(WireError::Corrupt {
                    detail: format!("EOF mid-frame after {at} bytes"),
                });
            }
            Ok(n) => at += n,
            Err(e) if is_timeout(&e) => {
                if at == 0 && !started {
                    return Ok(false); // idle tick: nothing consumed
                }
                return Err(WireError::Corrupt {
                    detail: format!("timeout mid-frame after {at} bytes"),
                });
            }
            Err(e) => {
                return Err(WireError::Io {
                    detail: format!("read: {e}"),
                })
            }
        }
    }
    Ok(true)
}

/// Reads one frame, tolerating an idle timeout before the first byte:
/// `Ok(None)` means the peer simply had nothing to say this tick.
///
/// # Errors
///
/// [`WireError::Closed`] on a clean close between frames,
/// [`WireError::Corrupt`] for anything malformed (including a peer
/// dying mid-frame), [`WireError::Io`] for hard transport errors.
pub fn read_frame_or_idle(r: &mut impl Read) -> Result<Option<Msg>, WireError> {
    let mut head = [0u8; 12];
    if !read_full(r, &mut head, false)? {
        return Ok(None);
    }
    if head[..4] != MAGIC {
        return Err(WireError::Corrupt {
            detail: format!("bad magic {:02x?}", &head[..4]),
        });
    }
    let len = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return Err(WireError::Corrupt {
            detail: format!("length {len} exceeds cap {MAX_FRAME}"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, true)?;
    if mlpwin_isa::snap::crc32(&payload) != crc {
        return Err(WireError::Corrupt {
            detail: "payload CRC mismatch".to_string(),
        });
    }
    let text = std::str::from_utf8(&payload).map_err(|_| WireError::Corrupt {
        detail: "payload is not UTF-8".to_string(),
    })?;
    let v = Json::parse(text).map_err(|e| WireError::Corrupt {
        detail: format!("payload is not JSON: {e}"),
    })?;
    Msg::decode(&v)
        .ok_or_else(|| WireError::Corrupt {
            detail: format!("unknown or malformed message: {text}"),
        })
        .map(Some)
}

/// Reads one frame; a timeout with no bytes is an error here (use
/// [`read_frame_or_idle`] where idleness is legal).
///
/// # Errors
///
/// As [`read_frame_or_idle`], plus [`WireError::Io`] when the peer
/// stayed silent past the socket timeout.
pub fn read_frame(r: &mut impl Read) -> Result<Msg, WireError> {
    match read_frame_or_idle(r)? {
        Some(msg) => Ok(msg),
        None => Err(WireError::Io {
            detail: "timed out waiting for a frame".to_string(),
        }),
    }
}

// ------------------------------------------------------------- NetFault

/// What the injector decided for one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Pass,
    /// Silently swallow the frame (the peer times out).
    Drop,
    /// Deliver the frame twice back to back.
    Duplicate,
    /// Deliver only a prefix, then poison the connection — the peer
    /// sees a torn frame and must reject it.
    Truncate,
    /// Hold the frame for this many ms, then deliver.
    Delay(u64),
}

/// A deterministic, seeded network fault injector for the worker's
/// send path. Same seed + same frame sequence ⇒ same faults, so chaos
/// runs replay exactly.
///
/// Parsed from a compact spec string
/// (`seed=7,drop=30,dup=20,trunc=5,delay=4,partition=120`):
/// `drop`/`dup`/`trunc` are per-mille rates, `delay` is the max delay
/// in ms (each delayed frame draws 1..=delay), and `partition` cuts
/// the connection hard after that many frames (every later send
/// fails). Zero/absent fields disable that fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFault {
    state: u64,
    drop_pm: u64,
    dup_pm: u64,
    trunc_pm: u64,
    delay_max_ms: u64,
    partition_after: Option<u64>,
    sent: u64,
    poisoned: bool,
}

impl NetFault {
    /// An injector with the given seed and per-mille/limit knobs.
    pub fn new(
        seed: u64,
        drop_pm: u64,
        dup_pm: u64,
        trunc_pm: u64,
        delay_max_ms: u64,
        partition_after: Option<u64>,
    ) -> NetFault {
        NetFault {
            // Run the seed through one FNV-1a round so seed=0 and
            // seed=1 diverge immediately.
            state: fnv1a_mix(0xcbf2_9ce4_8422_2325, seed),
            drop_pm,
            dup_pm,
            trunc_pm,
            delay_max_ms,
            partition_after,
            sent: 0,
            poisoned: false,
        }
    }

    /// Re-seeds an injector for connection number `conn` so every
    /// reconnect gets its own (still deterministic) schedule.
    pub fn for_connection(&self, conn: u64) -> NetFault {
        let mut f = self.clone();
        f.state = fnv1a_mix(f.state, conn.wrapping_add(1));
        f.sent = 0;
        f.poisoned = false;
        f
    }

    /// Parses the compact `k=v,...` spec described on the type.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the bad field.
    pub fn parse(text: &str) -> Result<NetFault, String> {
        let mut seed = 1u64;
        let (mut drop, mut dup, mut trunc, mut delay) = (0u64, 0u64, 0u64, 0u64);
        let mut partition = None;
        for field in text.split(',').filter(|f| !f.trim().is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("netfault field `{field}` is not k=v"))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("netfault {key}: `{value}` is not a number"))?;
            match key.trim() {
                "seed" => seed = value,
                "drop" => drop = value,
                "dup" => dup = value,
                "trunc" => trunc = value,
                "delay" => delay = value,
                "partition" => partition = Some(value),
                other => return Err(format!("unknown netfault field `{other}`")),
            }
        }
        if drop + dup + trunc > 1000 {
            return Err("netfault drop+dup+trunc rates exceed 1000 per mille".to_string());
        }
        Ok(NetFault::new(seed, drop, dup, trunc, delay, partition))
    }

    /// The LCG step (same constants as the chaos suites' `Lcg`).
    fn roll(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 11
    }

    /// Decides the fate of the next outgoing frame.
    pub fn next_action(&mut self) -> Result<FaultAction, WireError> {
        if self.poisoned {
            return Err(WireError::Io {
                detail: "connection poisoned by injected fault".to_string(),
            });
        }
        if let Some(limit) = self.partition_after {
            if self.sent >= limit {
                self.poisoned = true;
                return Err(WireError::Io {
                    detail: format!("injected partition after {limit} frames"),
                });
            }
        }
        self.sent += 1;
        let draw = self.roll() % 1000;
        let action = if draw < self.drop_pm {
            FaultAction::Drop
        } else if draw < self.drop_pm + self.dup_pm {
            FaultAction::Duplicate
        } else if draw < self.drop_pm + self.dup_pm + self.trunc_pm {
            self.poisoned = true;
            FaultAction::Truncate
        } else if self.delay_max_ms > 0 {
            match self.roll() % (self.delay_max_ms + 1) {
                0 => FaultAction::Pass,
                ms => FaultAction::Delay(ms),
            }
        } else {
            FaultAction::Pass
        };
        Ok(action)
    }
}

/// One FNV-1a round over a u64, for deterministic seed/jitter mixing.
fn fnv1a_mix(mut hash: u64, value: u64) -> u64 {
    for b in value.to_le_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Deterministic jitter for reconnect backoff: FNV-1a over
/// `(identity, attempt)`, reduced mod `modulus` — the same no-clock,
/// no-RNG-crate scheme the queue uses for retry backoff.
pub fn backoff_jitter_ms(identity: &str, attempt: u32, modulus: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in identity.as_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fnv1a_mix(hash, attempt as u64) % modulus.max(1)
}

/// Full reconnect delay for `attempt` (1-based): `base · 2^(attempt−1)`
/// capped at ten doublings, plus deterministic jitter below `base`.
pub fn reconnect_delay(identity: &str, attempt: u32, base: Duration) -> Duration {
    let base_ms = base.as_millis().max(1) as u64;
    let exp = attempt.saturating_sub(1).min(10);
    Duration::from_millis(base_ms * (1u64 << exp) + backoff_jitter_ms(identity, attempt, base_ms))
}

// ----------------------------------------------------------------- Conn

/// One fleet TCP connection: framed sends (optionally fault-injected)
/// and framed receives with socket timeouts.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    fault: Option<NetFault>,
}

impl Conn {
    /// Connects to `addr` with [`IO_TIMEOUT`] on connect, read, write.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on connect/option failure.
    pub fn connect(addr: &SocketAddr) -> Result<Conn, WireError> {
        let stream = TcpStream::connect_timeout(addr, IO_TIMEOUT).map_err(|e| WireError::Io {
            detail: format!("connect {addr}: {e}"),
        })?;
        Conn::from_stream(stream)
    }

    /// Wraps an accepted stream, applying the standard timeouts.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the socket options cannot be set.
    pub fn from_stream(stream: TcpStream) -> Result<Conn, WireError> {
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| WireError::Io {
                detail: format!("socket timeouts: {e}"),
            })?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            stream,
            fault: None,
        })
    }

    /// Attaches a fault injector to the send path (worker side only —
    /// the controller always sends clean).
    pub fn set_fault(&mut self, fault: Option<NetFault>) {
        self.fault = fault;
    }

    /// Shortens the read timeout to `tick` — the controller uses a
    /// brisk idle tick so its per-connection loop notices the stop
    /// flag quickly instead of blocking a full [`IO_TIMEOUT`].
    pub fn set_idle_tick(&mut self, tick: Duration) {
        self.stream.set_read_timeout(Some(tick)).ok();
    }

    /// The peer's address, for logs.
    pub fn peer(&self) -> String {
        self.stream
            .peer_addr()
            .map_or_else(|_| "?".to_string(), |a| a.to_string())
    }

    /// Sends one message, applying any attached fault schedule. A
    /// dropped frame reports success (the *peer* notices via timeout);
    /// a truncated or partitioned frame poisons the connection and
    /// errors so the caller reconnects.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on transport failure or injected cut.
    pub fn send(&mut self, msg: &Msg) -> Result<(), WireError> {
        let action = match &mut self.fault {
            Some(f) => f.next_action()?,
            None => FaultAction::Pass,
        };
        match action {
            FaultAction::Pass => write_frame(&mut self.stream, msg),
            FaultAction::Drop => Ok(()),
            FaultAction::Duplicate => {
                write_frame(&mut self.stream, msg)?;
                write_frame(&mut self.stream, msg)
            }
            FaultAction::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                write_frame(&mut self.stream, msg)
            }
            FaultAction::Truncate => {
                let frame = encode_frame(msg);
                let cut = frame.len() / 2;
                self.stream.write_all(&frame[..cut]).ok();
                self.stream.flush().ok();
                Err(WireError::Io {
                    detail: format!("injected truncation at byte {cut}"),
                })
            }
        }
    }

    /// Receives one message (timeout is an error — the worker's
    /// request/response pattern expects a prompt reply).
    ///
    /// # Errors
    ///
    /// As [`read_frame`].
    pub fn recv(&mut self) -> Result<Msg, WireError> {
        read_frame(&mut self.stream)
    }

    /// Receives one message, treating a quiet timeout as `Ok(None)` —
    /// the controller's per-connection loop uses this to keep checking
    /// its stop flag while a worker simulates silently.
    ///
    /// # Errors
    ///
    /// As [`read_frame_or_idle`].
    pub fn recv_or_idle(&mut self) -> Result<Option<Msg>, WireError> {
        read_frame_or_idle(&mut self.stream)
    }

    /// Sends a request and returns the peer's single response.
    ///
    /// # Errors
    ///
    /// Any send or receive failure.
    pub fn request(&mut self, msg: &Msg) -> Result<Msg, WireError> {
        self.send(msg)?;
        self.recv()
    }
}

/// The worker side of the handshake: sends [`Msg::Hello`], returns the
/// identity the controller assigned.
///
/// # Errors
///
/// [`WireError::SchemaMismatch`] on a reject, [`WireError::Corrupt`]
/// on an unexpected reply, transport errors as typed.
pub fn client_handshake(conn: &mut Conn, worker: &str) -> Result<String, WireError> {
    let reply = conn.request(&Msg::Hello {
        schema: WIRE_SCHEMA,
        worker: worker.to_string(),
    })?;
    match reply {
        Msg::Welcome { worker } => Ok(worker),
        Msg::Reject { reason } => Err(WireError::SchemaMismatch {
            ours: WIRE_SCHEMA,
            theirs: reason,
        }),
        other => Err(WireError::Corrupt {
            detail: format!("expected welcome/reject, got {}", other.tag()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimModel;

    fn sample_spec() -> RunSpec {
        let mut s = RunSpec::new("mcf", SimModel::Dynamic).with_budget(2_000, 4_000);
        s.seed = 7;
        s
    }

    fn all_messages() -> Vec<Msg> {
        vec![
            Msg::Hello {
                schema: WIRE_SCHEMA,
                worker: "alpha".to_string(),
            },
            Msg::Welcome {
                worker: "alpha#3".to_string(),
            },
            Msg::Reject {
                reason: "schema 99 != 1".to_string(),
            },
            Msg::LeaseRequest,
            Msg::LeaseGrant {
                job: 4,
                spec: sample_spec(),
            },
            Msg::Idle { backoff_ms: 50 },
            Msg::Drain,
            Msg::Heartbeat {
                job: 4,
                cycle: 123_456,
                rtt_us: 812,
            },
            Msg::Ack,
            Msg::Result {
                job: 4,
                line: "{\"schema\":2,\"hash\":\"00ff\"}".to_string(),
            },
            Msg::Settled { owned: true },
            Msg::Failed {
                job: 4,
                detail: "stall at cycle 9".to_string(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_messages() {
            let frame = encode_frame(&msg);
            let mut cursor = &frame[..];
            let back = read_frame(&mut cursor).expect("decodes");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn frames_concatenate_on_one_stream() {
        let msgs = all_messages();
        let mut stream = Vec::new();
        for msg in &msgs {
            stream.extend_from_slice(&encode_frame(msg));
        }
        let mut cursor = &stream[..];
        for msg in &msgs {
            assert_eq!(&read_frame(&mut cursor).expect("decodes"), msg);
        }
        assert_eq!(
            read_frame(&mut cursor),
            Err(WireError::Closed),
            "clean EOF between frames is Closed"
        );
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let frame = encode_frame(&Msg::LeaseGrant {
            job: 1,
            spec: sample_spec(),
        });
        for cut in 0..frame.len() {
            let mut cursor = &frame[..cut];
            let err = read_frame(&mut cursor).expect_err("truncated frame must not decode");
            assert!(
                matches!(err, WireError::Corrupt { .. } | WireError::Closed),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn any_flipped_bit_is_rejected() {
        let frame = encode_frame(&Msg::Heartbeat {
            job: 2,
            cycle: 99,
            rtt_us: 5,
        });
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            let mut cursor = &bad[..];
            match read_frame(&mut cursor) {
                Err(_) => {}
                // A flip in the length field can make the frame *look*
                // longer; the reader then hits EOF mid-frame — also an
                // error. Decoding to a different message would be the
                // only failure.
                Ok(msg) => panic!("flip at byte {i} decoded silently to {msg:?}"),
            }
        }
    }

    #[test]
    fn oversize_length_is_rejected_without_allocating() {
        let mut frame = encode_frame(&Msg::Ack);
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &frame[..];
        let err = read_frame(&mut cursor).expect_err("oversize length");
        assert!(matches!(err, WireError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn netfault_is_deterministic_and_seed_sensitive() {
        let drain = |mut f: NetFault| -> Vec<Result<FaultAction, WireError>> {
            (0..64).map(|_| f.next_action()).collect()
        };
        let a = NetFault::new(7, 200, 200, 50, 0, None);
        let b = NetFault::new(7, 200, 200, 50, 0, None);
        assert_eq!(drain(a.clone()), drain(b), "same seed, same schedule");
        let c = NetFault::new(8, 200, 200, 50, 0, None);
        assert_ne!(drain(a), drain(c), "different seed diverges");
    }

    #[test]
    fn netfault_partitions_and_poisons() {
        let mut f = NetFault::new(1, 0, 0, 0, 0, Some(3));
        for _ in 0..3 {
            assert_eq!(f.next_action(), Ok(FaultAction::Pass));
        }
        assert!(f.next_action().is_err(), "partition cuts the connection");
        assert!(f.next_action().is_err(), "and it stays cut");
    }

    #[test]
    fn netfault_truncate_poisons_after_firing() {
        let mut f = NetFault::new(3, 0, 0, 1000, 0, None);
        assert_eq!(f.next_action(), Ok(FaultAction::Truncate));
        assert!(f.next_action().is_err(), "truncation kills the connection");
    }

    #[test]
    fn netfault_spec_parses_and_validates() {
        let f = NetFault::parse("seed=7,drop=30,dup=20,trunc=5,delay=4,partition=120")
            .expect("valid spec");
        assert_eq!(f.partition_after, Some(120));
        assert_eq!(
            (f.drop_pm, f.dup_pm, f.trunc_pm, f.delay_max_ms),
            (30, 20, 5, 4)
        );
        assert!(NetFault::parse("drop=900,dup=200").is_err(), "rates cap");
        assert!(NetFault::parse("bogus=1").is_err());
        assert!(NetFault::parse("drop=x").is_err());
        assert_eq!(
            NetFault::parse("").expect("empty is all-off").next_action(),
            Ok(FaultAction::Pass)
        );
    }

    #[test]
    fn per_connection_reseeding_diverges_but_replays() {
        let base = NetFault::new(7, 300, 300, 100, 0, None);
        let drain = |mut f: NetFault| -> Vec<Result<FaultAction, WireError>> {
            (0..32).map(|_| f.next_action()).collect()
        };
        assert_eq!(
            drain(base.for_connection(0)),
            drain(base.for_connection(0)),
            "per-connection schedule replays"
        );
        assert_ne!(
            drain(base.for_connection(0)),
            drain(base.for_connection(1)),
            "connections get distinct schedules"
        );
    }

    #[test]
    fn reconnect_delay_doubles_with_deterministic_jitter() {
        let base = Duration::from_millis(100);
        let d1 = reconnect_delay("alpha", 1, base);
        let d2 = reconnect_delay("alpha", 2, base);
        let d3 = reconnect_delay("alpha", 3, base);
        assert!(d1 >= base && d1 < base * 2, "{d1:?}");
        assert!(d2 >= base * 2 && d2 < base * 3, "{d2:?}");
        assert!(d3 >= base * 4 && d3 < base * 5, "{d3:?}");
        assert_eq!(
            reconnect_delay("alpha", 2, base),
            d2,
            "jitter is a pure function"
        );
        assert!(backoff_jitter_ms("alpha", 1, 100) < 100);
    }

    #[test]
    fn tcp_round_trip_with_handshake() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = Conn::from_stream(stream).expect("wrap");
            match conn.recv().expect("hello") {
                Msg::Hello { schema, worker } => {
                    assert_eq!(schema, WIRE_SCHEMA);
                    conn.send(&Msg::Welcome {
                        worker: format!("{worker}#0"),
                    })
                    .expect("welcome");
                }
                other => panic!("expected hello, got {other:?}"),
            }
            assert_eq!(conn.recv().expect("request"), Msg::LeaseRequest);
            conn.send(&Msg::Drain).expect("drain");
        });
        let mut conn = Conn::connect(&addr).expect("connect");
        let identity = client_handshake(&mut conn, "alpha").expect("handshake");
        assert_eq!(identity, "alpha#0");
        assert_eq!(conn.request(&Msg::LeaseRequest).expect("reply"), Msg::Drain);
        server.join().expect("server thread");
    }

    #[test]
    fn handshake_reject_is_schema_mismatch() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = Conn::from_stream(stream).expect("wrap");
            conn.recv().expect("hello");
            conn.send(&Msg::Reject {
                reason: "wire schema 9 (ours: 1)".to_string(),
            })
            .expect("reject");
        });
        let mut conn = Conn::connect(&addr).expect("connect");
        match client_handshake(&mut conn, "alpha") {
            Err(WireError::SchemaMismatch { ours, theirs }) => {
                assert_eq!(ours, WIRE_SCHEMA);
                assert!(theirs.contains("schema 9"), "{theirs}");
            }
            other => panic!("expected schema mismatch, got {other:?}"),
        }
        server.join().expect("server thread");
    }
}
