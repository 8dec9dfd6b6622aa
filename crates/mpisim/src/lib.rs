#![warn(missing_docs)]

//! `mpisim` — a fault-tolerant distributed-memory message-passing runtime:
//! the MPI substitute of the Tiramisu reproduction.
//!
//! The paper's distributed results (Figure 6 bottom, Figure 7) are driven
//! by **communication volume** — distributed Halide over-estimates the
//! data it must send and packs it into staging buffers, while Tiramisu's
//! explicit `send`/`receive` commands move exactly the needed bytes. This
//! runtime makes those costs observable:
//!
//! - each rank runs on its own OS thread with its own private buffer
//!   storage (a `loopvm` machine — genuinely distributed memory),
//! - `send`/`recv` move `f32` payloads over channels, with synchronous
//!   (rendezvous) and asynchronous modes,
//! - every message is accounted: byte counts, message counts, and a
//!   modeled communication time (`latency + bytes / bandwidth`, plus one
//!   more `latency` for a synchronous send's acknowledgement),
//! - per-rank compute cycles come from the VM's cost model; the cluster's
//!   modeled time is the maximum over ranks of compute + communication.
//!
//! The Tiramisu distributed backend lowers `distribute()`-tagged loops to
//! rank conditionals (paper §V-A: "each distributed loop is converted into
//! a conditional based on the MPI rank") and `send()`/`receive()`
//! operations to [`DistStmt::Send`]/[`DistStmt::Recv`]. The compute
//! chunks between those are [`loopvm::Program`]s that own their compiled
//! form ([`DistProgram::chunks`]): the runtime compiles and caches nothing
//! itself — a rank binds its id ([`loopvm::Machine::bind`]) and runs them.
//!
//! # Fault tolerance
//!
//! The runtime is hardened against the failure modes a real cluster
//! exhibits, all simulated deterministically:
//!
//! - **Fault injection** ([`FaultPlan`]): message drop, payload
//!   corruption, duplication, delivery delay, and rank-crash-at-step,
//!   every decision a pure hash of `(seed, src, dst, seq, attempt)` — no
//!   wall-clock randomness, so failing seeds replay exactly.
//! - **Reliable delivery**: every message carries a sequence number and an
//!   FNV-1a payload checksum. Receivers discard corrupt copies (checksum
//!   mismatch) and duplicate copies (sequence-number high-water dedupe);
//!   senders retransmit under a bounded [`RetryPolicy`] whose exponential
//!   backoff is *costed, not slept* — each attempt pays the [`CommModel`]
//!   wire cost plus backoff cycles, so recovery work shows up in
//!   `comm_cycles` while tests stay fast. Because the fault schedule is a
//!   shared deterministic function, the sender models its retransmission
//!   schedule directly instead of waiting on timeout round-trips; the
//!   receiver-side checksum and dedupe checks independently enforce the
//!   protocol invariants on everything that crosses the wire.
//! - **Progress watchdog**: every blocking operation (receive, rendezvous
//!   ack, barrier) carries a deadline. A rank stuck past
//!   [`RunOptions::watchdog`] fails with a structured
//!   [`DistError::Deadlock`] naming the rank, the operation it was
//!   blocked on, and the statement step — instead of hanging the suite.
//! - **Failure containment**: rank bodies run under `catch_unwind`; a
//!   panicking rank is reported as [`DistError::Panic`] with its payload,
//!   peers are cancelled via a shared error flag, and ranks blocked in a
//!   barrier are woken by poisoning it ([`PoisonBarrier`]) rather than
//!   deadlocking against a participant that will never arrive.
//! - **Static validation** ([`validate_comm`]): before launch, rank-affine
//!   programs have their full communication graph enumerated and checked —
//!   every send matched by a receive per directed rank pair, barrier arity
//!   uniform — turning the classic hang-at-runtime bugs into
//!   [`DistError::CommMismatch`] diagnostics.

use loopvm::{eval_scalar, BufId, Expr, Machine, Program, RunStats, Stmt, Var};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod barrier;
mod error;
mod fault;
mod validate;

pub use barrier::{BarrierWait, PoisonBarrier};
pub use error::{ClusterReport, DistError, RankFailure, WaitingOn};
pub use fault::{Fault, FaultPlan, RetryPolicy};
pub use validate::validate_comm;

/// Communication cost model (cycles; same unit as the VM cost model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    /// Per-message latency in cycles.
    pub latency: f64,
    /// Cycles per byte transferred.
    pub per_byte: f64,
}

impl Default for CommModel {
    fn default() -> Self {
        // Loosely Infiniband-flavored relative to a ~2.5 GHz core:
        // ~1.5 us latency, ~6 GB/s effective per-pair bandwidth.
        CommModel { latency: 4000.0, per_byte: 0.4 }
    }
}

/// One statement of a rank program.
#[derive(Debug, Clone)]
pub enum DistStmt {
    /// Run compute chunk `k` ([`DistProgram::chunks`]) on this rank's
    /// private machine.
    Compute(usize),
    /// Send `count` elements of `buf` starting at `offset` to rank `dest`.
    /// All three are integer expressions over the program's variables
    /// (including the rank variable). A negative or out-of-range `dest`
    /// skips the send (mirrors guarded sends at the edge of the rank
    /// space).
    Send {
        /// Destination rank expression.
        dest: Expr,
        /// Source buffer.
        buf: BufId,
        /// Element offset expression.
        offset: Expr,
        /// Element count expression.
        count: Expr,
        /// `false` = synchronous (rendezvous), `true` = asynchronous.
        asynchronous: bool,
    },
    /// Receive `count` elements into `buf` at `offset` from rank `src`.
    /// An out-of-range `src` skips the receive.
    Recv {
        /// Source rank expression.
        src: Expr,
        /// Destination buffer.
        buf: BufId,
        /// Element offset expression.
        offset: Expr,
        /// Element count expression.
        count: Expr,
    },
    /// Execute the body only when the condition (over the rank variable)
    /// is non-zero — the lowered form of a `distribute()`d loop.
    If {
        /// Rank predicate.
        cond: Expr,
        /// Guarded statements.
        body: Vec<DistStmt>,
    },
    /// Global barrier across all ranks.
    Barrier,
}

/// A complete distributed program: one set of `loopvm` declarations
/// instantiated per rank (each rank gets private storage), a designated
/// rank variable, the compute chunks and the statement sequence.
///
/// Every compute chunk is a [`Program`] of its own — the declarations with
/// body `preamble ++ chunk statements` — and so owns its compiled form
/// ([`Program::compiled`]), which every rank of every run executes with
/// its rank id bound ([`Machine::bind`]). [`DistProgram::new`] seals the
/// fields so that code cannot go stale.
#[derive(Debug, Clone)]
pub struct DistProgram {
    program: Program,
    rank_var: Var,
    preamble: Vec<Stmt>,
    chunks: Vec<Program>,
    body: Vec<DistStmt>,
}

impl DistProgram {
    /// Seals a rank program. `decls` declares the buffers and variables
    /// (its own body is not executed), `preamble` is re-run before every
    /// chunk (parameter `let`s — VM frames do not persist across chunks),
    /// `chunks[k]` holds the statements of [`DistStmt::Compute`]`(k)`, and
    /// `body` is what every rank executes (rank-dependent behaviour via
    /// [`DistStmt::If`] and `rank_var`).
    ///
    /// # Panics
    ///
    /// When `body` names a chunk that does not exist.
    pub fn new(
        decls: Program,
        rank_var: Var,
        preamble: Vec<Stmt>,
        chunks: Vec<Vec<Stmt>>,
        body: Vec<DistStmt>,
    ) -> DistProgram {
        fn check(body: &[DistStmt], n_chunks: usize) {
            for s in body {
                match s {
                    DistStmt::Compute(k) => assert!(*k < n_chunks, "no compute chunk {k}"),
                    DistStmt::If { body, .. } => check(body, n_chunks),
                    _ => {}
                }
            }
        }
        check(&body, chunks.len());
        let chunks = chunks
            .into_iter()
            .map(|stmts| {
                let mut p = decls.clone();
                p.set_body(preamble.iter().cloned().chain(stmts).collect());
                p
            })
            .collect();
        DistProgram { program: decls, rank_var, preamble, chunks, body }
    }

    /// The buffer and variable declarations (per-rank instance).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Variable receiving the rank id.
    pub fn rank_var(&self) -> Var {
        self.rank_var
    }

    /// Statements re-run before every compute chunk.
    pub fn preamble(&self) -> &[Stmt] {
        &self.preamble
    }

    /// The compute chunks in program order; [`DistStmt::Compute`] indexes
    /// them. Each program's body is the preamble, then
    /// [`DistProgram::chunk_stmts`].
    pub fn chunks(&self) -> &[Program] {
        &self.chunks
    }

    /// Chunk `k`'s own statements (what its program runs after the preamble).
    pub fn chunk_stmts(&self, k: usize) -> &[Stmt] {
        &self.chunks[k].body()[self.preamble.len()..]
    }

    /// Statements executed by every rank.
    pub fn body(&self) -> &[DistStmt] {
        &self.body
    }

    /// Pretty-prints the rank program as pseudo-C (for golden tests and
    /// compile-trace snapshots): the preamble, then every statement with
    /// sends/receives/barriers rendered in MPI-flavoured pseudo-code.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        if !self.preamble.is_empty() {
            out.push_str("// preamble (re-run before every compute chunk)\n");
            out.push_str(&self.program.pretty_stmts(&self.preamble, 0));
        }
        for s in &self.body {
            self.pretty_dist_stmt(s, 0, &mut out);
        }
        out
    }

    fn pretty_dist_stmt(&self, s: &DistStmt, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        match s {
            DistStmt::Compute(k) => {
                out.push_str(&self.program.pretty_stmts(self.chunk_stmts(*k), indent));
            }
            DistStmt::Send { dest, buf, offset, count, asynchronous } => {
                let kind = if *asynchronous { "isend" } else { "send" };
                out.push_str(&format!(
                    "{pad}{kind}({}[{} .. +{}], to = {});\n",
                    self.program.buffer_info(*buf).0,
                    self.program.pretty_expr_str(offset),
                    self.program.pretty_expr_str(count),
                    self.program.pretty_expr_str(dest),
                ));
            }
            DistStmt::Recv { src, buf, offset, count } => {
                out.push_str(&format!(
                    "{pad}recv({}[{} .. +{}], from = {});\n",
                    self.program.buffer_info(*buf).0,
                    self.program.pretty_expr_str(offset),
                    self.program.pretty_expr_str(count),
                    self.program.pretty_expr_str(src),
                ));
            }
            DistStmt::If { cond, body } => {
                out.push_str(&format!(
                    "{pad}if ({}) {{\n",
                    self.program.pretty_expr_str(cond)
                ));
                for b in body {
                    self.pretty_dist_stmt(b, indent + 1, out);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            DistStmt::Barrier => out.push_str(&format!("{pad}barrier();\n")),
        }
    }
}

/// Per-rank and aggregate execution statistics.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Per-rank VM statistics (compute cycles under the CPU cost model).
    pub compute: Vec<RunStats>,
    /// Per-rank bytes put on the wire (including retransmissions and
    /// duplicate deliveries under fault injection).
    pub bytes_sent: Vec<u64>,
    /// Per-rank messages put on the wire.
    pub messages: Vec<u64>,
    /// Per-rank modeled communication cycles (including retry backoff and
    /// injected delays).
    pub comm_cycles: Vec<f64>,
    /// Per-rank retransmission attempts beyond each message's first.
    pub retries: Vec<u64>,
    /// Per-rank injected drops encountered while sending.
    pub drops: Vec<u64>,
    /// Per-rank duplicate deliveries discarded by sequence-number dedupe.
    pub redeliveries: Vec<u64>,
    /// Per-rank deliveries discarded for checksum mismatch.
    pub corrupt_dropped: Vec<u64>,
    /// Modeled cluster time: `max_r (compute_cycles_r + comm_cycles_r)`.
    pub modeled_cycles: f64,
    /// Wall-clock of the threaded execution.
    pub wall: std::time::Duration,
}

impl DistStats {
    /// Total retransmission attempts across ranks.
    pub fn total_retries(&self) -> u64 {
        self.retries.iter().sum()
    }

    /// Total injected drops across ranks.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Multi-line per-rank breakdown: compute/comm cycles, wire traffic
    /// and fault-recovery counts, one row per rank plus the cluster
    /// summary line ([`std::fmt::Display`]).
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("dist run stats\n");
        let _ = writeln!(
            out,
            "  {:>4} {:>14} {:>14} {:>8} {:>12} {:>7} {:>6} {:>7} {:>7}",
            "rank", "compute(cy)", "comm(cy)", "msgs", "bytes", "retry", "drop", "redlv", "corrupt"
        );
        for r in 0..self.compute.len() {
            let _ = writeln!(
                out,
                "  {:>4} {:>14.0} {:>14.0} {:>8} {:>12} {:>7} {:>6} {:>7} {:>7}",
                r,
                self.compute[r].cycles,
                self.comm_cycles.get(r).copied().unwrap_or(0.0),
                self.messages.get(r).copied().unwrap_or(0),
                self.bytes_sent.get(r).copied().unwrap_or(0),
                self.retries.get(r).copied().unwrap_or(0),
                self.drops.get(r).copied().unwrap_or(0),
                self.redeliveries.get(r).copied().unwrap_or(0),
                self.corrupt_dropped.get(r).copied().unwrap_or(0),
            );
        }
        let _ = writeln!(out, "  {self}");
        out
    }
}

impl std::fmt::Display for DistStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ranks, {:.0} modeled cycles, {} msgs, {} bytes, {} retries, {} drops, wall {:.3}ms",
            self.compute.len(),
            self.modeled_cycles,
            self.messages.iter().sum::<u64>(),
            self.bytes_sent.iter().sum::<u64>(),
            self.total_retries(),
            self.total_drops(),
            self.wall.as_secs_f64() * 1e3,
        )
    }
}

/// Execution options for [`run_with_opts`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Collect detailed VM statistics (slower compute path).
    pub stats_mode: bool,
    /// Fault schedule to inject; `None` runs fault-free.
    pub faults: Option<FaultPlan>,
    /// Retransmission policy for dropped/corrupted messages.
    pub retry: RetryPolicy,
    /// Progress watchdog: a rank blocked longer than this on any single
    /// receive, rendezvous ack, or barrier fails with
    /// [`DistError::Deadlock`].
    pub watchdog: Duration,
    /// Poll granularity for watchdog/cancellation checks while blocked.
    pub poll: Duration,
    /// Statically validate the communication graph before launch.
    pub validate: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            stats_mode: false,
            faults: None,
            retry: RetryPolicy::default(),
            watchdog: Duration::from_secs(5),
            poll: Duration::from_millis(10),
            validate: true,
        }
    }
}

struct Message {
    src: usize,
    /// Per-(src, dst) sequence number for dedupe.
    seq: u64,
    /// FNV-1a of the (uncorrupted) payload.
    checksum: u32,
    payload: Arc<[u8]>,
    /// Present for synchronous sends: the sender blocks until signalled.
    ack: Option<SyncSender<()>>,
}

/// Why a blocking wait gave up.
enum WaitFail {
    /// The watchdog deadline elapsed.
    Timeout,
    /// A peer failed; this rank should abort.
    Cancelled,
}

/// Receiver-side verdict on one wire message.
enum Screen {
    Accept,
    CorruptDrop,
    Redelivery,
}

struct Inbox {
    rx: Receiver<Message>,
    /// Out-of-order messages waiting for a matching `Recv`.
    stash: VecDeque<Message>,
    /// Next expected sequence number per source rank.
    expected: HashMap<usize, u64>,
}

/// Mutable per-rank counters threaded through send/recv handling.
#[derive(Default)]
struct RankCounters {
    bytes_sent: u64,
    messages: u64,
    comm_cycles: f64,
    retries: u64,
    drops: u64,
    redeliveries: u64,
    corrupt_dropped: u64,
}

struct RankOutcome {
    compute: RunStats,
    counters: RankCounters,
}

impl Inbox {
    /// Checksum-verifies and dedupes one wire message.
    fn screen(&mut self, msg: &Message) -> Screen {
        if fault::checksum(&msg.payload) != msg.checksum {
            return Screen::CorruptDrop;
        }
        let expected = self.expected.entry(msg.src).or_insert(0);
        if msg.seq < *expected {
            return Screen::Redelivery;
        }
        *expected = msg.seq + 1;
        Screen::Accept
    }

    /// Blocks until an acceptable message from `src` arrives, screening
    /// out corrupt and duplicate copies, stashing messages from other
    /// sources, and respecting the watchdog deadline and the shared
    /// error flag.
    fn recv_from(
        &mut self,
        src: usize,
        deadline: Instant,
        poll: Duration,
        error_flag: &AtomicU64,
        comm: &CommModel,
        counters: &mut RankCounters,
    ) -> Result<Message, WaitFail> {
        loop {
            // Stashed messages from `src` first (arrival order preserved),
            // then the wire.
            let msg = match self.stash.iter().position(|m| m.src == src) {
                Some(pos) => self.stash.remove(pos).unwrap(),
                None => {
                    let msg = recv_until(&self.rx, deadline, poll, error_flag)?;
                    if msg.src != src {
                        self.stash.push_back(msg);
                        continue;
                    }
                    msg
                }
            };
            counters.comm_cycles += comm.latency + comm.per_byte * msg.payload.len() as f64;
            match self.screen(&msg) {
                Screen::Accept => return Ok(msg),
                Screen::CorruptDrop => counters.corrupt_dropped += 1,
                Screen::Redelivery => counters.redeliveries += 1,
            }
        }
    }
}

/// The one blocking wait behind receives and rendezvous acks: waits in
/// `poll` slices until `deadline`, giving up early once a peer has set
/// the shared error flag or every sender is gone.
fn recv_until<T>(
    rx: &Receiver<T>,
    deadline: Instant,
    poll: Duration,
    error_flag: &AtomicU64,
) -> Result<T, WaitFail> {
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(WaitFail::Timeout);
        }
        match rx.recv_timeout(remaining.min(poll)) {
            Ok(v) => return Ok(v),
            Err(RecvTimeoutError::Timeout) => {
                if error_flag.load(Ordering::Relaxed) != 0 {
                    return Err(WaitFail::Cancelled);
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Err(WaitFail::Cancelled),
        }
    }
}

/// Runs a distributed program on `n_ranks` simulated nodes (fault-free).
///
/// # Errors
///
/// Any [`DistError`]: VM errors from a rank, malformed send/recv
/// expressions, static communication mismatches, or watchdog-detected
/// deadlocks. Rank panics are captured and reported as
/// [`DistError::Panic`] — this function does not propagate them.
pub fn run(
    dist: &DistProgram,
    n_ranks: usize,
    comm: &CommModel,
    stats_mode: bool,
) -> Result<DistStats, DistError> {
    run_with_init(dist, n_ranks, comm, stats_mode, |_, _| {})
}

/// [`run`] with a per-rank initialization hook, called with each rank's
/// machine before execution (e.g. to scatter input data).
///
/// # Errors
///
/// Same as [`run`].
pub fn run_with_init(
    dist: &DistProgram,
    n_ranks: usize,
    comm: &CommModel,
    stats_mode: bool,
    init: impl Fn(usize, &mut Machine) + Sync,
) -> Result<DistStats, DistError> {
    let opts = RunOptions { stats_mode, ..RunOptions::default() };
    run_with_opts(dist, n_ranks, comm, &opts, init, |_, _| {})
}

/// Fully-configurable execution: fault injection, retry policy, watchdog
/// and validation via [`RunOptions`], plus per-rank `init` (before
/// execution, e.g. scatter inputs) and `finish` (after successful
/// execution, e.g. gather outputs for comparison) hooks.
///
/// # Errors
///
/// Any [`DistError`]. When several ranks fail, secondary cancellations
/// are folded away and the root cause is returned; genuinely independent
/// multi-rank failures come back as [`DistError::Cluster`].
pub fn run_with_opts(
    dist: &DistProgram,
    n_ranks: usize,
    comm: &CommModel,
    opts: &RunOptions,
    init: impl Fn(usize, &mut Machine) + Sync,
    finish: impl Fn(usize, &Machine) + Sync,
) -> Result<DistStats, DistError> {
    assert!(n_ranks >= 1);
    if opts.validate {
        validate::validate_comm(dist, n_ranks)?;
    }
    let init = &init;
    let finish = &finish;
    // The inboxes, and so every receiver, outlive all ranks: a message
    // still queued for a finished rank keeps its ack sender alive, so a
    // synchronous send to that rank reports a deadlock, not a disconnect.
    let mut senders = Vec::with_capacity(n_ranks);
    let mut inboxes = Vec::with_capacity(n_ranks);
    for _ in 0..n_ranks {
        let (tx, rx) = mpsc::channel::<Message>();
        senders.push(tx);
        inboxes.push(Inbox { rx, stash: VecDeque::new(), expected: HashMap::new() });
    }
    let senders = &senders;
    let barrier = &PoisonBarrier::new(n_ranks);
    let error_flag = &AtomicU64::new(0);

    let _sp = telemetry::span("dist", "cluster run");
    let start = Instant::now();
    let results: Vec<Result<RankOutcome, DistError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_ranks);
        for (rank, inbox) in inboxes.iter_mut().enumerate() {
            handles.push(scope.spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_rank(
                        dist, rank, n_ranks, comm, opts, senders, inbox, barrier, error_flag,
                        init, finish,
                    )
                }))
                .unwrap_or_else(|payload| {
                    Err(DistError::Panic { rank, message: panic_message(&*payload) })
                });
                if result.is_err() {
                    // Wake peers: computing ranks see the flag between
                    // statements, blocked ranks via poll slices, barrier
                    // waiters via poisoning.
                    error_flag.store(1, Ordering::Relaxed);
                    barrier.poison();
                }
                result
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().unwrap_or_else(|payload| {
                    Err(DistError::Panic { rank, message: panic_message(&*payload) })
                })
            })
            .collect()
    });
    let wall = start.elapsed();

    let mut failures = Vec::new();
    let mut stats = DistStats { wall, ..Default::default() };
    let mut modeled: f64 = 0.0;
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Ok(out) => {
                modeled = modeled.max(out.compute.cycles + out.counters.comm_cycles);
                stats.compute.push(out.compute);
                stats.bytes_sent.push(out.counters.bytes_sent);
                stats.messages.push(out.counters.messages);
                stats.comm_cycles.push(out.counters.comm_cycles);
                stats.retries.push(out.counters.retries);
                stats.drops.push(out.counters.drops);
                stats.redeliveries.push(out.counters.redeliveries);
                stats.corrupt_dropped.push(out.counters.corrupt_dropped);
            }
            Err(e) => failures.push(RankFailure { rank, error: e }),
        }
    }
    let m = dist_metrics();
    m.retries.add(stats.total_retries());
    m.drops.add(stats.total_drops());
    if let Some(e) = DistError::from_failures(failures) {
        if let Some(reason) = dump_reason(&e) {
            // The flight recorder captures each rank thread's final
            // events (compute/send/recv/barrier lead-up) before they are
            // lost to the caller's error handling.
            telemetry::flight::dump(reason);
        }
        return Err(e);
    }
    stats.modeled_cycles = modeled;
    Ok(stats)
}

/// Always-on cluster metrics; per-run numbers stay on [`DistStats`].
struct DistMetrics {
    retries: std::sync::Arc<telemetry::metrics::Counter>,
    drops: std::sync::Arc<telemetry::metrics::Counter>,
    barrier_wait_us: std::sync::Arc<telemetry::metrics::Histogram>,
}

fn dist_metrics() -> &'static DistMetrics {
    static M: std::sync::OnceLock<DistMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| DistMetrics {
        retries: telemetry::metrics::counter("dist.retries"),
        drops: telemetry::metrics::counter("dist.drops"),
        barrier_wait_us: telemetry::metrics::histogram("dist.barrier_wait_us"),
    })
}

/// Which failures deserve a flight-recorder dump: watchdog deadlocks and
/// genuine rank panics (directly or as a cluster report's root cause).
/// Injected crashes, VM errors, and validation failures are expected
/// test/caller outcomes, not anomalies worth an artifact.
fn dump_reason(e: &DistError) -> Option<&'static str> {
    match e {
        DistError::Deadlock { .. } => Some("deadlock"),
        DistError::Panic { .. } => Some("rank-panic"),
        DistError::Cluster(report) => match report.root_cause().map(|f| &f.error) {
            Some(DistError::Deadlock { .. }) => Some("deadlock"),
            Some(DistError::Panic { .. }) => Some("rank-panic"),
            _ => None,
        },
        _ => None,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    dist: &DistProgram,
    rank: usize,
    n_ranks: usize,
    comm: &CommModel,
    opts: &RunOptions,
    senders: &[Sender<Message>],
    inbox: &mut Inbox,
    barrier: &PoisonBarrier,
    error_flag: &AtomicU64,
    init: &(impl Fn(usize, &mut Machine) + Sync),
    finish: &(impl Fn(usize, &Machine) + Sync),
) -> Result<RankOutcome, DistError> {
    // The flight rings keep every rank's spans, so failure dumps show each
    // rank's lead-up.
    telemetry::set_thread_name(format!("rank {rank}"));
    let mut machine = Machine::new(&dist.program);
    init(rank, &mut machine);
    machine.bind(dist.rank_var, rank as i64);
    let mut compute = RunStats::default();
    let mut counters = RankCounters::default();
    let bindings = [(dist.rank_var, rank as i64)];
    let crash_step = opts.faults.as_ref().and_then(|p| p.crash_step(rank));
    let mut seqs: HashMap<usize, u64> = HashMap::new();
    let vm = |e: loopvm::Error| DistError::Vm { rank, source: e };
    let scalar = |e: &Expr| eval_scalar(e, &bindings).map_err(vm);

    // Iterative interpretation via an explicit work list of (slice, pos).
    let mut step = 0u64;
    let mut frames: Vec<(&[DistStmt], usize)> = vec![(&dist.body, 0)];
    while let Some((body, pos)) = frames.pop() {
        if pos >= body.len() {
            continue;
        }
        if error_flag.load(Ordering::Relaxed) != 0 {
            return Err(DistError::Cancelled { rank });
        }
        if crash_step == Some(step) {
            // Simulated process death: the rank stops mid-program, without
            // reaching its remaining sends/recvs/barriers. Peers recover
            // via the watchdog and barrier poisoning.
            return Err(DistError::Crash { rank, step });
        }
        frames.push((body, pos + 1));
        step += 1;
        match &body[pos] {
            DistStmt::Compute(k) => {
                let _sp = telemetry::span("dist", "compute");
                let chunk = &dist.chunks[*k];
                // Stats gathering prices the chunk's plain lowering.
                if opts.stats_mode {
                    compute.add(&machine.run_with_stats(chunk).map_err(vm)?);
                } else {
                    machine.run(chunk).map_err(vm)?;
                }
            }
            DistStmt::If { cond, body: inner } => {
                if scalar(cond)? != 0 {
                    frames.push((inner, 0));
                }
            }
            DistStmt::Barrier => {
                let _sp = telemetry::span("dist", "barrier");
                let t0 = Instant::now();
                let wait = barrier.wait(opts.watchdog);
                dist_metrics().barrier_wait_us.record_duration(t0.elapsed());
                match wait {
                    BarrierWait::Released => {}
                    BarrierWait::Poisoned => {
                        return Err(DistError::Cancelled { rank });
                    }
                    BarrierWait::TimedOut => {
                        return Err(DistError::Deadlock {
                            rank,
                            waiting_on: WaitingOn::Barrier,
                            step: step - 1,
                        });
                    }
                }
            }
            DistStmt::Send { dest, buf, offset, count, asynchronous } => {
                let _sp = telemetry::span("dist", "send");
                let d = scalar(dest)?;
                if d < 0 || d as usize >= n_ranks {
                    continue;
                }
                let d = d as usize;
                let off = scalar(offset)?;
                let cnt = scalar(count)?;
                let data = machine.buffer(*buf);
                let lo = off.max(0) as usize;
                let hi = ((off + cnt).max(0) as usize).min(data.len());
                let payload: Arc<[u8]> =
                    data[lo..hi].iter().flat_map(|v| v.to_le_bytes()).collect();
                telemetry::counter("dist", "send bytes", payload.len() as f64);
                let seq_slot = seqs.entry(d).or_insert(0);
                let seq = *seq_slot;
                *seq_slot += 1;
                transmit(
                    rank, d, seq, &payload, *asynchronous, comm, opts, senders,
                    error_flag, &mut counters, step - 1,
                )?;
            }
            DistStmt::Recv { src, buf, offset, count } => {
                let _sp = telemetry::span("dist", "recv");
                let s = scalar(src)?;
                if s < 0 || s as usize >= n_ranks {
                    continue;
                }
                let off = scalar(offset)?;
                let cnt = scalar(count)?;
                let deadline = Instant::now() + opts.watchdog;
                let msg = inbox
                    .recv_from(s as usize, deadline, opts.poll, error_flag, comm, &mut counters)
                    .map_err(|w| match w {
                        WaitFail::Timeout => DistError::Deadlock {
                            rank,
                            waiting_on: WaitingOn::RecvFrom(s as usize),
                            step: step - 1,
                        },
                        WaitFail::Cancelled => DistError::Cancelled { rank },
                    })?;
                if let Some(ack) = msg.ack {
                    let _ = ack.send(());
                }
                let dst = machine.buffer_mut(*buf);
                let lo = off.max(0) as usize;
                let n = (cnt.max(0) as usize).min(msg.payload.len() / 4);
                for k in 0..n {
                    if lo + k >= dst.len() {
                        break;
                    }
                    let b = &msg.payload[k * 4..k * 4 + 4];
                    dst[lo + k] = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                }
            }
        }
    }
    finish(rank, &machine);
    Ok(RankOutcome { compute, counters })
}

/// Delivers one logical message, injecting faults and retransmitting
/// under the retry policy. Every wire attempt is accounted in bytes,
/// messages, and modeled cycles.
#[allow(clippy::too_many_arguments)]
fn transmit(
    rank: usize,
    dest: usize,
    seq: u64,
    payload: &Arc<[u8]>,
    asynchronous: bool,
    comm: &CommModel,
    opts: &RunOptions,
    senders: &[Sender<Message>],
    error_flag: &AtomicU64,
    counters: &mut RankCounters,
    step: u64,
) -> Result<(), DistError> {
    let nbytes = payload.len();
    let wire_cost = comm.latency + comm.per_byte * nbytes as f64;
    let good_sum = fault::checksum(payload);
    let mut attempt = 0u32;
    loop {
        let fault = opts
            .faults
            .as_ref()
            .map_or(Fault::None, |p| p.decide(rank, dest, seq, attempt));
        counters.bytes_sent += nbytes as u64;
        counters.messages += 1;
        counters.comm_cycles += wire_cost;
        let failed = match fault {
            Fault::Drop => {
                // Lost in transit: the wire time was spent, nothing
                // arrives.
                counters.drops += 1;
                telemetry::instant("fault", "drop");
                true
            }
            Fault::Corrupt => {
                // Deliver a tampered copy (correct checksum field, flipped
                // payload byte) so the receiver's verification genuinely
                // runs; it will discard and we retransmit.
                telemetry::instant("fault", "corrupt");
                let mut bad = payload.to_vec();
                if !bad.is_empty() {
                    let idx = (seq as usize).wrapping_add(attempt as usize) % bad.len();
                    bad[idx] ^= 0x2A;
                }
                let _ = senders[dest].send(Message {
                    src: rank,
                    seq,
                    checksum: good_sum,
                    payload: bad.into(),
                    ack: None,
                });
                true
            }
            Fault::None | Fault::Delay | Fault::Duplicate => {
                if fault == Fault::Delay {
                    telemetry::instant("fault", "delay");
                    if let Some(p) = opts.faults.as_ref() {
                        counters.comm_cycles += p.delay_cycles;
                    }
                }
                let (ack_tx, ack_rx) = if asynchronous {
                    (None, None)
                } else {
                    let (t, r) = mpsc::sync_channel(1);
                    (Some(t), Some(r))
                };
                let _ = senders[dest].send(Message {
                    src: rank,
                    seq,
                    checksum: good_sum,
                    payload: payload.clone(),
                    ack: ack_tx,
                });
                if fault == Fault::Duplicate {
                    // A second good copy; the receiver's dedupe drops it.
                    telemetry::instant("fault", "duplicate");
                    counters.bytes_sent += nbytes as u64;
                    counters.messages += 1;
                    counters.comm_cycles += wire_cost;
                    let _ = senders[dest].send(Message {
                        src: rank,
                        seq,
                        checksum: good_sum,
                        payload: payload.clone(),
                        ack: None,
                    });
                }
                if let Some(r) = ack_rx {
                    let deadline = Instant::now() + opts.watchdog;
                    recv_until(&r, deadline, opts.poll, error_flag).map_err(|w| match w {
                        WaitFail::Timeout => DistError::Deadlock {
                            rank,
                            waiting_on: WaitingOn::AckFrom(dest),
                            step,
                        },
                        WaitFail::Cancelled => DistError::Cancelled { rank },
                    })?;
                    // The rendezvous: the sender also waits out the
                    // acknowledgement's trip back.
                    counters.comm_cycles += comm.latency;
                }
                false
            }
        };
        if !failed {
            return Ok(());
        }
        counters.retries += 1;
        telemetry::instant("fault", "retry");
        counters.comm_cycles += opts.retry.backoff_cycles(attempt);
        attempt += 1;
        if attempt >= opts.retry.max_attempts {
            return Err(DistError::RetriesExhausted {
                rank,
                peer: dest,
                seq,
                attempts: attempt,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopvm::LoopKind;
    use std::sync::Mutex;

    /// Each rank fills its chunk with its rank id, then sends its first
    /// `count` elements towards the left neighbour's halo slot.
    fn ring_program(n: usize, count: i64) -> DistProgram {
        let mut p = Program::new();
        let data = p.buffer("data", n + 1); // n owned + 1 halo
        let rank = p.var("rank");
        let i = p.var("i");
        let fill = Stmt::for_(
            i,
            Expr::i64(0),
            Expr::i64(n as i64),
            LoopKind::Serial,
            vec![Stmt::store(data, Expr::var(i), Expr::to_f32(Expr::var(rank)))],
        );
        DistProgram::new(
            p,
            rank,
            vec![],
            vec![vec![fill]],
            vec![
                DistStmt::Compute(0),
                DistStmt::Barrier,
                // send data[0..count] to rank-1; receive from rank+1 into halo.
                DistStmt::Send {
                    dest: Expr::var(rank) - Expr::i64(1),
                    buf: data,
                    offset: Expr::i64(0),
                    count: Expr::i64(count),
                    asynchronous: true,
                },
                DistStmt::Recv {
                    src: Expr::var(rank) + Expr::i64(1),
                    buf: data,
                    offset: Expr::i64(n as i64),
                    count: Expr::i64(1),
                },
            ],
        )
    }

    #[test]
    fn bytecode_chunks_match_tree_walk_bit_exact() {
        // Same program, both executors, gathered outputs bit-compared.
        let gather = |tree_walk: bool| -> Vec<u32> {
            let prog = ring_program(4, 1);
            let out = Mutex::new(vec![vec![]; 4]);
            run_with_opts(
                &prog,
                4,
                &CommModel::default(),
                &RunOptions::default(),
                move |_rank, machine: &mut Machine| {
                    if tree_walk {
                        machine.set_exec_mode(loopvm::ExecMode::TreeWalk);
                    }
                },
                |rank, machine: &Machine| {
                    let data = machine.buffer(prog.program().nth_buffer(0));
                    out.lock().unwrap()[rank] = data.iter().map(|v| v.to_bits()).collect();
                },
            )
            .unwrap();
            let guard = out.lock().unwrap();
            guard.iter().flatten().copied().collect()
        };
        assert_eq!(gather(false), gather(true));
    }

    #[test]
    fn halo_exchange_moves_data() {
        let prog = ring_program(4, 1);
        let stats = run(&prog, 4, &CommModel::default(), false).unwrap();
        // Ranks 1..3 send 4 bytes each; rank 3 receives nothing (no rank 4).
        assert_eq!(stats.bytes_sent, vec![0, 4, 4, 4]);
        assert_eq!(stats.messages, vec![0, 1, 1, 1]);
        // Fault-free runs report clean reliability counters.
        assert_eq!(stats.total_retries(), 0);
        assert_eq!(stats.total_drops(), 0);
    }

    #[test]
    fn stats_mode_counts_compute() {
        let prog = ring_program(8, 1);
        let stats = run(&prog, 2, &CommModel::default(), true).unwrap();
        assert_eq!(stats.compute.len(), 2);
        assert_eq!(stats.compute[0].stores, 8);
        assert!(stats.compute[0].cycles > 0.0);
        assert!(stats.modeled_cycles > 0.0);
    }

    #[test]
    fn synchronous_send_rendezvous() {
        // Rank 0 sends synchronously to rank 1, which receives: must not
        // deadlock and must deliver.
        let mut p = Program::new();
        let b = p.buffer("b", 2);
        let rank = p.var("rank");
        let prog = DistProgram::new(
            p,
            rank,
            vec![],
            vec![vec![Stmt::store(
                b,
                Expr::i64(0),
                Expr::to_f32(Expr::var(rank) + Expr::i64(7)),
            )]],
            vec![
                DistStmt::Compute(0),
                DistStmt::If {
                    cond: Expr::eq(Expr::var(rank), Expr::i64(0)),
                    body: vec![DistStmt::Send {
                        dest: Expr::i64(1),
                        buf: b,
                        offset: Expr::i64(0),
                        count: Expr::i64(1),
                        asynchronous: false,
                    }],
                },
                DistStmt::If {
                    cond: Expr::eq(Expr::var(rank), Expr::i64(1)),
                    body: vec![DistStmt::Recv {
                        src: Expr::i64(0),
                        buf: b,
                        offset: Expr::i64(1),
                        count: Expr::i64(1),
                    }],
                },
            ],
        );
        let stats = run(&prog, 2, &CommModel::default(), false).unwrap();
        assert_eq!(stats.messages[0], 1);
        assert_eq!(stats.messages[1], 0);
    }

    #[test]
    fn comm_cost_scales_with_volume() {
        let small = ring_program(4, 1);
        let big = ring_program(4, 4);
        let s_small = run(&small, 4, &CommModel::default(), false).unwrap();
        let s_big = run(&big, 4, &CommModel::default(), false).unwrap();
        assert!(s_big.bytes_sent.iter().sum::<u64>() > s_small.bytes_sent.iter().sum::<u64>());
        assert!(
            s_big.comm_cycles.iter().cloned().fold(0.0, f64::max)
                > s_small.comm_cycles.iter().cloned().fold(0.0, f64::max)
        );
    }

    #[test]
    fn rank_guard_restricts_execution() {
        // Only rank 2 writes a marker.
        let mut p = Program::new();
        let b = p.buffer("b", 1);
        let rank = p.var("rank");
        let prog = DistProgram::new(
            p,
            rank,
            vec![],
            vec![vec![Stmt::store(b, Expr::i64(0), Expr::f32(42.0))]],
            vec![DistStmt::If {
                cond: Expr::eq(Expr::var(rank), Expr::i64(2)),
                body: vec![DistStmt::Compute(0)],
            }],
        );
        let stats = run(&prog, 4, &CommModel::default(), true).unwrap();
        // Only rank 2 executed the store.
        let stores: Vec<u64> = stats.compute.iter().map(|c| c.stores).collect();
        assert_eq!(stores, vec![0, 0, 1, 0]);
    }

    fn fast_watchdog() -> RunOptions {
        RunOptions {
            watchdog: Duration::from_millis(400),
            poll: Duration::from_millis(5),
            ..RunOptions::default()
        }
    }

    /// rank 0 posts a receive that no one will ever satisfy. Statically
    /// validated programs reject this before launch; with validation off
    /// the watchdog converts the hang into a structured deadlock.
    fn orphan_recv_program() -> DistProgram {
        let mut p = Program::new();
        let b = p.buffer("b", 4);
        let rank = p.var("rank");
        DistProgram::new(
            p,
            rank,
            vec![],
            vec![],
            vec![DistStmt::If {
                cond: Expr::eq(Expr::var(rank), Expr::i64(0)),
                body: vec![DistStmt::Recv {
                    src: Expr::i64(1),
                    buf: b,
                    offset: Expr::i64(0),
                    count: Expr::i64(1),
                }],
            }],
        )
    }

    #[test]
    fn unmatched_recv_rejected_statically() {
        let prog = orphan_recv_program();
        let err = run(&prog, 2, &CommModel::default(), false).unwrap_err();
        assert!(
            matches!(err, DistError::CommMismatch { .. }),
            "expected CommMismatch, got {err}"
        );
    }

    #[test]
    fn unmatched_recv_caught_by_watchdog() {
        // Pre-hardening this configuration hung forever.
        let prog = orphan_recv_program();
        let opts = RunOptions { validate: false, ..fast_watchdog() };
        let err = run_with_opts(&prog, 2, &CommModel::default(), &opts, |_, _| {}, |_, _| {})
            .unwrap_err();
        assert_eq!(
            err,
            DistError::Deadlock { rank: 0, waiting_on: WaitingOn::RecvFrom(1), step: 1 }
        );
    }

    #[test]
    fn unmatched_synchronous_send_caught_by_watchdog() {
        // rank 0 makes a rendezvous send that rank 1 never receives. The
        // message (and its ack sender) stays queued in rank 1's inbox after
        // rank 1 ends, so rank 0 times out on the ack instead of being
        // cancelled by a disconnect.
        let mut p = Program::new();
        let b = p.buffer("b", 4);
        let rank = p.var("rank");
        let prog = DistProgram::new(
            p,
            rank,
            vec![],
            vec![],
            vec![DistStmt::If {
                cond: Expr::eq(Expr::var(rank), Expr::i64(0)),
                body: vec![DistStmt::Send {
                    dest: Expr::i64(1),
                    buf: b,
                    offset: Expr::i64(0),
                    count: Expr::i64(1),
                    asynchronous: false,
                }],
            }],
        );
        let opts = RunOptions { validate: false, ..fast_watchdog() };
        let err = run_with_opts(&prog, 2, &CommModel::default(), &opts, |_, _| {}, |_, _| {})
            .unwrap_err();
        assert_eq!(
            err,
            DistError::Deadlock { rank: 0, waiting_on: WaitingOn::AckFrom(1), step: 1 }
        );
    }

    #[test]
    fn mismatched_barrier_arity_rejected_statically() {
        let mut p = Program::new();
        let _b = p.buffer("b", 1);
        let rank = p.var("rank");
        let prog = DistProgram::new(
            p,
            rank,
            vec![],
            vec![],
            vec![DistStmt::If {
                cond: Expr::eq(Expr::var(rank), Expr::i64(0)),
                body: vec![DistStmt::Barrier],
            }],
        );
        let err = run(&prog, 2, &CommModel::default(), false).unwrap_err();
        assert!(
            matches!(err, DistError::CommMismatch { .. }),
            "expected CommMismatch, got {err}"
        );
    }

    #[test]
    fn mismatched_barrier_caught_by_watchdog() {
        let mut p = Program::new();
        let _b = p.buffer("b", 1);
        let rank = p.var("rank");
        let prog = DistProgram::new(
            p,
            rank,
            vec![],
            vec![],
            vec![DistStmt::If {
                cond: Expr::eq(Expr::var(rank), Expr::i64(0)),
                body: vec![DistStmt::Barrier],
            }],
        );
        let opts = RunOptions { validate: false, ..fast_watchdog() };
        let err = run_with_opts(&prog, 2, &CommModel::default(), &opts, |_, _| {}, |_, _| {})
            .unwrap_err();
        assert!(
            matches!(
                err,
                DistError::Deadlock { rank: 0, waiting_on: WaitingOn::Barrier, .. }
            ),
            "expected barrier deadlock, got {err}"
        );
    }

    #[test]
    fn drops_are_retried_transparently() {
        let prog = ring_program(4, 1);
        let baseline = run(&prog, 4, &CommModel::default(), false).unwrap();
        let opts = RunOptions {
            faults: Some(FaultPlan::new(1).with_drop(0.5)),
            ..fast_watchdog()
        };
        let stats =
            run_with_opts(&prog, 4, &CommModel::default(), &opts, |_, _| {}, |_, _| {})
                .unwrap();
        assert!(stats.total_drops() > 0, "plan injected no drops; pick a new seed");
        assert!(stats.total_retries() >= stats.total_drops());
        // Recovery is costed: more wire bytes and cycles than fault-free.
        assert!(
            stats.bytes_sent.iter().sum::<u64>() > baseline.bytes_sent.iter().sum::<u64>()
        );
        assert!(
            stats.comm_cycles.iter().sum::<f64>() > baseline.comm_cycles.iter().sum::<f64>()
        );
    }

    #[test]
    fn corruption_detected_and_retransmitted() {
        let prog = ring_program(4, 1);
        let opts = RunOptions {
            faults: Some(FaultPlan::new(3).with_corrupt(0.5)),
            ..fast_watchdog()
        };
        let stats =
            run_with_opts(&prog, 4, &CommModel::default(), &opts, |_, _| {}, |_, _| {})
                .unwrap();
        assert!(
            stats.corrupt_dropped.iter().sum::<u64>() > 0,
            "plan injected no corruption; pick a new seed"
        );
        assert_eq!(stats.total_retries(), stats.corrupt_dropped.iter().sum::<u64>());
    }

    #[test]
    fn duplicates_are_deduped() {
        // Two back-to-back messages on the same edge: the duplicate copy
        // of the first is consumed (and discarded by sequence-number
        // dedupe) while the receiver waits for the second.
        let mut p = Program::new();
        let b = p.buffer("b", 4);
        let rank = p.var("rank");
        let send = |idx: i64| DistStmt::Send {
            dest: Expr::i64(1),
            buf: b,
            offset: Expr::i64(idx),
            count: Expr::i64(1),
            asynchronous: true,
        };
        let recv = |idx: i64| DistStmt::Recv {
            src: Expr::i64(0),
            buf: b,
            offset: Expr::i64(idx),
            count: Expr::i64(1),
        };
        let prog = DistProgram::new(
            p,
            rank,
            vec![],
            vec![vec![Stmt::store(b, Expr::i64(0), Expr::f32(1.5))]],
            vec![
                DistStmt::Compute(0),
                DistStmt::If {
                    cond: Expr::eq(Expr::var(rank), Expr::i64(0)),
                    body: vec![send(0), send(1)],
                },
                DistStmt::If {
                    cond: Expr::eq(Expr::var(rank), Expr::i64(1)),
                    body: vec![recv(2), recv(3)],
                },
            ],
        );
        let opts = RunOptions {
            faults: Some(FaultPlan::new(17).with_duplicate(1.0)),
            ..fast_watchdog()
        };
        let stats =
            run_with_opts(&prog, 2, &CommModel::default(), &opts, |_, _| {}, |_, _| {})
                .unwrap();
        assert!(
            stats.redeliveries.iter().sum::<u64>() > 0,
            "receiver never observed a duplicate"
        );
        // Dedupe happened on the receive side; no retries were needed.
        assert_eq!(stats.total_retries(), 0);
        // Every wire copy was doubled by the fault plan.
        assert_eq!(stats.messages[0], 4);
    }

    #[test]
    fn hundred_percent_drop_exhausts_retries() {
        let prog = ring_program(4, 1);
        let opts = RunOptions {
            faults: Some(FaultPlan::new(1).with_drop(1.0)),
            ..fast_watchdog()
        };
        let err =
            run_with_opts(&prog, 4, &CommModel::default(), &opts, |_, _| {}, |_, _| {})
                .unwrap_err();
        // Several ranks fail independently (each sender exhausts retries);
        // the report keeps them all.
        match err {
            DistError::RetriesExhausted { attempts, .. } => {
                assert_eq!(attempts, RetryPolicy::default().max_attempts);
            }
            DistError::Cluster(report) => {
                assert!(report
                    .failures
                    .iter()
                    .any(|f| matches!(f.error, DistError::RetriesExhausted { .. })));
            }
            other => panic!("expected retry exhaustion, got {other}"),
        }
    }

    #[test]
    fn injected_crash_reported_with_step() {
        let prog = ring_program(4, 1);
        // Kill rank 2 before its barrier (step 1): peers deadlock at the
        // barrier and are cancelled; the crash is the root cause.
        let opts = RunOptions {
            faults: Some(FaultPlan::new(0).crash_at(2, 1)),
            ..fast_watchdog()
        };
        let err =
            run_with_opts(&prog, 4, &CommModel::default(), &opts, |_, _| {}, |_, _| {})
                .unwrap_err();
        match err {
            DistError::Crash { rank, step } => {
                assert_eq!((rank, step), (2, 1));
            }
            DistError::Cluster(report) => {
                let root = report.root_cause().expect("nonempty report");
                assert!(
                    matches!(root.error, DistError::Crash { rank: 2, step: 1 })
                        || matches!(root.error, DistError::Deadlock { .. }),
                    "unexpected root cause: {}",
                    root.error
                );
            }
            other => panic!("expected crash, got {other}"),
        }
    }

    #[test]
    fn rank_panic_is_captured_not_propagated() {
        let prog = ring_program(4, 1);
        let opts = fast_watchdog();
        let err = run_with_opts(
            &prog,
            4,
            &CommModel::default(),
            &opts,
            |rank, _machine| {
                if rank == 1 {
                    panic!("boom on rank 1");
                }
            },
            |_, _| {},
        )
        .unwrap_err();
        match err {
            DistError::Panic { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("boom"), "message = {message}");
            }
            DistError::Cluster(report) => {
                let root = report.root_cause().expect("nonempty report");
                assert!(matches!(root.error, DistError::Panic { rank: 1, .. }));
            }
            other => panic!("expected captured panic, got {other}"),
        }
    }

    #[test]
    fn faulty_run_produces_identical_output() {
        // Bit-identical halo contents under heavy injected faults.
        let prog = ring_program(6, 1);
        let data = prog.program().buffer_by_name("data").unwrap();
        let capture = |opts: &RunOptions| -> (DistStats, Vec<Vec<f32>>) {
            let out = Mutex::new(vec![Vec::new(); 4]);
            let stats = run_with_opts(
                &prog,
                4,
                &CommModel::default(),
                opts,
                |_, _| {},
                |rank, machine| {
                    out.lock().unwrap()[rank] = machine.buffer(data).to_vec();
                },
            )
            .unwrap();
            (stats, out.into_inner().unwrap())
        };
        let (clean_stats, clean) = capture(&RunOptions::default());
        let opts = RunOptions {
            faults: Some(
                FaultPlan::new(7)
                    .with_drop(0.25)
                    .with_corrupt(0.2)
                    .with_duplicate(0.2)
                    .with_delay(0.2, 1e5),
            ),
            watchdog: Duration::from_secs(2),
            poll: Duration::from_millis(5),
            ..RunOptions::default()
        };
        let (faulty_stats, faulty) = capture(&opts);
        assert_eq!(clean, faulty, "fault recovery changed results");
        assert!(
            faulty_stats.comm_cycles.iter().sum::<f64>()
                > clean_stats.comm_cycles.iter().sum::<f64>(),
            "fault recovery should cost modeled cycles"
        );
    }
}
