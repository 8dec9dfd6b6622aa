//! Executable memory, the native↔host ABI, and the run/replay protocol.
//!
//! # W^X lifecycle
//!
//! Code is assembled into a heap `Vec<u8>`, copied into a fresh anonymous
//! `mmap` while it is `PROT_READ|PROT_WRITE`, then flipped to
//! `PROT_READ|PROT_EXEC` with `mprotect` before the first call. The
//! mapping is never writable and executable at the same time, and is
//! unmapped when the owning [`JitProgram`] drops.
//!
//! # Status protocol
//!
//! Every native function returns a `u64`:
//!
//! | code  | meaning                                                     |
//! |-------|-------------------------------------------------------------|
//! | 0     | success                                                     |
//! | 1     | a `Parallel` chunk failed with an [`Error`]; in [`RunHost::err`] |
//! | 2     | a `Parallel` chunk panicked; payload in [`RunHost::panic`]  |
//! | n ≥ 3 | deopt stub `n - 3` fired; operands in the ctx deopt slots   |
//!
//! Deopts are resolved by *replaying* the trapping operation through the
//! interpreter's own scalar helpers ([`apply_i`] / [`apply_un_i`] /
//! [`SharedBuf`] metadata), so the resulting `Error` payloads and panic
//! messages are byte-identical to bytecode execution by construction.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use crate::expr::{BinOp, UnOp, Var};
use crate::par::{Crew, Job};
use crate::vm::{apply_i, apply_un_i, SharedBuf};
use crate::{Error, Result};

// -- JitCtx field offsets, shared with the emitter --------------------------

/// Offset of [`JitCtx::frame`].
pub(super) const CTX_FRAME: i32 = 0x00;
/// Offset of [`JitCtx::bufs`].
pub(super) const CTX_BUFS: i32 = 0x08;
/// Offset of [`JitCtx::ipin`].
pub(super) const CTX_IPIN: i32 = 0x10;
/// Offset of [`JitCtx::fpin`].
pub(super) const CTX_FPIN: i32 = 0x18;
/// Offset of [`JitCtx::deopt_a`].
pub(super) const CTX_DEOPT_A: i32 = 0x20;
/// Offset of [`JitCtx::deopt_b`].
pub(super) const CTX_DEOPT_B: i32 = 0x28;

/// The execution context passed to every native function in `rdi`. Field
/// order is ABI: generated code addresses fields by the `CTX_*` offsets;
/// the fields after `deopt_b` are the host's alone.
#[repr(C)]
pub(super) struct JitCtx<'scope> {
    /// Loop-variable frame (`i64` per program variable), loaded into r14 by
    /// a function that reads or writes it.
    frame: *mut i64,
    /// The buffer table: each buffer's data pointer, by buffer index
    /// (`[table + 8·buf]`), which a function loads once at its entry (the
    /// code was compiled for the buffers' lengths, see
    /// [`JitProgram::fits`]).
    bufs: *const *mut f32,
    /// Pin array for `i64` registers that cross `Parallel` boundaries.
    ipin: *mut i64,
    /// Pin array for `f32` registers that cross `Parallel` boundaries.
    fpin: *mut f32,
    /// First operand of the most recent deopt (written by the stub).
    deopt_a: i64,
    /// Second operand of the most recent deopt.
    deopt_b: i64,
    /// Back-pointer to the host state for this run.
    host: *const RunHost,
    /// The threads a `Parallel` dispatch here may split over: the run's
    /// at its top level, 1 inside a chunk, where nested loops run
    /// serially.
    threads: usize,
    /// The run's crew for `Parallel` loops: `None` where `threads` is 1,
    /// and in a run no dispatch of which can pay for a crew.
    crew: Option<Crew<'scope, Result<()>>>,
}

impl<'scope> JitCtx<'scope> {
    fn new(
        frame: &mut [i64],
        ipin: &mut [i64],
        fpin: &mut [f32],
        table: &[*mut f32],
        host: &RunHost,
        threads: usize,
        crew: Option<Crew<'scope, Result<()>>>,
    ) -> Self {
        JitCtx {
            frame: frame.as_mut_ptr(),
            bufs: table.as_ptr(),
            ipin: ipin.as_mut_ptr(),
            fpin: fpin.as_mut_ptr(),
            deopt_a: 0,
            deopt_b: 0,
            host,
            threads,
            crew,
        }
    }
}

/// Host-side state shared by the caller and the crew's workers for one
/// `run` call, created before the run's scope opens. Reached from native
/// code only through [`jit_par_dispatch`].
struct RunHost {
    prog: *const JitProgram,
    bufs: *const SharedBuf,
    n_bufs: usize,
    /// The error of a failed dispatch (the first failing chunk in chunk
    /// order), surfaced as status 1.
    err: Mutex<Option<Error>>,
    /// The panic payload of a failed dispatch, surfaced as status 2 and
    /// re-thrown.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: the raw pointers reference the `JitProgram` and buffer slice that
// outlive the `run` call and its scope; `SharedBuf` is `Sync` and the
// mutexes guard the only mutated fields.
unsafe impl Sync for RunHost {}

// -- executable memory ------------------------------------------------------

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const PROT_EXEC: i32 = 4;
const MAP_PRIVATE: i32 = 2;
const MAP_ANONYMOUS: i32 = 0x20;

extern "C" {
    fn mmap(
        addr: *mut core::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut core::ffi::c_void;
    fn mprotect(addr: *mut core::ffi::c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
}

/// An anonymous executable mapping holding the generated code (see the
/// module docs for the W^X lifecycle).
struct ExecBuf {
    ptr: *mut u8,
    map_len: usize,
}

impl ExecBuf {
    /// Maps RW, copies `code`, flips to RX. `None` if the kernel refuses
    /// either step (e.g. a no-exec policy) — callers fall back to the
    /// interpreter.
    fn new(code: &[u8]) -> Option<ExecBuf> {
        let map_len = code.len().max(1).div_ceil(4096) * 4096;
        // SAFETY: fresh anonymous private mapping; no aliasing to manage.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                map_len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if p as isize == -1 || p.is_null() {
            return None;
        }
        // SAFETY: `p` is a valid RW mapping of at least `code.len()` bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(code.as_ptr(), p.cast::<u8>(), code.len());
            if mprotect(p, map_len, PROT_READ | PROT_EXEC) != 0 {
                munmap(p, map_len);
                return None;
            }
        }
        Some(ExecBuf { ptr: p.cast(), map_len })
    }
}

impl Drop for ExecBuf {
    fn drop(&mut self) {
        // SAFETY: the mapping is owned exclusively by this ExecBuf.
        unsafe {
            munmap(self.ptr.cast(), self.map_len);
        }
    }
}

// SAFETY: the mapping is immutable (RX) after construction.
unsafe impl Send for ExecBuf {}
// SAFETY: after `ExecBuf::new` returns, the mapping is read-and-execute
// only and no method writes it or `map_len`, so threads that share an
// `&ExecBuf` only read or call its code. `drop` unmaps it through
// `&mut self`, which no shared reference outlives.
unsafe impl Sync for ExecBuf {}

// -- deopt ------------------------------------------------------------------

/// What a deopt stub was guarding; replayed on the host to produce the
/// interpreter's exact error or panic.
#[derive(Debug, Clone, Copy)]
pub(super) enum Deopt {
    /// `Load` bounds check failed; `deopt_a` = index.
    LoadOob { buf: u32 },
    /// `Store` bounds check failed; `deopt_a` = index.
    StoreOob { buf: u32 },
    /// Integer `Div`/`Rem` with `b == 0` or `MIN / -1`; operands in
    /// `deopt_a` / `deopt_b`.
    DivRem { op: BinOp },
    /// `Neg`/`Abs` of `i64::MIN` under overflow checks; `deopt_a` = value.
    NegAbs { op: UnOp },
}

impl Deopt {
    /// The public label for this stub (metric suffix, tiers snapshot).
    pub(super) fn reason(self) -> super::DeoptReason {
        match self {
            Deopt::LoadOob { .. } => super::DeoptReason::OobLoad,
            Deopt::StoreOob { .. } => super::DeoptReason::OobStore,
            Deopt::DivRem { op: BinOp::Div } => super::DeoptReason::DivZero,
            Deopt::DivRem { .. } => super::DeoptReason::RemZero,
            Deopt::NegAbs { .. } => super::DeoptReason::MinNeg,
        }
    }
}

/// Always-on JIT metrics: total fired deopts plus a per-reason
/// breakdown. Registered once, cached for the (cold) deopt path.
struct JitMetrics {
    deopts_fired: std::sync::Arc<telemetry::metrics::Counter>,
    by_reason: [std::sync::Arc<telemetry::metrics::Counter>; 5],
}

fn jit_metrics() -> &'static JitMetrics {
    static M: std::sync::OnceLock<JitMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| JitMetrics {
        deopts_fired: telemetry::metrics::counter("jit.deopts_fired"),
        by_reason: super::DeoptReason::ALL
            .map(|r| telemetry::metrics::counter(&format!("jit.deopt.{}", r.name()))),
    })
}

// -- float helpers (called from generated code) -----------------------------

// No `#[no_mangle]` needed: the emitter embeds the function addresses as
// 64-bit immediates. All helpers are panic-free, so no unwind can cross
// the native frames.

pub(super) extern "C" fn jit_fminf(a: f32, b: f32) -> f32 {
    a.min(b)
}

pub(super) extern "C" fn jit_fmaxf(a: f32, b: f32) -> f32 {
    a.max(b)
}

pub(super) extern "C" fn jit_fmodf(a: f32, b: f32) -> f32 {
    a % b
}

pub(super) extern "C" fn jit_expf(a: f32) -> f32 {
    a.exp()
}

// -- parallel dispatch ------------------------------------------------------

/// Trampoline the generated code calls for every `Parallel` loop.
///
/// Mirrors the interpreter's `bc_exec_parallel` exactly: serial when the
/// dispatch does not pay for a crew (`crate::par::takes`: one thread,
/// inside a chunk, ≤ 1 iterations, or work below `crate::par::GRAIN`,
/// from the loop's estimate recorded at compile time), sharing the
/// caller's context so frame writes land in the parent like the
/// interpreter's serial fallback; otherwise the same static split on the
/// run's crew (`crate::par::Crew`), each chunk with private frame/pin
/// snapshots taken here and no crew (nested parallel loops run serially).
/// Chunk deopts are replayed where the chunk ran; the first failing chunk
/// in chunk order decides the dispatch, an error as status 1 and a panic,
/// with its own payload, as status 2 (`crate::par::settle`). All unwinding
/// is caught here — never across a native frame.
pub(super) extern "C" fn jit_par_dispatch(
    ctx: *mut JitCtx<'_>,
    loop_id: u64,
    lo: i64,
    hi: i64,
) -> u64 {
    // SAFETY: called only from generated code with the ctx built by
    // `JitProgram::run` (or a chunk's private one below); all pointers are
    // live for the duration of the call, and the host, program and buffers
    // they reach were created before the run's scope opened, so the
    // chunks' borrows of them outlive every worker.
    unsafe {
        let c = &mut *ctx;
        let host = &*c.host;
        let prog = &*host.prog;
        let (off, per_iter) = prog.par_fns[loop_id as usize];
        let f: ParFn = std::mem::transmute(prog.buf.ptr.add(off));
        let split = crate::par::takes(c.threads, lo, hi, per_iter);
        let Some(crew) = c.crew.as_mut().filter(|_| split) else {
            // Serial: run on the caller's own context; a deopt code
            // propagates to the caller's epilogue with the operands
            // already in this ctx.
            return f(ctx, lo, hi);
        };
        let frame = std::slice::from_raw_parts(c.frame, prog.n_vars);
        let ipin = std::slice::from_raw_parts(c.ipin, prog.n_iregs);
        let fpin = std::slice::from_raw_parts(c.fpin, prog.n_fregs);
        let bufs = std::slice::from_raw_parts(host.bufs, host.n_bufs);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let outcomes = crew.dispatch(lo, hi, |start, end| -> Job<'_, Result<()>> {
                let (mut frame, mut ipin, mut fpin) =
                    (frame.to_vec(), ipin.to_vec(), fpin.to_vec());
                Box::new(move || {
                    let table: Vec<*mut f32> = bufs.iter().map(SharedBuf::data_ptr).collect();
                    let mut sub =
                        JitCtx::new(&mut frame, &mut ipin, &mut fpin, &table, host, 1, None);
                    match f(&mut sub, start, end) {
                        0 => Ok(()),
                        code => prog.replay((code - 3) as usize, sub.deopt_a, sub.deopt_b, bufs),
                    }
                })
            });
            crate::par::settle(outcomes)
        }));
        match outcome {
            Ok(Ok(_)) => 0,
            Ok(Err(e)) => {
                *host.err.lock().expect("jit error slot poisoned") = Some(e);
                1
            }
            Err(payload) => {
                *host.panic.lock().expect("jit panic slot poisoned") = Some(payload);
                2
            }
        }
    }
}

type MainFn = extern "C" fn(*mut JitCtx<'_>) -> u64;
type ParFn = extern "C" fn(*mut JitCtx<'_>, i64, i64) -> u64;

// -- the compiled program ---------------------------------------------------

/// A bytecode program compiled to native x86-64, ready to run against a
/// [`crate::Machine`]'s buffers.
pub struct JitProgram {
    buf: ExecBuf,
    code_len: usize,
    main_off: usize,
    /// `(code offset, work estimate of one iteration)` per `Parallel`
    /// loop, in dispatch-id order.
    par_fns: Vec<(usize, u64)>,
    /// Whether some dispatch can reach a crew; a run on more than one
    /// thread opens one only then.
    may_split: bool,
    deopts: Vec<Deopt>,
    footprint: super::Footprint,
    /// The buffer lengths the bounds proofs assumed.
    buf_sizes: Vec<usize>,
    n_vars: usize,
    n_iregs: usize,
    n_fregs: usize,
}

impl std::fmt::Debug for JitProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitProgram")
            .field("code_len", &self.code_len)
            .field("fns", &self.n_fns())
            .field("deopts", &self.deopts.len())
            .finish_non_exhaustive()
    }
}

impl JitProgram {
    pub(super) fn new(
        code: Vec<u8>,
        main_off: usize,
        par_fns: Vec<(usize, u64)>,
        may_split: bool,
        deopts: Vec<Deopt>,
        footprint: super::Footprint,
        bc: &crate::bytecode::BcProgram,
    ) -> Option<JitProgram> {
        let code_len = code.len();
        Some(JitProgram {
            buf: ExecBuf::new(&code)?,
            code_len,
            main_off,
            par_fns,
            may_split,
            deopts,
            footprint,
            buf_sizes: bc.buf_sizes.clone(),
            n_vars: bc.n_vars,
            n_iregs: bc.n_iregs as usize,
            n_fregs: bc.n_fregs as usize,
        })
    }

    /// Bytes of generated machine code.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// Native function count: 1 (main) + one per `Parallel` loop.
    pub fn n_fns(&self) -> usize {
        1 + self.par_fns.len()
    }

    /// Number of deopt-to-interpreter stubs emitted.
    pub fn n_deopts(&self) -> usize {
        self.deopts.len()
    }

    /// What was emitted for the program (see [`super::Footprint`]).
    pub fn footprint(&self) -> super::Footprint {
        self.footprint
    }

    /// Whether `bufs` have exactly the lengths the code's bounds proofs
    /// assumed — the only buffers it may run over.
    pub(crate) fn fits(&self, bufs: &[SharedBuf]) -> bool {
        bufs.len() == self.buf_sizes.len()
            && bufs.iter().zip(&self.buf_sizes).all(|(b, &n)| b.len() == n)
    }

    /// Runs the program against `bufs`, seeding the variable frame with
    /// the machine's [`crate::Machine::bind`]ings. On more than one thread
    /// a program some dispatch of which can pay for a crew runs inside one
    /// `std::thread::scope` whose crew its context carries.
    ///
    /// # Errors
    ///
    /// [`Error::Structure`] without running anything when the buffers'
    /// lengths are not the ones the program was compiled for (its unguarded
    /// accesses are proven for those only); otherwise the interpreter's.
    pub(crate) fn run(
        &self,
        bufs: &[SharedBuf],
        threads: usize,
        seed: &[(Var, i64)],
    ) -> Result<()> {
        if !self.fits(bufs) {
            let lens: Vec<usize> = bufs.iter().map(SharedBuf::len).collect();
            return Err(Error::Structure(format!(
                "native code compiled for buffer lengths {:?} run over {lens:?}",
                self.buf_sizes
            )));
        }
        let mut frame = vec![0i64; self.n_vars];
        for (v, val) in seed {
            frame[v.index()] = *val;
        }
        let mut ipin = vec![0i64; self.n_iregs];
        let mut fpin = vec![0f32; self.n_fregs];
        let table: Vec<*mut f32> = bufs.iter().map(SharedBuf::data_ptr).collect();
        let host = RunHost {
            prog: self,
            bufs: bufs.as_ptr(),
            n_bufs: bufs.len(),
            err: Mutex::new(None),
            panic: Mutex::new(None),
        };
        let (frame, ipin, fpin) = (&mut frame, &mut ipin, &mut fpin);
        let (code, deopt_a, deopt_b) = if threads > 1 && self.may_split {
            std::thread::scope(|s| {
                let crew = Some(Crew::new(s, threads));
                self.enter(JitCtx::new(frame, ipin, fpin, &table, &host, threads, crew))
            })
        } else {
            self.enter(JitCtx::new(frame, ipin, fpin, &table, &host, threads, None))
        };
        match code {
            0 => Ok(()),
            1 => Err(host
                .err
                .lock()
                .expect("jit error slot poisoned")
                .take()
                .expect("status 1 without a stored error")),
            2 => resume_unwind(
                host.panic
                    .lock()
                    .expect("jit panic slot poisoned")
                    .take()
                    .expect("status 2 without a stored panic"),
            ),
            n => self.replay((n - 3) as usize, deopt_a, deopt_b, bufs),
        }
    }

    /// Calls the main function on `ctx`; returns its status and the deopt
    /// operands. The context, and the crew it carries, drop here.
    fn enter(&self, mut ctx: JitCtx<'_>) -> (u64, i64, i64) {
        // SAFETY: the entry offset was produced by the emitter for this
        // exact code buffer; the ctx pointers outlive the call.
        let code = unsafe {
            let f: MainFn = std::mem::transmute(self.buf.ptr.add(self.main_off));
            f(&mut ctx)
        };
        (code, ctx.deopt_a, ctx.deopt_b)
    }

    /// Re-executes the operation deopt stub `id` was guarding through the
    /// interpreter's scalar helpers; always produces the interpreter's
    /// error (`Err`) or panic for the operands that fired the guard.
    fn replay(&self, id: usize, a: i64, b: i64, bufs: &[SharedBuf]) -> Result<()> {
        let m = jit_metrics();
        m.deopts_fired.inc();
        m.by_reason[self.deopts[id].reason().index()].inc();
        match self.deopts[id] {
            Deopt::LoadOob { buf } | Deopt::StoreOob { buf } => {
                let sb = &bufs[buf as usize];
                Err(Error::OutOfBounds { buffer: sb.name().to_string(), index: a, size: sb.len() })
            }
            Deopt::DivRem { op } => {
                // Guards fire exactly when `apply_i` panics (b == 0 or
                // MIN / -1), reproducing its message verbatim.
                let _ = std::hint::black_box(apply_i(op, a, b));
                unreachable!("div/rem deopt fired for non-trapping operands {a} {op:?} {b}")
            }
            Deopt::NegAbs { op } => {
                let _ = std::hint::black_box(apply_un_i(op, a));
                unreachable!("neg/abs deopt fired for non-trapping operand {op:?} {a}")
            }
        }
    }
}
