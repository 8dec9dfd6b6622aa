//! Compile-as-a-service: a thread-safe session manager that shards
//! compile jobs across a worker pool and layers three caches in front of
//! the pass pipeline.
//!
//! Lookup order for every request:
//!
//! 1. **Memory tier** — an LRU of recently compiled modules keyed by
//!    [`ArtifactKey`] (program fingerprint + backend/options hash).
//! 2. **Disk tier** — the content-addressed [`ArtifactStore`]
//!    (persistent across processes; enabled by `TIRAMISU_CACHE_DIR` or
//!    [`ServiceConfig::cache_dir`]). Modules are reconstructed from
//!    artifacts without re-running the pass pipeline.
//! 3. **Fresh compile** — the job is enqueued for the worker pool.
//!
//! Identical in-flight requests are *single-flighted*: the second caller
//! blocks on the first caller's job slot instead of compiling again, so
//! N concurrent sessions asking for the same program cost one compile.
//! The job queue is bounded; when it is full new work is rejected with
//! [`Error::Busy`] so callers see back-pressure instead of unbounded
//! latency.
//!
//! All transitions are counted in always-on [`telemetry::metrics`]
//! counters ([`ServiceStats`] is a read-only snapshot of them), queue
//! wait and compile latency feed `service.*_us` histograms, and the
//! same values are mirrored into the telemetry timeline (category
//! `"service"`) when profiling is enabled. A corrupt disk artifact
//! triggers a flight-recorder dump ([`telemetry::flight::dump`]).

mod codec;
mod lru;

use crate::backend::cpu::{self, CpuModule, CpuOptions};
use crate::backend::dist::{self, DistModule, DistOptions};
use crate::backend::gpu::{self, GpuModule, GpuOptions};
use crate::function::{Error, Function, Result};
use artifacts::{fnv64, Artifact, ArtifactKey, ArtifactStore};
use lru::Lru;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;
use telemetry::metrics::{Counter, Gauge, Histogram};

/// The one artifact section: the serialized module.
const SEC_MODULE: &str = "module";

// ---------------------------------------------------------------------------
// Requests and keys
// ---------------------------------------------------------------------------

/// A compile request for one backend, carrying that backend's options.
#[derive(Debug, Clone)]
enum Request {
    Cpu(CpuOptions),
    Gpu(GpuOptions),
    Dist(DistOptions),
}

impl Request {
    /// Hash of everything in the request that affects generated code.
    ///
    /// The backend kind is included so CPU/GPU/dist artifacts for the
    /// same source never collide; `trace` flags are deliberately
    /// *excluded* — tracing changes what is recorded, not what is
    /// generated, so traced and untraced compiles share one artifact.
    fn config_hash(&self) -> u64 {
        let s = match self {
            Request::Cpu(o) => {
                format!("cpu;check={};separate_tiles={}", o.check_legality, o.separate_tiles)
            }
            Request::Gpu(o) => format!("gpu;check={}", o.check_legality),
            Request::Dist(o) => {
                format!("dist;check={};check_comm={}", o.check_legality, o.check_comm)
            }
        };
        fnv64(s.as_bytes())
    }

    fn backend(&self) -> &'static str {
        match self {
            Request::Cpu(_) => "cpu",
            Request::Gpu(_) => "gpu",
            Request::Dist(_) => "dist",
        }
    }
}

/// Builds the content-addressed key for one compile request.
///
/// The source half folds the [`Function::fingerprint`] with the
/// parameter bindings (sorted, so binding order is irrelevant); the
/// config half comes from [`Request::config_hash`].
fn artifact_key(f: &Function, params: &[(&str, i64)], req: &Request) -> ArtifactKey {
    let mut ps: Vec<(&str, i64)> = params.to_vec();
    ps.sort();
    let mut s = String::new();
    let _ = write!(s, "{:016x};params {ps:?}", f.fingerprint());
    ArtifactKey::new(fnv64(s.as_bytes()), req.config_hash())
}

/// A compiled module of any backend, shared between the cache tiers and
/// all callers that requested it.
#[derive(Clone)]
enum CachedModule {
    Cpu(Arc<CpuModule>),
    Gpu(Arc<GpuModule>),
    Dist(Arc<DistModule>),
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Monotonic counters for every cache transition the service makes.
///
/// A read-only snapshot of the service's [`telemetry::metrics`]
/// counters — the counters themselves are the single source of truth
/// (the old duplicate `AtomicU64` mirror is gone). Deterministic for a
/// fixed workload — they count events, never time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered from the in-memory LRU.
    pub memory_hits: u64,
    /// Requests answered by decoding a disk artifact.
    pub disk_hits: u64,
    /// Requests that ran the full pass pipeline.
    pub compiles: u64,
    /// Requests that piggybacked on an identical in-flight job.
    pub dedup_waits: u64,
    /// Requests rejected with [`Error::Busy`] because the queue was full.
    pub busy_rejections: u64,
    /// Disk artifacts that failed validation and fell back to recompile.
    pub corrupt_artifacts: u64,
    /// Modules evicted from the memory tier.
    pub evictions: u64,
}

/// The service's live metrics: [`Counter`]s for every cache transition
/// plus latency [`Histogram`]s. A private service owns private
/// instances (so tests assert exact per-instance counts); the [`global`]
/// service's instances are additionally registered in the process-wide
/// registry under `service.*`, where they show up in metrics snapshots
/// and flight-recorder dumps.
struct ServiceMetrics {
    memory_hits: Arc<Counter>,
    disk_hits: Arc<Counter>,
    compiles: Arc<Counter>,
    dedup_waits: Arc<Counter>,
    busy_rejections: Arc<Counter>,
    corrupt_artifacts: Arc<Counter>,
    /// Mirror of the memory-tier LRU's eviction count (the LRU is the
    /// source; the gauge is a registry view refreshed on insert).
    evictions: Arc<Gauge>,
    /// Microseconds jobs spent queued before a worker picked them up.
    queue_wait_us: Arc<Histogram>,
    /// Microseconds per fresh pass-pipeline compile.
    compile_us: Arc<Histogram>,
}

impl ServiceMetrics {
    fn private() -> ServiceMetrics {
        ServiceMetrics {
            memory_hits: Arc::new(Counter::new()),
            disk_hits: Arc::new(Counter::new()),
            compiles: Arc::new(Counter::new()),
            dedup_waits: Arc::new(Counter::new()),
            busy_rejections: Arc::new(Counter::new()),
            corrupt_artifacts: Arc::new(Counter::new()),
            evictions: Arc::new(Gauge::new()),
            queue_wait_us: Arc::new(Histogram::new()),
            compile_us: Arc::new(Histogram::new()),
        }
    }

    fn registered() -> ServiceMetrics {
        use telemetry::metrics as m;
        ServiceMetrics {
            memory_hits: m::counter("service.memory_hits"),
            disk_hits: m::counter("service.disk_hits"),
            compiles: m::counter("service.compiles"),
            dedup_waits: m::counter("service.dedup_waits"),
            busy_rejections: m::counter("service.busy_rejections"),
            corrupt_artifacts: m::counter("service.corrupt_artifacts"),
            evictions: m::gauge("service.evictions"),
            queue_wait_us: m::histogram("service.queue_wait_us"),
            compile_us: m::histogram("service.compile_us"),
        }
    }

    /// Increments a counter and mirrors the new value into the telemetry
    /// timeline (a view of the counter, not a second copy).
    fn bump(&self, which: &Counter, name: &'static str) {
        which.inc();
        telemetry::counter("service", name, which.get() as f64);
    }
}

// ---------------------------------------------------------------------------
// Service internals
// ---------------------------------------------------------------------------

/// One queued compile job plus the slot its waiters block on.
struct Job {
    key: ArtifactKey,
    f: Function,
    params: Vec<(String, i64)>,
    req: Request,
    slot: Arc<JobSlot>,
    /// When the job entered the queue (feeds `service.queue_wait_us`).
    enqueued: Instant,
}

/// Rendezvous for single-flight waiters: filled exactly once by the
/// worker (or by the enqueueing caller on back-pressure rejection).
struct JobSlot {
    done: Mutex<Option<Result<CachedModule>>>,
    cv: Condvar,
}

impl JobSlot {
    fn new() -> Arc<JobSlot> {
        Arc::new(JobSlot { done: Mutex::new(None), cv: Condvar::new() })
    }

    fn fill(&self, result: Result<CachedModule>) {
        *self.done.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<CachedModule> {
        let mut g = self.done.lock().unwrap();
        while g.is_none() {
            g = self.cv.wait(g).unwrap();
        }
        g.as_ref().unwrap().clone()
    }
}

struct State {
    memory: Lru<ArtifactKey, CachedModule>,
    inflight: HashMap<ArtifactKey, Arc<JobSlot>>,
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes workers when the queue gains a job (or on shutdown).
    work_cv: Condvar,
    store: Option<ArtifactStore>,
    metrics: ServiceMetrics,
    queue_capacity: usize,
}

impl Shared {
    /// Refreshes the eviction gauge from the memory LRU (called with the
    /// state lock held, after any insert that may have evicted).
    fn sync_evictions(&self, st: &State) {
        self.metrics.evictions.set(st.memory.evictions());
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Construction parameters for a [`CompileService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads compiling queued jobs.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before [`Error::Busy`].
    pub queue_capacity: usize,
    /// Capacity of the in-memory module LRU (0 disables the tier).
    pub memory_capacity: usize,
    /// Directory for the persistent artifact store; `None` disables the
    /// disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Register this service's counters/histograms in the process-wide
    /// [`telemetry::metrics`] registry under `service.*`. Off by default
    /// (private services keep private counters, so tests can assert
    /// exact per-instance counts); the [`global`] service registers.
    pub register_metrics: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            memory_capacity: 32,
            cache_dir: None,
            register_metrics: false,
        }
    }
}

impl ServiceConfig {
    /// Default configuration plus a disk tier at `TIRAMISU_CACHE_DIR`
    /// when that variable is set and non-empty. Metrics are registered
    /// process-wide: this is the configuration of the [`global`] service.
    pub fn from_env() -> ServiceConfig {
        let cache_dir = std::env::var(artifacts::CACHE_DIR_ENV)
            .ok()
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        ServiceConfig { cache_dir, register_metrics: true, ..ServiceConfig::default() }
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Thread-safe compile session manager. See the module docs for the
/// lookup pipeline; construct with [`CompileService::new`] or use the
/// process-wide [`global`] instance.
pub struct CompileService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl CompileService {
    /// Starts the worker pool and (when configured) opens the disk
    /// store. A store directory that cannot be opened disables the disk
    /// tier rather than failing construction.
    pub fn new(config: ServiceConfig) -> CompileService {
        let store = config.cache_dir.as_ref().and_then(|d| ArtifactStore::open(d).ok());
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                memory: Lru::new(config.memory_capacity),
                inflight: HashMap::new(),
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            store,
            metrics: if config.register_metrics {
                ServiceMetrics::registered()
            } else {
                ServiceMetrics::private()
            },
            queue_capacity: config.queue_capacity.max(1),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tiramisu-compile-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn compile worker")
            })
            .collect();
        CompileService { shared, workers }
    }

    /// Compiles for the CPU backend through the cache tiers.
    ///
    /// Only the request that ran the pipeline can see a compile trace:
    /// modules decoded from a disk artifact report
    /// `compile_trace() == None` (an artifact holds the module alone).
    pub fn compile_cpu(
        &self,
        f: &Function,
        params: &[(&str, i64)],
        options: CpuOptions,
    ) -> Result<Arc<CpuModule>> {
        match self.compile_cached(f, params, Request::Cpu(options))? {
            CachedModule::Cpu(m) => Ok(m),
            _ => Err(Error::Backend("cache returned non-CPU module".into())),
        }
    }

    /// Compiles for the GPU backend through the cache tiers.
    pub fn compile_gpu(
        &self,
        f: &Function,
        params: &[(&str, i64)],
        options: GpuOptions,
    ) -> Result<Arc<GpuModule>> {
        match self.compile_cached(f, params, Request::Gpu(options))? {
            CachedModule::Gpu(m) => Ok(m),
            _ => Err(Error::Backend("cache returned non-GPU module".into())),
        }
    }

    /// Compiles for the distributed backend through the cache tiers.
    pub fn compile_dist(
        &self,
        f: &Function,
        params: &[(&str, i64)],
        options: DistOptions,
    ) -> Result<Arc<DistModule>> {
        match self.compile_cached(f, params, Request::Dist(options))? {
            CachedModule::Dist(m) => Ok(m),
            _ => Err(Error::Backend("cache returned non-dist module".into())),
        }
    }

    /// Snapshot of the service counters (read from the live metrics; no
    /// second copy is maintained anywhere).
    pub fn stats(&self) -> ServiceStats {
        let m = &self.shared.metrics;
        let evictions = self.shared.state.lock().unwrap().memory.evictions();
        ServiceStats {
            memory_hits: m.memory_hits.get(),
            disk_hits: m.disk_hits.get(),
            compiles: m.compiles.get(),
            dedup_waits: m.dedup_waits.get(),
            busy_rejections: m.busy_rejections.get(),
            corrupt_artifacts: m.corrupt_artifacts.get(),
            evictions,
        }
    }

    /// Point-in-time `(queue_wait, compile_latency)` histograms in
    /// microseconds, with p50/p95/p99 available on each snapshot.
    pub fn latency_snapshots(
        &self,
    ) -> (telemetry::metrics::HistogramSnapshot, telemetry::metrics::HistogramSnapshot) {
        (self.shared.metrics.queue_wait_us.snapshot(), self.shared.metrics.compile_us.snapshot())
    }

    /// Drops every module from the memory tier (the disk tier is
    /// untouched). Useful for forcing disk hits in benchmarks and tests.
    pub fn clear_memory(&self) {
        self.shared.state.lock().unwrap().memory.clear();
    }

    /// The disk store directory, when the disk tier is enabled.
    pub fn cache_dir(&self) -> Option<PathBuf> {
        self.shared.store.as_ref().map(|s| s.dir().to_path_buf())
    }

    /// Whether `key`'s artifact is present on disk right now.
    #[cfg(test)]
    fn probe_disk(&self, key: ArtifactKey) -> bool {
        self.shared.store.as_ref().is_some_and(|s| s.contains(key))
    }

    /// Core lookup: memory -> in-flight -> disk -> enqueue.
    fn compile_cached(
        &self,
        f: &Function,
        params: &[(&str, i64)],
        req: Request,
    ) -> Result<CachedModule> {
        let key = artifact_key(f, params, &req);
        let shared = &self.shared;
        let _span = telemetry::span("service", format!("request:{}:{}", req.backend(), f.name));

        // Tier 1: memory, and single-flight piggyback on identical jobs.
        let slot = {
            let mut st = shared.state.lock().unwrap();
            if let Some(m) = st.memory.get(&key) {
                let m = m.clone();
                drop(st);
                shared.metrics.bump(&shared.metrics.memory_hits, "memory_hits");
                return Ok(m);
            }
            if let Some(slot) = st.inflight.get(&key) {
                let slot = Arc::clone(slot);
                drop(st);
                shared.metrics.bump(&shared.metrics.dedup_waits, "dedup_waits");
                return slot.wait();
            }
            // We own this key: register the slot before touching disk so
            // concurrent identical requests dedup onto it.
            let slot = JobSlot::new();
            st.inflight.insert(key, Arc::clone(&slot));
            slot
        };

        // Tier 2: disk. Any decode failure (corrupt, truncated, stale
        // format) is a miss, never an error.
        if let Some(store) = &shared.store {
            if let Some(art) = store.get(key) {
                match decode_artifact(&art, &req) {
                    Ok(m) => {
                        shared.metrics.bump(&shared.metrics.disk_hits, "disk_hits");
                        let mut st = shared.state.lock().unwrap();
                        st.memory.insert(key, m.clone());
                        shared.sync_evictions(&st);
                        st.inflight.remove(&key);
                        drop(st);
                        slot.fill(Ok(m.clone()));
                        return Ok(m);
                    }
                    Err(e) => {
                        shared.metrics.bump(&shared.metrics.corrupt_artifacts, "corrupt_artifacts");
                        telemetry::instant("service", format!("corrupt_artifact:{e}"));
                        store.remove(key);
                        // A corrupt artifact means on-disk state went bad:
                        // preserve the evidence trail for inspection.
                        telemetry::flight::dump("corrupt-artifact");
                    }
                }
            }
        }

        // Tier 3: enqueue for the worker pool, honoring back-pressure.
        {
            let mut st = shared.state.lock().unwrap();
            if st.queue.len() >= shared.queue_capacity {
                st.inflight.remove(&key);
                drop(st);
                shared.metrics.bump(&shared.metrics.busy_rejections, "busy_rejections");
                let err = Error::Busy(format!(
                    "queue full ({} jobs) compiling {}",
                    shared.queue_capacity, f.name
                ));
                // Waiters that piggybacked between slot registration and
                // now ride the same rejection.
                slot.fill(Err(err.clone()));
                return Err(err);
            }
            st.queue.push_back(Job {
                key,
                f: f.clone(),
                params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                req,
                slot: Arc::clone(&slot),
                enqueued: Instant::now(),
            });
            telemetry::counter("service", "queue_depth", st.queue.len() as f64);
        }
        shared.work_cv.notify_one();
        slot.wait()
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    telemetry::counter("service", "queue_depth", st.queue.len() as f64);
                    shared.metrics.queue_wait_us.record_duration(job.enqueued.elapsed());
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        run_job(shared, job);
    }
}

fn run_job(shared: &Shared, job: Job) {
    let _span =
        telemetry::span("service", format!("compile:{}:{}", job.req.backend(), job.f.name));
    let params: Vec<(&str, i64)> = job.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    shared.metrics.bump(&shared.metrics.compiles, "compiles");
    // A compile that panics must still answer: an unfilled slot blocks the
    // requester and every dedup waiter forever, and the unwinding worker
    // would be gone from the pool.
    let compiled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let result = match &job.req {
            Request::Cpu(o) => {
                cpu::compile(&job.f, &params, o.clone()).map(|m| CachedModule::Cpu(Arc::new(m)))
            }
            Request::Gpu(o) => {
                gpu::compile(&job.f, &params, o.clone()).map(|m| CachedModule::Gpu(Arc::new(m)))
            }
            Request::Dist(o) => {
                dist::compile(&job.f, &params, o.clone()).map(|m| CachedModule::Dist(Arc::new(m)))
            }
        };
        shared.metrics.compile_us.record_duration(t0.elapsed());
        if let Ok(m) = &result {
            persist(shared, job.key, m);
        }
        result
    }));
    let result = compiled.unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(Error::Backend(format!("compile panicked: {what}")))
    });
    let mut st = shared.state.lock().unwrap();
    if let Ok(m) = &result {
        st.memory.insert(job.key, m.clone());
        shared.sync_evictions(&st);
    }
    st.inflight.remove(&job.key);
    drop(st);
    job.slot.fill(result);
}

/// Writes the module to the disk tier (when there is one) as the
/// artifact's single section.
fn persist(shared: &Shared, key: ArtifactKey, m: &CachedModule) {
    if let Some(store) = &shared.store {
        let module = match m {
            CachedModule::Cpu(m) => codec::encode_cpu(m),
            CachedModule::Gpu(m) => codec::encode_gpu(m),
            CachedModule::Dist(m) => codec::encode_dist(m),
        };
        // Disk-tier write failures (full disk, permissions) only cost
        // future disk hits; the compile itself already succeeded.
        let _ = store.put(key, &[(SEC_MODULE, &module)]);
    }
}

fn decode_artifact(
    art: &Artifact,
    req: &Request,
) -> std::result::Result<CachedModule, artifacts::WireError> {
    let bytes = art
        .section(SEC_MODULE)
        .ok_or_else(|| artifacts::wire::malformed("artifact has no module section"))?;
    Ok(match req {
        Request::Cpu(_) => CachedModule::Cpu(Arc::new(codec::decode_cpu(bytes)?)),
        Request::Gpu(_) => CachedModule::Gpu(Arc::new(codec::decode_gpu(bytes)?)),
        Request::Dist(_) => CachedModule::Dist(Arc::new(codec::decode_dist(bytes)?)),
    })
}

// ---------------------------------------------------------------------------
// Global instance
// ---------------------------------------------------------------------------

/// The process-wide service, built from [`ServiceConfig::from_env`] on
/// first use (so `TIRAMISU_CACHE_DIR` enables persistent caching for
/// every example and benchmark without plumbing).
pub fn global() -> &'static CompileService {
    static GLOBAL: OnceLock<CompileService> = OnceLock::new();
    GLOBAL.get_or_init(|| CompileService::new(ServiceConfig::from_env()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn sample(name: &str, scale: f32) -> Function {
        let mut f = Function::new(name, &["N"]);
        let i = f.var("i", 0, Expr::param("N"));
        let input = f.input("in", std::slice::from_ref(&i)).unwrap();
        f.computation("out", &[i], f.access(input, &[Expr::iter("i")]) * Expr::f32(scale))
            .unwrap();
        f
    }

    #[test]
    fn memory_tier_serves_repeat_requests() {
        let svc = CompileService::new(ServiceConfig::default());
        let f = sample("s1", 2.0);
        let a = svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
        let b = svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request should be the same cached Arc");
        let st = svc.stats();
        assert_eq!((st.compiles, st.memory_hits), (1, 1));
    }

    #[test]
    fn distinct_options_and_backends_get_distinct_keys() {
        let f = sample("s2", 2.0);
        let cpu = Request::Cpu(CpuOptions::default());
        let cpu_tiles =
            Request::Cpu(CpuOptions { separate_tiles: true, ..CpuOptions::default() });
        let gpu = Request::Gpu(GpuOptions::default());
        let dist = Request::Dist(DistOptions::default());
        let params = [("N", 16i64)];
        let keys = [
            artifact_key(&f, &params, &cpu),
            artifact_key(&f, &params, &cpu_tiles),
            artifact_key(&f, &params, &gpu),
            artifact_key(&f, &params, &dist),
            artifact_key(&f, &[("N", 32)], &cpu),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Trace flags must NOT change the key.
        let traced = Request::Cpu(CpuOptions { trace: true, ..CpuOptions::default() });
        assert_eq!(artifact_key(&f, &params, &cpu), artifact_key(&f, &params, &traced));
        // Param binding order must not matter.
        let mut g = sample("s3", 2.0);
        g.params.push("M".into());
        let ab = artifact_key(&g, &[("N", 16), ("M", 4)], &cpu);
        let ba = artifact_key(&g, &[("M", 4), ("N", 16)], &cpu);
        assert_eq!(ab, ba);
    }

    #[test]
    fn disk_tier_survives_service_restart() {
        let dir = std::env::temp_dir().join(format!("tirasvc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config =
            ServiceConfig { cache_dir: Some(dir.clone()), ..ServiceConfig::default() };
        let f = sample("s4", 5.0);
        {
            let svc = CompileService::new(config.clone());
            svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
            assert_eq!(svc.stats().compiles, 1);
        }
        let svc = CompileService::new(config);
        let key = artifact_key(&f, &[("N", 16)], &Request::Cpu(CpuOptions::default()));
        assert!(svc.probe_disk(key), "artifact should persist across restarts");
        svc.compile_cpu(&f, &[("N", 16)], CpuOptions::default()).unwrap();
        let st = svc.stats();
        assert_eq!((st.compiles, st.disk_hits), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cold compile writes the module and nothing else (no rendered
    /// text nobody reads), traced or not, and that one section is enough
    /// to serve the module after a restart.
    #[test]
    fn an_artifact_is_exactly_its_module_section() {
        let dir = std::env::temp_dir().join(format!("tirasvc-onesec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config =
            ServiceConfig { cache_dir: Some(dir.clone()), ..ServiceConfig::default() };
        let f = sample("s5", 3.0);
        let traced = CpuOptions { trace: true, ..CpuOptions::default() };
        let key = artifact_key(&f, &[("N", 16)], &Request::Cpu(traced.clone()));
        let cold = {
            let svc = CompileService::new(config.clone());
            svc.compile_cpu(&f, &[("N", 16)], traced.clone()).unwrap()
        };
        assert!(cold.compile_trace().is_some());

        let svc = CompileService::new(config);
        let art = svc.shared.store.as_ref().unwrap().get(key).expect("artifact on disk");
        assert_eq!(art.section_names().collect::<Vec<_>>(), [SEC_MODULE]);
        let warm = svc.compile_cpu(&f, &[("N", 16)], traced).unwrap();
        let st = svc.stats();
        assert_eq!((st.compiles, st.disk_hits), (0, 1));
        assert_eq!(warm.program, cold.program);
        assert_eq!(warm.disasm(), cold.disasm());
        assert!(warm.compile_trace().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
