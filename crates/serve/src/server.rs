//! The jp-serve server: a long-lived planning service over one warm
//! memo store.
//!
//! ## Thread structure
//!
//! Everything runs under a single [`std::thread::scope`], so shutdown
//! is structural — `run` cannot return with a thread still alive:
//!
//! * the **acceptor** (the thread that called [`Server::run`]) polls a
//!   non-blocking listener and spawns one **handler** per connection;
//! * each handler speaks the [`crate::proto`] frame protocol
//!   synchronously: read a request, admit or reject it, and — for
//!   admitted pebble jobs — take one of `--threads` solve permits and
//!   solve the job on its own thread.
//!
//! The permits are the only scheduler: at most `--threads` jobs solve
//! at once, and `--threads 1` makes solves strictly serial — the
//! deterministic mode the trace gate runs.
//!
//! ## Admission control
//!
//! A request is *rejected with a named reason* rather than queued
//! without bound:
//!
//! * `--max-edges`: graphs above the size cap are never admitted;
//! * `--max-pending`: at most this many admitted-but-unanswered jobs
//!   (waiting for a permit or solving) exist at once, claimed with a
//!   compare-exchange so the bound is exact under concurrency;
//! * `--budget`: branch-and-bound requests that exhaust the node
//!   budget are answered `Rejected`, mapping
//!   [`PebbleError::BudgetExhausted`] to back-pressure instead of
//!   failure;
//! * during shutdown every new pebble request is answered
//!   `ShuttingDown` while in-flight jobs drain.
//!
//! ## Telemetry
//!
//! Per request: a `serve.request` jp-obs span (with a
//! `serve.queue_wait_us` counter inside it, the wait for a permit), a
//! `serve.wire` span for the response write, and a `serve.latency_us`
//! jp-pulse histogram (p50/p95/p99 in every pulse snapshot). When the
//! client sent a tracing id (see [`crate::proto::Request::request`])
//! every one of those events — and everything the solver emits
//! underneath them — is stamped with it, which is what
//! `jp trace request <id>` reconstructs. At end of run
//! the server emits one deterministic set of jp-obs totals
//! (`serve.completed_total`, `serve.cost_sum`, `serve.errors_total`,
//! …) — these are what `jp trace check` gates as answer-class
//! counters. With `--xray-file` set, a [`crate::xray::Xray`] tail
//! sampler additionally keeps slow/failing requests at full detail.

use crate::proto::{
    self, FrameRead, PebbleAlgo, RequestBody, Response, ResponseBody, WIRE_VERSION,
};
use crate::xray::{Xray, XrayConfig};
use jp_graph::{BipartiteGraph, ComponentMap};
use jp_pebble::memo::{solve_with_memo_report, Memo, MemoStats};
use jp_pebble::{exact_bb, PebbleError};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long the acceptor sleeps when `accept` has nothing for it.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Read timeout on handler sockets; bounds how long a handler takes to
/// notice the shutdown flag.
const HANDLER_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Write timeout on handler sockets, so one dead-but-unclosed peer
/// cannot pin a handler thread forever.
const HANDLER_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Server configuration; every limit here is a named CLI flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7411` (`:0` for an ephemeral
    /// port, reported by [`Server::local_addr`]).
    pub addr: String,
    /// Solve permits: at most this many pebble jobs solve at once, each
    /// on its connection's handler thread. 1 makes solves strictly
    /// serial — the deterministic mode the trace gate runs.
    pub threads: usize,
    /// Admission bound: maximum admitted-but-unanswered pebble jobs.
    pub max_pending: usize,
    /// Admission bound: maximum edges in a submitted graph.
    pub max_edges: usize,
    /// Node budget for branch-and-bound ([`PebbleAlgo::Bb`]) requests.
    pub budget: u64,
    /// Warm-store checkpoint: loaded (if present) at bind, written
    /// atomically at shutdown.
    pub memo_file: Option<PathBuf>,
    /// When non-zero the server initiates shutdown on its own after
    /// answering this many pebble requests (a test/CI harness bound;
    /// 0 = serve until a `Shutdown` request arrives).
    pub max_requests: u64,
    /// Tail-sampling latency threshold (`--slow-us`): a request whose
    /// handler-observed total reaches it becomes an exemplar.
    pub slow_us: u64,
    /// When set (`--xray-file`), install the [`crate::xray::Xray`]
    /// tail sampler for the lifetime of the run and write sampled
    /// request traces here as schema-v2 JSONL.
    pub xray_file: Option<PathBuf>,
    /// Bound on concurrently buffered requests in the sampler ring
    /// (`--xray-ring`).
    pub xray_ring: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            max_pending: 64,
            max_edges: 4096,
            budget: 50_000_000,
            memo_file: None,
            max_requests: 0,
            slow_us: 5_000,
            xray_file: None,
            xray_ring: 64,
        }
    }
}

/// What one [`Server::run`] lifetime did, loaded after every thread
/// has joined (so the counters are final, not snapshots).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Pebble jobs admitted past admission control.
    pub accepted: u64,
    /// Pebble jobs answered with a cost.
    pub completed: u64,
    /// Requests refused (size cap, pending cap, budget, shutdown).
    pub rejected: u64,
    /// Requests that failed (protocol or solver errors).
    pub errors: u64,
    /// Sum of all answered costs — one number that differs if any
    /// single answer differs, which is what the trace gate wants.
    pub cost_sum: u64,
    /// Whether no admitted job was left unanswered once every handler
    /// had joined — i.e. shutdown drained cleanly.
    pub drained: bool,
    /// Entries in the warm store at exit.
    pub memo_entries: usize,
    /// Entries loaded from the checkpoint file at bind.
    pub preloaded: usize,
    /// Warm-store counters for the whole lifetime.
    pub memo: MemoStats,
    /// Requests the tail sampler kept at full detail (slow/errored).
    pub exemplars: u64,
    /// Requests the tail sampler reduced to their root span.
    pub downsampled: u64,
    /// Requests evicted from the sampler ring before finishing.
    pub xray_dropped: u64,
}

/// State shared by the acceptor and the handlers. All counters
/// are SeqCst: this is control-plane accounting on a network service,
/// not a solver hot loop, and the strongest ordering keeps every
/// cross-thread invariant (admission bound, drain condition) easy to
/// believe.
struct Shared {
    permits: Permits,
    shutdown: AtomicBool,
    /// Admitted-but-unanswered pebble jobs (waiting + solving).
    pending: AtomicUsize,
    connections: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    cost_sum: AtomicU64,
}

impl Shared {
    fn new(threads: usize) -> Shared {
        Shared {
            permits: Permits {
                free: Mutex::new(threads.max(1)),
                released: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cost_sum: AtomicU64::new(0),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Claims one pending slot iff fewer than `cap` are taken. The
    /// compare-exchange loop makes the admission bound exact: two
    /// handlers racing for the last slot cannot both win.
    fn try_admit(&self, cap: usize) -> bool {
        let mut cur = self.pending.load(Ordering::SeqCst);
        while cur < cap {
            match self
                .pending
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    }
}

/// Releases one pending slot on drop, so even a panicking solve cannot
/// strand the drain condition above zero.
struct PendingGuard<'a>(&'a Shared);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A counting semaphore over solve slots: `free` is how many more jobs
/// may start solving right now.
struct Permits {
    free: Mutex<usize>,
    released: Condvar,
}

impl Permits {
    /// Blocks until a slot is free and takes it. The lock is released
    /// before this returns, so no guard is live across the solve.
    fn acquire(&self) -> Permit<'_> {
        let mut free = lock(&self.free);
        while *free == 0 {
            free = self.released.wait(free).unwrap_or_else(|e| e.into_inner());
        }
        *free -= 1;
        Permit(self)
    }
}

/// One taken solve slot, handed back on drop (a panicking solve
/// included).
struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *lock(&self.0.free) += 1;
        self.0.released.notify_one();
    }
}

/// A bound jp-serve instance; [`Server::run`] serves until shutdown.
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    memo: Memo,
    preloaded: usize,
}

impl Server {
    /// Binds the listen socket and warms the memo store from the
    /// checkpoint file, when one is configured and present.
    // audit:allow(obs-coverage) setup I/O — per-request spans live in execute/handle_conn
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        let memo = Memo::new();
        let mut preloaded = 0;
        if let Some(path) = &cfg.memo_file {
            if path.exists() {
                let (loaded, _skipped) = memo.load_jsonl(path)?;
                preloaded = loaded;
            }
        }
        Ok(Server {
            cfg,
            listener,
            memo,
            preloaded,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    // audit:allow(obs-coverage) trivial accessor
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Entries loaded from the memo checkpoint at bind time.
    // audit:allow(obs-coverage) trivial accessor
    pub fn preloaded(&self) -> usize {
        self.preloaded
    }

    /// Serves until a `Shutdown` request (or the `max_requests` bound)
    /// fires, drains in-flight work, checkpoints the memo atomically,
    /// and returns the lifetime report.
    // audit:allow(obs-coverage) lifetime loop — emits the end-of-run counter set; per-request spans live in execute/handle_conn
    pub fn run(self) -> io::Result<ServeReport> {
        // When a scoped obs/pulse capture is active (the bench serve
        // axis runs the server on a spawned thread inside one), join
        // it so the end-of-run totals below land in the capture. With
        // no scope active both guards are no-ops.
        let _obs = jp_obs::adopt();
        let _pulse = jp_pulse::adopt();
        self.listener.set_nonblocking(true)?;
        let shared = Shared::new(self.cfg.threads);
        let cfg = &self.cfg;
        let memo = &self.memo;
        // Tail sampler: installed as the jp-obs *tap* so it rides
        // alongside (never instead of) a full --trace capture. The
        // guard uninstalls it before the report reads its counters.
        let xray = match &cfg.xray_file {
            Some(path) => Some(std::sync::Arc::new(Xray::create(XrayConfig {
                slow_us: cfg.slow_us,
                ring: cfg.xray_ring,
                path: path.clone(),
            })?)),
            None => None,
        };
        let tap = xray
            .as_ref()
            .map(|x| jp_obs::set_tap(x.clone() as std::sync::Arc<dyn jp_obs::Sink>));
        std::thread::scope(|s| {
            accept_loop(&self.listener, s, &shared, memo, cfg, xray.as_deref());
        });
        drop(tap);
        let drained = shared.pending.load(Ordering::SeqCst) == 0;
        let report = ServeReport {
            connections: shared.connections.load(Ordering::SeqCst),
            accepted: shared.accepted.load(Ordering::SeqCst),
            completed: shared.completed.load(Ordering::SeqCst),
            rejected: shared.rejected.load(Ordering::SeqCst),
            errors: shared.errors.load(Ordering::SeqCst),
            cost_sum: shared.cost_sum.load(Ordering::SeqCst),
            drained,
            memo_entries: self.memo.len(),
            preloaded: self.preloaded,
            memo: self.memo.stats(),
            exemplars: xray.as_ref().map_or(0, |x| x.exemplars()),
            downsampled: xray.as_ref().map_or(0, |x| x.downsampled()),
            xray_dropped: xray.as_ref().map_or(0, |x| x.dropped()),
        };
        // One deterministic set of end-of-run totals: for a fixed
        // workload these are identical run to run (the per-request
        // spans above them are timing and scheduling, gated softly).
        if jp_obs::enabled() {
            jp_obs::counter("serve", "connections", report.connections);
            jp_obs::counter("serve", "accepted", report.accepted);
            jp_obs::counter("serve", "completed_total", report.completed);
            jp_obs::counter("serve", "rejected_total", report.rejected);
            jp_obs::counter("serve", "errors_total", report.errors);
            jp_obs::counter("serve", "cost_sum", report.cost_sum);
        }
        if let Some(path) = &cfg.memo_file {
            // atomic temp+rename checkpoint: a crash mid-save (or a
            // kill -9) leaves the previous checkpoint intact
            self.memo.save_jsonl(path)?;
        }
        Ok(report)
    }
}

/// The acceptor: polls the non-blocking listener, spawns a handler
/// per connection, and initiates shutdown when the `max_requests`
/// bound fires. Returns once shutdown is flagged.
fn accept_loop<'scope, 'env>(
    listener: &'scope TcpListener,
    s: &'scope std::thread::Scope<'scope, 'env>,
    shared: &'scope Shared,
    memo: &'scope Memo,
    cfg: &'scope ServeConfig,
    xray: Option<&'scope Xray>,
) {
    while !shared.shutting_down() {
        if cfg.max_requests > 0 && shared.completed.load(Ordering::SeqCst) >= cfg.max_requests {
            shared.begin_shutdown();
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::SeqCst);
                s.spawn(move || handle_conn(stream, shared, memo, cfg, xray));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // a broken listener cannot serve anyone: drain and exit
                shared.errors.fetch_add(1, Ordering::SeqCst);
                shared.begin_shutdown();
            }
        }
    }
}

/// One connection: a synchronous request/response loop over the frame
/// protocol. Exits on peer close, connection error, or (when idle)
/// server shutdown.
fn handle_conn(
    mut stream: TcpStream,
    shared: &Shared,
    memo: &Memo,
    cfg: &ServeConfig,
    xray: Option<&Xray>,
) {
    let _obs = jp_obs::adopt();
    let _pulse = jp_pulse::adopt();
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(HANDLER_READ_TIMEOUT)).is_err()
        || stream
            .set_write_timeout(Some(HANDLER_WRITE_TIMEOUT))
            .is_err()
    {
        shared.errors.fetch_add(1, Ordering::SeqCst);
        return;
    }
    loop {
        let payload = match proto::read_frame(&mut stream) {
            Ok(FrameRead::Frame(p)) => p,
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Idle) => {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
            Err(_) => {
                shared.errors.fetch_add(1, Ordering::SeqCst);
                return;
            }
        };
        let (id, request, body) = match proto::parse_request(&payload) {
            Ok(req) => (req.id, req.request, req.body),
            Err(reason) => {
                shared.errors.fetch_add(1, Ordering::SeqCst);
                jp_pulse::counter_add("serve.errors", 1);
                if respond(&mut stream, 0, ResponseBody::Error { reason }).is_err() {
                    return;
                }
                continue;
            }
        };
        // Stamp every event this request causes — the solve runs right
        // here, so solver-side events included — with its tracing id.
        // Dropped at loop end.
        let _req = jp_obs::with_request(request);
        let t0 = Instant::now();
        let reply = match body {
            RequestBody::Ping => ResponseBody::Pong,
            RequestBody::Stats => stats_body(shared, memo),
            RequestBody::Shutdown => {
                shared.begin_shutdown();
                ResponseBody::ShuttingDown
            }
            RequestBody::Pebble { graph, algo } => admit(&graph, algo, shared, memo, cfg),
        };
        let failed = matches!(reply, ResponseBody::Error { .. });
        let wrote = {
            // serve.wire: response serialization + socket write, the
            // last leg of the request's critical path
            let _wire = jp_obs::span("serve", "wire");
            respond(&mut stream, id, reply)
        };
        if let (Some(x), Some(rid)) = (xray, request) {
            let micros = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
            x.finish(rid, micros, failed || wrote.is_err());
        }
        if wrote.is_err() {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            return;
        }
    }
}

/// Admission control for one pebble request; an admitted job waits
/// for a solve permit and is solved on the calling handler thread.
fn admit(
    graph: &BipartiteGraph,
    algo: PebbleAlgo,
    shared: &Shared,
    memo: &Memo,
    cfg: &ServeConfig,
) -> ResponseBody {
    if shared.shutting_down() {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        jp_pulse::counter_add("serve.rejected", 1);
        return ResponseBody::ShuttingDown;
    }
    if graph.edge_count() > cfg.max_edges {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        jp_pulse::counter_add("serve.rejected", 1);
        return ResponseBody::Rejected {
            reason: format!(
                "graph has {} edges, above the --max-edges cap of {}",
                graph.edge_count(),
                cfg.max_edges
            ),
        };
    }
    if !shared.try_admit(cfg.max_pending) {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        jp_pulse::counter_add("serve.rejected", 1);
        return ResponseBody::Rejected {
            reason: format!(
                "{} jobs already pending, the --max-pending admission bound; retry later",
                cfg.max_pending
            ),
        };
    }
    shared.accepted.fetch_add(1, Ordering::SeqCst);
    let _slot = PendingGuard(shared);
    let admitted = Instant::now();
    let _permit = shared.permits.acquire();
    execute(graph, algo, admitted, memo, cfg, shared)
}

/// Builds the `Stats` response from the shared counters and the warm
/// store.
fn stats_body(shared: &Shared, memo: &Memo) -> ResponseBody {
    let st = memo.stats();
    ResponseBody::Stats {
        entries: memo.len() as u64,
        hits: st.hits,
        misses: st.misses,
        recognized: st.recognized,
        completed: shared.completed.load(Ordering::SeqCst),
        rejected: shared.rejected.load(Ordering::SeqCst),
        errors: shared.errors.load(Ordering::SeqCst),
    }
}

/// Writes one response frame.
fn respond(stream: &mut TcpStream, id: u64, body: ResponseBody) -> io::Result<()> {
    let resp = Response {
        v: WIRE_VERSION,
        id,
        body,
    };
    let mut w = io::BufWriter::new(&mut *stream);
    proto::write_message(&mut w, &resp)?;
    w.flush()
}

/// Solves one admitted job under its permit and does the per-request
/// accounting. A solver panic is caught here and answered `Error`, so
/// the handler — and the server — keep serving.
fn execute(
    graph: &BipartiteGraph,
    algo: PebbleAlgo,
    admitted: Instant,
    memo: &Memo,
    cfg: &ServeConfig,
    shared: &Shared,
) -> ResponseBody {
    let queue_wait = admitted.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let t0 = Instant::now();
    let mut body = {
        let _span = jp_obs::span("serve", "request");
        jp_obs::counter("serve", "queue_wait_us", queue_wait);
        std::panic::catch_unwind(AssertUnwindSafe(|| solve_body(graph, algo, memo, cfg)))
            .unwrap_or_else(|_| ResponseBody::Error {
                reason: "the solver panicked before producing an answer".to_string(),
            })
    };
    let micros = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
    if let ResponseBody::Cost { micros: m, .. } = &mut body {
        *m = micros;
    }
    match &body {
        ResponseBody::Cost { cost, .. } => {
            shared.completed.fetch_add(1, Ordering::SeqCst);
            shared.cost_sum.fetch_add(*cost, Ordering::SeqCst);
            jp_pulse::counter_add("serve.completed", 1);
        }
        ResponseBody::Rejected { .. } => {
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            jp_pulse::counter_add("serve.rejected", 1);
        }
        _ => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            jp_pulse::counter_add("serve.errors", 1);
        }
    }
    jp_pulse::observe("serve.latency_us", micros);
    body
}

/// Runs the requested solver rung. Jobs solve single-threaded
/// (`threads == 1` inside the solve): parallelism comes from several
/// handlers holding permits at once, and a sequential solve per job is
/// what makes the memo counters of a fixed workload deterministic.
fn solve_body(
    g: &BipartiteGraph,
    algo: PebbleAlgo,
    memo: &Memo,
    cfg: &ServeConfig,
) -> ResponseBody {
    match algo {
        PebbleAlgo::Auto => match solve_with_memo_report(g, memo, 1) {
            Ok((scheme, rep)) => ResponseBody::Cost {
                cost: scheme.effective_cost(g) as u64,
                components: rep.components,
                served: rep.served(),
                fresh: rep.fresh,
                micros: 0,
            },
            Err(e) => ResponseBody::Error {
                reason: format!("solver error: {e}"),
            },
        },
        PebbleAlgo::Bb => match exact_bb::optimal_scheme_bb_par(g, cfg.budget, 1) {
            Ok(scheme) => {
                let components = u64::from(ComponentMap::new(g).count);
                ResponseBody::Cost {
                    cost: scheme.effective_cost(g) as u64,
                    components,
                    served: 0,
                    fresh: components,
                    micros: 0,
                }
            }
            Err(e @ PebbleError::BudgetExhausted { .. }) => ResponseBody::Rejected {
                reason: format!("{e}"),
            },
            Err(e) => ResponseBody::Error {
                reason: format!("solver error: {e}"),
            },
        },
    }
}
