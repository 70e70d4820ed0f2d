//! The two jp-serve workloads, `serve_hit` and `serve_cold`.
//!
//! Both run a real [`Server`] in this process (`Server::bind` +
//! `Server::run` on a thread of its own) and drive it through two
//! [`Client`] connections from two closed-loop client threads. Every
//! answer is checked against exact branch-and-bound, which shares no
//! code with the serve path's memo → Held–Karp-first portfolio ladder.

use crate::stats::{self, micros_since, timed, TAIL_BLOCK};
use crate::{round_seed, Config, Report, ROUNDS};
use jp_graph::canon::{canonical_form, CanonicalKey};
use jp_graph::{generators, BipartiteGraph, ComponentMap};
use jp_pebble::exact::MAX_EXACT_EDGES;
use jp_pebble::exact_bb::optimal_effective_cost_bb;
use jp_pebble::memo::{recognize_component, solve_with_memo_report, Memo, MemoSolveReport};
use jp_pebble::portfolio::portfolio_scheme_memo;
use jp_serve::{
    proto, Client, PebbleAlgo, Request, RequestBody, Response, ResponseBody, ServeConfig,
    ServeReport, Server, WIRE_VERSION,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Client threads and connections (the host has 2 cores).
const CLIENTS: usize = 2;
/// Node budget for the branch-and-bound oracle; every component stays
/// at or below `MAX_EXACT_EDGES`, where it proves optimality quickly.
const BB_BUDGET: u64 = 50_000_000;
/// Traced replays cover at most this many requests of each class in a
/// run, shared evenly over its rounds.
const REPLAY_CAP: usize = 1000;
/// `--slow-us` of the xray sampler on `serve_cold`, as CI's serve check
/// runs it.
const XRAY_SLOW_US: u64 = 500;

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Rounds per run; each sets up afresh, and `setup_s` is taken over
    /// their set-ups.
    rounds: usize,
    /// Warm request graphs in a round's hit pool.
    pool: usize,
    /// Distinct unrecognized base shapes (7–10 edges), each solved fresh
    /// once during a round's warm-up.
    bases: usize,
    /// Components per pool graph.
    components: usize,
    /// Of those, members of the recognized closed-form families; the
    /// rest are relabeled copies of warm base shapes, so they are
    /// validated cache hits and canonicalization carries real weight. A
    /// fixed split keeps request cost, and with it the tail, from
    /// varying with the draw.
    recognized: usize,
    /// `serve_hit`: timed requests per round, each a random pool graph.
    hits: usize,
    /// `serve_cold`: fresh components of 11–14 edges per round, each
    /// sent once.
    misses: usize,
    /// `serve_cold`: one request in this many carries a fresh component.
    miss_every: usize,
}

impl Sizes {
    fn new(seconds: u64, tiny: bool) -> Sizes {
        if tiny {
            return Sizes {
                rounds: 2,
                pool: 16,
                bases: 8,
                components: 3,
                recognized: 1,
                hits: 100,
                misses: 3,
                miss_every: 4,
            };
        }
        let per_round = |per_second: usize| (per_second * seconds as usize / ROUNDS).max(1);
        Sizes {
            rounds: ROUNDS,
            pool: 512,
            bases: 128,
            components: 8,
            recognized: 3,
            // Fixed counts, so the samples kept (and `peak_rss_mib`) do
            // not grow with speed. On the 2-core host this was sized on,
            // a hit takes about 0.28 ms of the window, and a miss with
            // its three hits about 6.5 ms, so the window lasts `seconds`.
            hits: per_round(3_600),
            misses: per_round(150),
            miss_every: 4,
        }
    }
}

/// One request the clients can send, with its oracle answer.
struct Job {
    graph: BipartiteGraph,
    expected: u64,
    /// The never-seen component this request carries (`serve_cold`).
    fresh: Option<BipartiteGraph>,
}

struct Inputs {
    /// Warm-up requests: each base shape alone, a memo miss the first
    /// time it is seen.
    warm: Vec<Job>,
    /// The hit pool, then (on `serve_cold`) one request per fresh
    /// component, each a pool graph plus the component.
    jobs: Vec<Job>,
    /// The timed requests, in order, as indices into `jobs`.
    schedule: Vec<usize>,
}

/// One answered (or failed) request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    job: usize,
    miss: bool,
    latency_us: f64,
    /// Completion order across both clients.
    seq: usize,
    done: Instant,
    verified: bool,
    answer: Option<Answer>,
}

#[derive(Debug, Clone, Copy)]
struct Answer {
    cost: u64,
    components: u64,
    served: u64,
    fresh: u64,
    micros: u64,
}

fn shuffled(n: u32, rng: &mut SmallRng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n).collect();
    for i in (1..p.len()).rev() {
        p.swap(i, rng.random_range(0..=i));
    }
    p
}

/// An isomorphic copy under random vertex permutations, mirrored half
/// the time.
fn relabel(g: &BipartiteGraph, rng: &mut SmallRng) -> BipartiteGraph {
    let pl = shuffled(g.left_count(), rng);
    let pr = shuffled(g.right_count(), rng);
    let edges = g
        .edges()
        .iter()
        .map(|&(l, r)| (pl[l as usize], pr[r as usize]));
    if rng.random_bool(0.5) {
        BipartiteGraph::new(
            g.right_count(),
            g.left_count(),
            edges.map(|(l, r)| (r, l)).collect(),
        )
    } else {
        BipartiteGraph::new(g.left_count(), g.right_count(), edges.collect())
    }
}

/// A random connected bipartite graph with `k, l ∈ sides` and
/// `m ∈ edges` (clamped to what `k × l` vertices allow).
fn random_shape(
    rng: &mut SmallRng,
    sides: std::ops::RangeInclusive<u32>,
    edges: std::ops::RangeInclusive<usize>,
) -> BipartiteGraph {
    let k = rng.random_range(sides.clone());
    let l = rng.random_range(sides);
    let lo = (k + l - 1) as usize;
    let hi = (k * l) as usize;
    let m = rng.random_range(edges).clamp(lo, hi);
    generators::random_connected_bipartite(k, l, m, rng.random::<u64>())
}

/// A small member of one of the recognizer's closed-form families.
fn recognized_family(rng: &mut SmallRng) -> BipartiteGraph {
    match rng.random_range(0..4u32) {
        0 => generators::spider(rng.random_range(3..=6)),
        1 => generators::complete_bipartite(rng.random_range(2..=3), rng.random_range(2..=4)),
        2 => generators::path(rng.random_range(3..=10)),
        _ => generators::cycle(rng.random_range(2..=5)),
    }
}

/// Draws unrecognized, canonicalizable shapes whose canonical keys are
/// new to `seen`.
fn novel_shapes(
    count: usize,
    rng: &mut SmallRng,
    seen: &mut HashSet<CanonicalKey>,
    sides: std::ops::RangeInclusive<u32>,
    edges: std::ops::RangeInclusive<usize>,
) -> Vec<BipartiteGraph> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let g = random_shape(rng, sides.clone(), edges.clone());
        if recognize_component(&g).is_some() {
            continue;
        }
        if let Some(form) = canonical_form(&g) {
            if seen.insert(form.key) {
                out.push(g);
            }
        }
    }
    out
}

fn union(parts: &[BipartiteGraph]) -> BipartiteGraph {
    let mut it = parts.iter();
    let first = it
        .next()
        .cloned()
        .unwrap_or_else(|| BipartiteGraph::new(0, 0, Vec::new()));
    it.fold(first, |acc, g| acc.disjoint_union(g))
}

/// The oracle: exact branch-and-bound, independent of the serve path.
fn oracle(g: &BipartiteGraph) -> Result<u64, String> {
    let cm = ComponentMap::new(g);
    for edges in cm.edges_by_component() {
        if edges.len() > MAX_EXACT_EDGES {
            return Err(format!(
                "a component has {} edges, above MAX_EXACT_EDGES",
                edges.len()
            ));
        }
    }
    optimal_effective_cost_bb(g, BB_BUDGET)
        .map(|c| c as u64)
        .map_err(|e| format!("oracle: {e}"))
}

fn job(graph: BipartiteGraph, fresh: Option<BipartiteGraph>) -> Result<Job, String> {
    let expected = oracle(&graph)?;
    Ok(Job {
        graph,
        expected,
        fresh,
    })
}

/// Generates round `round`'s inputs from the seed and runs the oracle
/// over them.
fn make_inputs(cfg: &Config, sizes: &Sizes, cold: bool, round: usize) -> Result<Inputs, String> {
    let mut rng = SmallRng::seed_from_u64(round_seed(cfg.seed, round));
    let mut seen = HashSet::new();
    let bases = novel_shapes(sizes.bases, &mut rng, &mut seen, 3..=5, 7..=10);
    let pool: Vec<BipartiteGraph> = (0..sizes.pool)
        .map(|_| {
            let parts: Vec<BipartiteGraph> = (0..sizes.components)
                .map(|c| {
                    if c < sizes.recognized {
                        relabel(&recognized_family(&mut rng), &mut rng)
                    } else {
                        relabel(&bases[rng.random_range(0..bases.len())], &mut rng)
                    }
                })
                .collect();
            union(&parts)
        })
        .collect();
    let mut warm = bases
        .into_iter()
        .map(|g| job(g, None))
        .collect::<Result<Vec<_>, _>>()?;
    if cfg.corrupt_oracle {
        warm[0].expected += 1;
    }
    let mut jobs = pool
        .into_iter()
        .map(|g| job(g, None))
        .collect::<Result<Vec<_>, _>>()?;
    let pool_len = jobs.len();
    let requests = if cold {
        sizes.misses * sizes.miss_every
    } else {
        sizes.hits
    };
    let mut fresh = if cold {
        novel_shapes(sizes.misses, &mut rng, &mut seen, 4..=7, 11..=14)
    } else {
        Vec::new()
    }
    .into_iter();
    let mut schedule = Vec::with_capacity(requests);
    for i in 0..requests {
        let carrier = rng.random_range(0..pool_len);
        if cold && i % sizes.miss_every == sizes.miss_every - 1 {
            let comp = fresh.next().ok_or("ran out of fresh components")?;
            let expected = jobs[carrier].expected + oracle(&comp)?;
            schedule.push(jobs.len());
            jobs.push(Job {
                graph: jobs[carrier].graph.disjoint_union(&comp),
                expected,
                fresh: Some(comp),
            });
        } else {
            schedule.push(carrier);
        }
    }
    Ok(Inputs {
        warm,
        jobs,
        schedule,
    })
}

/// A bound server running on its own thread, with the client
/// connections the workload drives it through.
struct Live {
    clients: Vec<Client>,
    handle: JoinHandle<io::Result<ServeReport>>,
}

fn start(cfg: ServeConfig) -> io::Result<Live> {
    let server = Server::bind(cfg)?;
    let addr = server.local_addr()?;
    // Connect before `run`: the connections wait in the listen backlog,
    // so the acceptor's first `accept` takes them at once and set-up
    // never sleeps through the acceptor's 5 ms accept poll.
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let handle = std::thread::spawn(move || server.run());
    Ok(Live { clients, handle })
}

/// Asks the server to shut down, closes the connections and joins it.
fn stop(mut live: Live) -> Result<ServeReport, String> {
    let ack = live.clients[0].request(RequestBody::Shutdown);
    drop(live.clients);
    let report = live
        .handle
        .join()
        .map_err(|_| "the server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    ack.map_err(|e| format!("shutdown request: {e}"))?;
    Ok(report)
}

/// Sends one request and checks its answer against the oracle.
fn send(client: &mut Client, jobs: &[Job], ji: usize, miss: bool, seq: &AtomicUsize) -> Sample {
    let j = &jobs[ji];
    let body = RequestBody::Pebble {
        graph: j.graph.clone(),
        algo: PebbleAlgo::Auto,
    };
    let t0 = Instant::now();
    let resp = client.request(body);
    let latency_us = micros_since(t0);
    // race:order(completion numbering only)
    let seq = seq.fetch_add(1, Ordering::Relaxed);
    let answer = match resp.map(|r| r.body) {
        Ok(ResponseBody::Cost {
            cost,
            components,
            served,
            fresh,
            micros,
        }) => Some(Answer {
            cost,
            components,
            served,
            fresh,
            micros,
        }),
        _ => None,
    };
    Sample {
        job: ji,
        miss,
        latency_us,
        seq,
        done: Instant::now(),
        verified: answer.is_some_and(|a| a.cost == j.expected),
        answer,
    }
}

fn serve_config(cfg: &Config, cold: bool) -> ServeConfig {
    let mut sc = ServeConfig::default();
    if cold {
        sc.slow_us = XRAY_SLOW_US;
        sc.xray_file = Some(xray_path(cfg));
    }
    sc
}

fn xray_path(cfg: &Config) -> PathBuf {
    cfg.scratch
        .join(format!("xray-{}.jsonl", std::process::id()))
}

/// What one round measured: its set-up, warm-up and share of the window.
struct Round {
    setup_s: f64,
    warm: Vec<Sample>,
    samples: Vec<Sample>,
    /// When the clients were released.
    start: Instant,
    window_s: f64,
    report: ServeReport,
}

/// One round: set-up (inputs, server bind, warm-up), timed from `t0`;
/// then the round's requests from the closed-loop clients; shutdown.
fn round(cfg: &Config, sizes: &Sizes, cold: bool, r: usize) -> Result<(Inputs, Round), String> {
    let t0 = if r == 0 { cfg.started } else { Instant::now() };
    let inputs = make_inputs(cfg, sizes, cold, r)?;
    let mut live = start(serve_config(cfg, cold)).map_err(|e| format!("bind: {e}"))?;
    let seq = AtomicUsize::new(0);
    let warm: Vec<Sample> = (0..inputs.warm.len())
        .map(|ji| send(&mut live.clients[0], &inputs.warm, ji, true, &seq))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let seq = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS + 1);
    let samples = Mutex::new(Vec::new());
    let (jobs, schedule) = (&inputs.jobs, &inputs.schedule);
    let t0 = std::thread::scope(|s| {
        for client in live.clients.iter_mut() {
            let (seq, next, barrier, samples) = (&seq, &next, &barrier, &samples);
            s.spawn(move || {
                let mut mine = Vec::new();
                barrier.wait();
                // race:order(work sharing over a fixed schedule; the index is the only datum)
                while let Some(&ji) = schedule.get(next.fetch_add(1, Ordering::Relaxed)) {
                    mine.push(send(client, jobs, ji, jobs[ji].fresh.is_some(), seq));
                }
                samples
                    .lock()
                    .expect("no client thread panics holding the samples")
                    .extend(mine);
            });
        }
        barrier.wait();
        Instant::now()
    });
    // the scope has joined every client
    let (start, window_s) = (t0, t0.elapsed().as_secs_f64());
    let mut samples = samples.into_inner().expect("client threads have joined");
    samples.sort_by_key(|s| s.seq);
    let report = stop(live)?;
    if cold {
        let _ = std::fs::remove_file(xray_path(cfg));
    }
    Ok((
        inputs,
        Round {
            setup_s,
            warm,
            samples,
            start,
            window_s,
            report,
        },
    ))
}

fn latencies<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<f64> {
    samples.into_iter().map(|s| s.latency_us).collect()
}

/// Runs `serve_hit` (`cold == false`) or `serve_cold`: `sizes.rounds`
/// rounds one after another, one server at a time (they would share the
/// xray sidecar path).
pub fn workload(cfg: &Config, cold: bool, report: &mut Report) -> Result<(), String> {
    let sizes = Sizes::new(cfg.seconds, cfg.tiny);
    if cold {
        std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    }
    let mut rounds = Vec::with_capacity(sizes.rounds);
    let mut layers = Layers::default();
    for r in 0..sizes.rounds {
        let (inputs, round) = round(cfg, &sizes, cold, r)?;
        if cfg.trace {
            layers.replay(&inputs, &round, (REPLAY_CAP / sizes.rounds).max(1))?;
        }
        rounds.push(round);
    }
    if cold {
        let _ = std::fs::remove_dir(&cfg.scratch);
    }
    let samples: Vec<&Sample> = rounds.iter().flat_map(|r| &r.samples).collect();
    let warm: Vec<&Sample> = rounds.iter().flat_map(|r| &r.warm).collect();
    let attempted = (warm.len() + samples.len()) as u64;
    let verified = warm.iter().chain(&samples).filter(|s| s.verified).count() as u64;
    report.attempted = attempted;
    report.failed = attempted - verified;
    let hits: Vec<&Sample> = samples.iter().copied().filter(|s| !s.miss).collect();
    let misses: Vec<&Sample> = samples.iter().copied().filter(|s| s.miss).collect();
    let lat = latencies(samples.iter().copied());
    let hit_lat = latencies(hits.iter().copied());
    // serve_hit's only misses are its warm-ups: each base shape's first
    // solve, through the same server.
    let miss_lat = if cold {
        latencies(misses.iter().copied())
    } else {
        latencies(warm.iter().copied())
    };
    let completions: Vec<(Instant, Vec<Instant>)> = rounds
        .iter()
        .map(|r| {
            let done = r.samples.iter().filter(|s| s.answer.is_some());
            (r.start, done.map(|s| s.done).collect())
        })
        .collect();
    let tail = stats::block_tail(&lat);
    let hit_tail = stats::block_tail(&hit_lat);
    let answers = || samples.iter().filter_map(|s| s.answer);
    let fresh_in_hits: u64 = hits.iter().filter_map(|s| s.answer).map(|a| a.fresh).sum();
    let comps: u64 = answers().map(|a| a.components).sum();
    let served: u64 = answers().map(|a| a.served).sum();
    let setup_s: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let window_s: f64 = rounds.iter().map(|r| r.window_s).sum();
    report.note(format!(
        "window {window_s:.3} s over {} rounds: {} requests ({} hits, {} misses) from {CLIENTS} closed-loop clients; {} warm-up requests",
        rounds.len(),
        samples.len(),
        hits.len(),
        misses.len(),
        warm.len(),
    ));
    report.note(format!(
        "set-up per round (s): {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "latency_tail_us is {} in {} block(s) of at least {TAIL_BLOCK}, over {} samples ({} beyond); hit_latency_tail_us {} in {} block(s), over {} ({} beyond); miss_latency_p50_us over {} {}",
        tail.label,
        tail.blocks,
        tail.samples,
        tail.beyond,
        hit_tail.label,
        hit_tail.blocks,
        hit_tail.samples,
        hit_tail.beyond,
        miss_lat.len(),
        if cold { "fresh-component requests" } else { "warm-up requests" }
    ));
    report.note(format!(
        "components served by recognizer or cache: {served} of {comps}; fresh solves inside hit requests: {fresh_in_hits}"
    ));
    let total =
        |f: &dyn Fn(&ServeReport) -> u64| -> u64 { rounds.iter().map(|r| f(&r.report)).sum() };
    report.note(format!(
        "servers, summed over rounds: {} completed, {} rejected, {} errors, all drained {}; memo {} entries, {} hits, {} misses, {} recognized, {} rejects; xray {} exemplars, {} downsampled, {} dropped",
        total(&|r| r.completed),
        total(&|r| r.rejected),
        total(&|r| r.errors),
        rounds.iter().all(|r| r.report.drained),
        total(&|r| r.memo_entries as u64),
        total(&|r| r.memo.hits),
        total(&|r| r.memo.misses),
        total(&|r| r.memo.recognized),
        total(&|r| r.memo.rejects),
        total(&|r| r.exemplars),
        total(&|r| r.downsampled),
        total(&|r| r.xray_dropped)
    ));
    report.set("throughput_ops_s", stats::block_rate(&completions));
    report.set("latency_p50_us", stats::block_p50(&lat));
    report.set("latency_tail_us", tail.value);
    report.set("hit_latency_tail_us", hit_tail.value);
    // Warm-ups come in bursts of `sizes.bases` per round: blocks of
    // them would each be one burst, so serve_hit takes their plain median.
    let miss_p50 = if cold {
        stats::block_p50(&miss_lat)
    } else {
        stats::median(&miss_lat)
    };
    report.set("miss_latency_p50_us", miss_p50);
    // every serve request prices a join graph
    report.set("price_latency_p50_us", stats::block_p50(&lat));
    report.set("verified_frac", verified as f64 / attempted as f64);
    report.set("setup_s", stats::fast_end(&setup_s, false));
    report.set("peak_rss_mib", stats::peak_rss_mib());
    if cfg.trace {
        // the server's own split of each request: client latency vs.
        // the `micros` it reports
        let answered: Vec<(&Sample, Answer)> = samples
            .iter()
            .filter_map(|s| s.answer.map(|a| (*s, a)))
            .collect();
        let outside = |pick: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
            answered
                .iter()
                .filter(|(s, _)| pick(s))
                .map(|(s, a)| s.latency_us - a.micros as f64)
                .collect()
        };
        let service: Vec<f64> = answered.iter().map(|(_, a)| a.micros as f64).collect();
        report.set(
            "serve.outside_service_us",
            stats::median(&outside(&|_| true)),
        );
        report.set(
            "serve.hit_outside_service_tail_us",
            stats::block_tail(&outside(&|s| !s.miss)).value,
        );
        report.set("serve.service_us", stats::median(&service));
        report.set("memo.entries", total(&|r| r.memo_entries as u64) as f64);
        report.set("xray.exemplars", total(&|r| r.exemplars) as f64);
        report.set("xray.downsampled", total(&|r| r.downsampled) as f64);
        report.set("xray.dropped", total(&|r| r.xray_dropped) as f64);
        layers.finish(report);
    }
    Ok(())
}

/// Per-layer samples from the traced run's replays of each round's
/// requests through each layer's public functions.
#[derive(Default)]
struct Layers {
    replayed: usize,
    codec: Vec<f64>,
    par_run: Vec<f64>,
    solve: Vec<f64>,
    split: Vec<f64>,
    recog: Vec<f64>,
    canon: Vec<f64>,
    portfolio: Vec<f64>,
    bb: Vec<f64>,
    record: Vec<f64>,
    /// Server-reported `micros` of the replayed requests.
    service: Vec<f64>,
    memo: MemoSolveReport,
    sum_latency: f64,
    sum_attributed: f64,
}

impl Layers {
    /// Replays the first `cap` answered requests of each class of a round,
    /// in completion order.
    fn replay(&mut self, inputs: &Inputs, round: &Round, cap: usize) -> Result<(), String> {
        let jobs = &inputs.jobs;
        let (mut nh, mut nm) = (0, 0);
        let replay: Vec<(&Sample, Answer)> = round
            .samples
            .iter()
            .filter_map(|s| s.answer.map(|a| (s, a)))
            .filter(|(s, _)| {
                let n = if s.miss { &mut nm } else { &mut nh };
                *n += 1;
                *n <= cap
            })
            .collect();

        // A memo warmed like the server's: every base shape solved once.
        let warm_memo = || -> Result<Memo, String> {
            let memo = Memo::new();
            for j in &inputs.warm {
                solve_with_memo_report(&j.graph, &memo, 1).map_err(|e| format!("warming: {e}"))?;
            }
            Ok(memo)
        };
        let memo = warm_memo()?;
        let miss_memo = warm_memo()?;
        // the dispatcher's jp-par thread count under default flags
        let threads = ServeConfig::default().threads;
        for (i, (s, a)) in replay.iter().enumerate() {
            let j = &jobs[s.job];
            let req = Request {
                v: WIRE_VERSION,
                id: i as u64 + 1,
                request: Some(i as u64 + 1),
                body: RequestBody::Pebble {
                    graph: j.graph.clone(),
                    algo: PebbleAlgo::Auto,
                },
            };
            let resp = Response {
                v: WIRE_VERSION,
                id: i as u64 + 1,
                body: ResponseBody::Cost {
                    cost: a.cost,
                    components: a.components,
                    served: a.served,
                    fresh: a.fresh,
                    micros: a.micros,
                },
            };
            let (ok, us) = timed(|| -> io::Result<()> {
                let mut frame = Vec::new();
                proto::write_message(&mut frame, &req)?;
                proto::parse_request(&frame[4..]).map_err(io::Error::other)?;
                let mut frame = Vec::new();
                proto::write_message(&mut frame, &resp)?;
                proto::parse_response(&frame[4..]).map_err(io::Error::other)?;
                Ok(())
            });
            ok.map_err(|e| format!("codec replay: {e}"))?;
            self.codec.push(us);

            let (_, par_us) = timed(|| jp_par::run_tasks(threads, vec![i], |_, x| x));
            self.par_run.push(par_us);

            let (res, solve_us) = timed(|| solve_with_memo_report(&j.graph, &memo, 1));
            let (_, rep) = res.map_err(|e| format!("memo replay: {e}"))?;
            self.memo.components += rep.components;
            self.memo.recognized += rep.recognized;
            self.memo.hits += rep.hits;
            self.memo.fresh += rep.fresh;
            self.solve.push(solve_us);
            self.service.push(a.micros as f64);
            self.sum_latency += s.latency_us;
            self.sum_attributed += (s.latency_us - a.micros as f64) + solve_us + par_us;

            let (parts, split_us) = timed(|| {
                let cm = ComponentMap::new(&j.graph);
                cm.edges_by_component()
                    .iter()
                    .map(|e| j.graph.edge_subgraph(e))
                    .collect::<Vec<_>>()
            });
            self.split.push(split_us);
            for p in &parts {
                let (r, us) = timed(|| recognize_component(p));
                self.recog.push(us);
                if r.is_none() {
                    self.canon.push(timed(|| canonical_form(p)).1);
                }
            }

            if let Some(comp) = &j.fresh {
                let (scheme, us) = timed(|| portfolio_scheme_memo(comp, 1, Some(&miss_memo)));
                let scheme = scheme.map_err(|e| format!("portfolio replay: {e}"))?;
                self.portfolio.push(us);
                let order: Vec<usize> = scheme.deletion_order(comp).into_iter().flatten().collect();
                let exact =
                    scheme.effective_cost(comp) == jp_pebble::bounds::best_lower_bound(comp);
                self.record
                    .push(timed(|| miss_memo.record_component(comp, &order, exact)).1);
                self.bb
                    .push(timed(|| optimal_effective_cost_bb(comp, BB_BUDGET)).1);
            }
        }
        self.replayed += replay.len();
        Ok(())
    }

    fn finish(self, report: &mut Report) {
        let m = &self.memo;
        let frac = |n: u64| n as f64 / m.components.max(1) as f64;
        report.note(format!(
            "replayed {} requests (at most {REPLAY_CAP} of each class over the rounds); memo replay: {} components, {} recognized, {} cache hits, {} fresh; {} canonicalized, {} fresh components through portfolio and B&B",
            self.replayed,
            m.components,
            m.recognized,
            m.hits,
            m.fresh,
            self.canon.len(),
            self.portfolio.len()
        ));
        let service_total = stats::sum(&self.service);
        report.note(format!(
            "over the replayed requests: portfolio {:.1}% of server service time, outside-service {:.1}% of client latency",
            100.0 * stats::sum(&self.portfolio) / service_total.max(f64::MIN_POSITIVE),
            100.0 * (self.sum_latency - service_total) / self.sum_latency.max(f64::MIN_POSITIVE)
        ));
        report.set("serve.proto.codec_us", stats::median(&self.codec));
        report.set("par.run_us", stats::median(&self.par_run));
        report.set("memo.solve_us", stats::median(&self.solve));
        report.set("graph.canon_us", stats::median(&self.canon));
        report.set("graph.components.split_us", stats::median(&self.split));
        report.set("memo.recognize_us", stats::median(&self.recog));
        report.set("memo.components", m.components as f64);
        report.set("memo.served_frac", frac(m.recognized + m.hits));
        report.set("memo.recognized_frac", frac(m.recognized));
        report.set("serve.service_total_ms", service_total / 1e3);
        report.set("portfolio.solve_us", stats::median(&self.portfolio));
        report.set(
            "portfolio.solve_total_ms",
            stats::sum(&self.portfolio) / 1e3,
        );
        report.set("exact_bb.solve_us", stats::median(&self.bb));
        report.set("memo.record_us", stats::median(&self.record));
        report.set(
            "unattributed_frac",
            1.0 - self.sum_attributed / self.sum_latency.max(f64::MIN_POSITIVE),
        );
    }
}
