//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hit|serve_cold|join_pebble --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. The lines before it give the run's context: seed,
//! `nproc`, sample count of each class, the percentile behind each
//! `*_tail_us`, the window length, and the memo and xray counters.
//!
//! # Workloads, and why each exists
//!
//! The paper splits join graphs in two. Equijoin-class graphs pebble
//! perfectly in linear time (π = m, Theorems 3.2 and 4.1); for general
//! graphs π is NP-hard (Theorem 4.2). The planner serves the first kind
//! through recognizers and the memo, and the second through the
//! portfolio, which runs Held–Karp first.
//!
//! * `serve_hit` — two closed-loop clients replay a warm pool through
//!   `jp serve` with default flags. Each request has eight components:
//!   three recognizer answers and five validated cache hits (relabeled
//!   copies of warmed base shapes, so canonicalization carries real
//!   weight). It loads the socket, the handler → dispatcher → handler
//!   handoff, proto and the memo read path, and bypasses the solver.
//!   Its only misses are the warm-up's first solve of each base shape,
//!   which `miss_latency_p50_us` reports.
//! * `serve_cold` — the same server and clients, with the xray tail
//!   sampler on (`--slow-us 500`, a sidecar file) as CI's serve check
//!   runs it. One request in four carries a never-seen connected
//!   component of 11–14 edges; the rest are warm hits. It loads the
//!   Held–Karp-first portfolio and memo writes; hits wait behind misses
//!   on the one dispatcher, and telemetry keeps slow requests as
//!   exemplars. The number of misses is fixed per run (150 per
//!   `--seconds`), not the duration: the memo is unbounded, so a fixed
//!   duration would make `peak_rss_mib` grow with speed, and the count
//!   keeps the run steady after the miss path gets ten times cheaper.
//!   Closed loop, because planner callers wait for their answer.
//! * `join_pebble` — offline and single-threaded, the other half of the
//!   paper: join predicates to join graphs to π. Eval ops (most ops) run
//!   one engine on one query: triangle (random and skewed), 4-clique and
//!   bowtie through LFTJ and generic join; a Zipf equijoin through hash,
//!   sort-merge and index nested loops. Price ops build the join graph
//!   (`query_join_graph` of a triangle, or `equijoin_graph` of a Zipf
//!   equijoin) and solve it with `solve_with_memo_report` on a fresh
//!   memo. It bypasses the server and the solver. The binary cascade
//!   is left out: it takes tens of seconds on a skewed triangle of a
//!   few thousand tuples.
//!
//! Which change should show where:
//!
//! | change                                   | shows on                                   | not on                  |
//! |------------------------------------------|--------------------------------------------|-------------------------|
//! | portfolio order (B&B before Held–Karp)   | serve_cold `miss_latency_p50_us`           | serve_hit, join_pebble  |
//! | inline solving or a persistent pool      | serve_hit `latency_p50_us`, serve_cold `hit_latency_tail_us` | join_pebble |
//! | cheaper telemetry                        | serve_cold `latency_p50_us`                | serve_hit (xray off)    |
//! | reusable tries                           | join_pebble `latency_p50_us`               | serve_hit, serve_cold   |
//! | linear `edge_subgraph`                   | join_pebble `price_latency_p50_us`         | serve_hit, serve_cold   |
//!
//! # The two measured targets
//!
//! * The Held–Karp-first miss path: at `threads = 1` the portfolio runs
//!   Held–Karp to completion before any heuristic sets an incumbent, so
//!   a 12–14 edge miss costs milliseconds where exact branch-and-bound
//!   needs tens of microseconds. The traced run of `serve_cold` reports
//!   both (`portfolio.solve_us`, `exact_bb.solve_us`).
//! * Quadratic join-graph pricing: `edge_subgraph` is O(|V|) per
//!   component, so pricing a join graph with many components grows
//!   quadratically. The traced run of `join_pebble` reports it as
//!   `graph.components.split_us`.
//!
//! # Metrics
//!
//! Every run is ten rounds. A round sets up from scratch (its inputs,
//! drawn from the seed and the round number; the oracle pre-pass; on
//! the serve workloads its own bound and warmed server) and then runs a
//! tenth of the timed window. So set-ups and warm-ups are spread over
//! the whole run, like the window's samples, and each run pools ten
//! draws of inputs.
//!
//! Latencies are per request (serve) or per op (join_pebble), in µs.
//! The host is shared, and other tenants slow whole stretches of a run
//! by up to a third while a change to the program moves every stretch.
//! So each statistic is taken per block of consecutive samples and
//! reported from the block a tenth of the way in from the fast end:
//! `throughput_ops_s` and the `*_p50_us` over up to twenty blocks of at
//! least 100 samples (a throughput block never spans two rounds), a
//! `*_tail_us` over blocks of 1000 samples, each block's tail being the
//! higher of p99 and p90 that has at least ten samples beyond it. With
//! fewer than eleven such blocks (join_pebble), the tenth in from the
//! fast end would be the fastest block, whose ten slowest ops say more
//! about which ops the shuffle put there than about the host; a tail
//! is then taken over the whole run.
//!
//! Class-restricted metrics fall back to the workload's nearest class:
//! `hit_latency_tail_us` is the tail of the light class (warm hits; eval
//! ops on join_pebble); `miss_latency_p50_us` the median of the cold
//! class (fresh-component requests; serve_hit's warm-up; price ops);
//! `price_latency_p50_us` the median of ops that compute π (every serve
//! request; price ops).
//!
//! `miss_latency_p50_us` on serve_hit is the plain median of the
//! warm-ups: they come in one burst per round, so a block of them would
//! sample one moment of the host rather than the whole run.
//!
//! `setup_s` is likewise the set-up a tenth in from the fast end of the
//! ten rounds' set-ups (input generation, the oracle pre-pass, server
//! bind, memo warm-up), the first timed from process start. A set-up
//! burst on this host takes either its own time or about 1.7 times it,
//! and the median of set-ups moved with that mix by a third between
//! two sets of runs of the same code.
//!
//! The traced run repeats the workload, and after each round times the
//! benchmark's own calls into each layer's public functions on the
//! round's inputs.
//! `unattributed_frac` is the share of summed end-to-end time no layer
//! figure accounts for.
//!
//! # Oracles, computed outside the timed window
//!
//! Serve answers are checked against exact branch-and-bound
//! (`optimal_effective_cost_bb`), with every component at or below
//! `MAX_EXACT_EDGES`. On join_pebble, LFTJ must equal generic join row
//! for row within the AGM bound; hash, sort-merge and index-NL must
//! return the pair count Σ_k |R_k|·|S_k| counted apart from relalg; and
//! every priced graph must have π = m with its scheme validated.

use perfbench::{Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload serve_hit|serve_cold|join_pebble --seed N --seconds S --trace 0|1";

const MAX_SECONDS: u64 = 3600;

fn parse(args: &[String], started: Instant) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => match number()? {
                // input sizes scale with it
                s @ 1..=MAX_SECONDS => seconds = Some(s),
                s => return Err(format!("--seconds {s} is outside 1..={MAX_SECONDS}")),
            },
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny: false,
        corrupt_oracle: false,
        scratch: PathBuf::from(".perfbench_tmp"),
        started,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args, started) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = perfbench::run(&cfg).and_then(|report| {
        for c in &report.context {
            println!("# {c}");
        }
        report.result_line(cfg.trace)
    });
    match line {
        Ok(l) => {
            println!("{l}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
