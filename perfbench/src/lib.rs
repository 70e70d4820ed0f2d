//! The workloads, metric tables and result line of the benchmark; the
//! entry point and the rationale live in `main.rs`.

mod pebble;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
/// `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("hit_latency_tail_us", "us"),
    ("miss_latency_p50_us", "us"),
    ("price_latency_p50_us", "us"),
    ("verified_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not load reads 0 there.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("serve.outside_service_us", "us"),
    ("serve.hit_outside_service_tail_us", "us"),
    ("serve.service_us", "us"),
    ("serve.service_total_ms", "ms"),
    ("serve.proto.codec_us", "us"),
    ("par.run_us", "us"),
    ("memo.solve_us", "us"),
    ("graph.canon_us", "us"),
    ("memo.served_frac", "frac"),
    ("memo.recognized_frac", "frac"),
    ("portfolio.solve_us", "us"),
    ("portfolio.solve_total_ms", "ms"),
    ("exact_bb.solve_us", "us"),
    ("memo.record_us", "us"),
    ("memo.entries", "count"),
    ("xray.exemplars", "count"),
    ("xray.downsampled", "count"),
    ("xray.dropped", "count"),
    ("relalg.trie.build_us", "us"),
    ("relalg.multiway.lftj_us", "us"),
    ("relalg.multiway.generic_us", "us"),
    ("relalg.multiway.seeks", "count"),
    ("relalg.multiway.intermediate", "count"),
    ("relalg.equi.hash_us", "us"),
    ("relalg.equi.sort_merge_us", "us"),
    ("relalg.equi.index_nl_us", "us"),
    ("relalg.join_graph.build_us", "us"),
    ("graph.components.split_us", "us"),
    ("memo.recognize_us", "us"),
    ("memo.components", "count"),
    ("unattributed_frac", "frac"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHit,
    ServeCold,
    JoinPebble,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeHit,
        Workload::ServeCold,
        Workload::JoinPebble,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHit => "serve_hit",
            Workload::ServeCold => "serve_cold",
            Workload::JoinPebble => "join_pebble",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Rounds per full-size run. Each round sets up from scratch (inputs
/// drawn from the seed and the round number, the oracle pre-pass, and
/// on the serve workloads its own bound and warmed server), then runs
/// its share of the timed window. The host is shared and its speed
/// moves within seconds, so set-ups spread over the whole run, like the
/// window's samples, let `setup_s` and serve_hit's warm-up misses
/// sample the whole run rather than its first second;
/// and a run pools several draws of inputs, which steadies it across
/// seeds.
pub const ROUNDS: usize = 10;

/// The seed of round `round`'s inputs; round 0 uses the run's seed.
pub(crate) fn round_seed(seed: u64, round: usize) -> u64 {
    seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test sizes instead of the benchmark's.
    pub tiny: bool,
    /// Adds one to one oracle answer, so a correct program must fail
    /// verification (the smoke test's check of the checker).
    pub corrupt_oracle: bool,
    /// Where the run may write scratch files (the xray sidecar).
    pub scratch: PathBuf,
    /// Process start, where the first set-up's clock starts.
    pub started: Instant,
}

/// What a run measured, and what it tells about itself.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Context lines printed ahead of the result line.
    pub context: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.context.push(line);
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the mode's table.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for &(name, unit) in table {
            let value = match self.values.get(name).copied() {
                Some(v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} seconds {} trace {}; nproc {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    match cfg.workload {
        Workload::ServeHit => serve::workload(cfg, false, &mut report)?,
        Workload::ServeCold => serve::workload(cfg, true, &mut report)?,
        Workload::JoinPebble => pebble::workload(cfg, &mut report)?,
    }
    Ok(report)
}
