//! Order statistics over latency samples, and the process's peak memory.

use std::time::Instant;

/// Microseconds since `t0`, with the clock's full resolution.
pub fn micros_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Times one call, returning its result and its duration in microseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (r, micros_since(t0))
}

/// Nearest-rank percentile `q` (in `0..=1`) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// A tail statistic together with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// `"p99"` or `"p90"`.
    pub label: &'static str,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Blocks the samples were cut into (1: the plain tail).
    pub blocks: usize,
}

/// The higher of p99 and p90 that has at least ten samples beyond it
/// (p90 when neither has). Further out, on a shared 2-core host, a
/// percentile measures host stalls rather than the program.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let beyond = |q: f64| n - ((q * n as f64).ceil() as usize).min(n);
    let (q, label) = if beyond(0.99) >= 10 {
        (0.99, "p99")
    } else {
        (0.90, "p90")
    };
    Tail {
        value: percentile(samples, q),
        label,
        samples: n,
        beyond: beyond(q),
        blocks: 1,
    }
}

/// Share of a run's blocks that may be faster than the block a
/// statistic is reported from. The host is shared: other tenants slow
/// whole stretches of a run by up to a third, while a change to the
/// program moves every block.
pub const FAST_SHARE: f64 = 0.1;

/// The value `FAST_SHARE` of the way in from the fast end of `values`.
pub fn fast_end(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let i = (v.len().saturating_sub(1) as f64 * FAST_SHARE) as usize;
    v.get(i).copied().unwrap_or(0.0)
}

/// Samples per block in [`block_tail`]: the fewest that leave ten
/// samples beyond p99.
pub const TAIL_BLOCK: usize = 1000;

/// Fewest blocks [`block_tail`] reports from: with fewer, the block
/// `FAST_SHARE` in from the fast end is the fastest one. A block's tail
/// rests on its ten slowest samples, so which ops fell into a block
/// moves it far more than it moves a block's median, and the fastest
/// of a few blocks reads that draw rather than the host.
pub const TAIL_BLOCKS_MIN: usize = 11;

/// [`tail`] per block of `TAIL_BLOCK` consecutive samples of `in_order`
/// (the samples in the order they were taken), reported from the block
/// `FAST_SHARE` in from the fast end; with fewer than `TAIL_BLOCKS_MIN`
/// blocks' worth of samples, the plain [`tail`]. `samples` and `beyond`
/// add up over the blocks.
pub fn block_tail(in_order: &[f64]) -> Tail {
    let blocks = in_order.len() / TAIL_BLOCK;
    if blocks < TAIL_BLOCKS_MIN {
        return tail(in_order);
    }
    let n = in_order.len();
    let tails: Vec<Tail> = (0..blocks)
        .map(|b| tail(&in_order[b * n / blocks..(b + 1) * n / blocks]))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Tail {
        value: fast_end(&values, false),
        label: tails[0].label,
        samples: n,
        beyond: tails.iter().map(|t| t.beyond).sum(),
        blocks,
    }
}

/// Blocks [`block_rate`] and [`block_p50`] cut a run into, at most.
pub const BLOCKS: usize = 20;

/// Samples per block in [`block_rate`] and [`block_p50`], at least.
pub const BLOCK_MIN: usize = 100;

fn block_count(n: usize) -> usize {
    (n / BLOCK_MIN).clamp(1, BLOCKS)
}

/// The median of each of up to `BLOCKS` consecutive blocks of at least
/// `BLOCK_MIN` samples of `in_order`, reported from the block
/// `FAST_SHARE` in from the fast end.
pub fn block_p50(in_order: &[f64]) -> f64 {
    let n = in_order.len();
    let blocks = block_count(n);
    let medians: Vec<f64> = (0..blocks)
        .map(|b| median(&in_order[b * n / blocks..(b + 1) * n / blocks]))
        .collect();
    fast_end(&medians, false)
}

/// Completions per second over consecutive blocks of the completions
/// of each round (`(start, completion instants in order)`), up to
/// `BLOCKS` blocks of at least `BLOCK_MIN` completions in all, reported
/// from the block `FAST_SHARE` in from the fast end. A block never
/// spans two rounds, so the set-up between rounds is not counted.
pub fn block_rate(rounds: &[(Instant, Vec<Instant>)]) -> f64 {
    let total: usize = rounds.iter().map(|(_, done)| done.len()).sum();
    let per_round = (block_count(total) / rounds.len().max(1)).max(1);
    let mut rates = Vec::new();
    for (start, done) in rounds {
        let n = done.len();
        let blocks = per_round.min(n);
        let mut from = *start;
        for b in 0..blocks {
            let (lo, hi) = (b * n / blocks, (b + 1) * n / blocks);
            let to = done[hi - 1];
            rates.push((hi - lo) as f64 / to.duration_since(from).as_secs_f64().max(1e-9));
            from = to;
        }
    }
    fast_end(&rates, true)
}

/// Plain sum (0 when empty, where `Iterator::sum` gives -0).
pub fn sum(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0, |a, b| a + b)
}

/// The process's peak resident set (`VmHWM`) in MiB, from procfs.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_p99_only_with_ten_samples_beyond_it() {
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&small);
        assert_eq!((t.label, t.value, t.beyond), ("p90", 180.0, 20));
        let large: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&large);
        assert_eq!((t.label, t.value, t.beyond), ("p99", 990.0, 10));
    }

    #[test]
    fn block_tail_ignores_a_stall_in_one_block() {
        let mut v: Vec<f64> = (0..11_000).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[..500] {
            *x = 1e6;
        }
        let t = block_tail(&v);
        assert_eq!(
            (t.label, t.value, t.samples, t.beyond),
            ("p99", 98.0, 11_000, 110)
        );
        // too few blocks: the plain tail, stall and all
        let t = block_tail(&v[..5000]);
        assert_eq!(
            (t.label, t.value, t.samples, t.beyond),
            ("p99", 1e6, 5000, 50)
        );
    }

    #[test]
    fn block_rate_skips_a_stalled_block() {
        let t0 = Instant::now();
        let ms = |k: u64| t0 + std::time::Duration::from_millis(k);
        // ten blocks of 100 completions: nine at 100/s, one at 1/s
        let (mut t, mut done) = (0, Vec::new());
        for b in 0..10 {
            for _ in 0..100 {
                t += if b == 4 { 1000 } else { 10 };
                done.push(ms(t));
            }
        }
        assert!((block_rate(&[(t0, done.clone())]) - 100.0).abs() < 1e-6);
        assert_eq!(block_rate(&[(t0, Vec::new())]), 0.0);
        // a second round, after a 10 s pause for set-up, at the same rate
        let t1 = ms(t + 10_000);
        let later: Vec<Instant> = (1..=1000)
            .map(|k| t1 + std::time::Duration::from_millis(10 * k))
            .collect();
        assert!((block_rate(&[(t0, done), (t1, later)]) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn fast_end_counts_a_tenth_in_from_the_fast_end() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(fast_end(&v, false), 3.0);
        assert_eq!(fast_end(&v, true), 19.0);
        assert_eq!(fast_end(&[], true), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
