//! The offline `join_pebble` workload: join predicates evaluated by the
//! relalg engines (eval ops), and join predicates taken to join graphs
//! to π through the memoized solver, `solve_with_memo_report` (price
//! ops).

use crate::stats::{self, timed, TAIL_BLOCK};
use crate::{round_seed, Config, Report, ROUNDS};
use jp_graph::canon::canonical_form;
use jp_graph::{BipartiteGraph, ComponentMap};
use jp_pebble::memo::{recognize_component, solve_with_memo_report, Memo, MemoSolveReport};
use jp_relalg::algorithms::equi;
use jp_relalg::algorithms::multiway::{self, MultiwayAlgo, MultiwayStats};
use jp_relalg::{equijoin_graph, workload, ConjunctiveQuery, MultiRelation, Relation, TrieIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Eval ops whose trie builds the traced run replays, shared evenly
/// over the rounds.
const REPLAY_CAP: usize = 1000;

/// Input sizes of one run. Eval and price ops are sized separately:
/// a price op costs about twenty eval ops and grows quadratically with
/// the relation size.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Rounds per run; each draws and checks its own inputs, and
    /// `setup_s` is taken over their set-ups.
    rounds: usize,
    /// Tuples per relation of an eval instance (multiway and equijoin).
    eval_n: usize,
    /// Times each (eval instance, engine) pair runs in a round.
    passes: usize,
    /// Price instances per round, each priced once.
    price: usize,
    /// Tuples per relation of a price instance, lower end; the upper
    /// end is an eighth more.
    price_n: usize,
}

impl Sizes {
    fn new(seconds: u64, tiny: bool) -> Sizes {
        if tiny {
            return Sizes {
                rounds: 2,
                eval_n: 200,
                passes: 1,
                price: 4,
                price_n: 40,
            };
        }
        let seconds = seconds as usize;
        Sizes {
            rounds: ROUNDS,
            eval_n: 3000,
            // On the 2-core host this was sized on, a pass of eval ops
            // takes about 0.15 s and a price op about 8 ms, so the window
            // lasts about `seconds`.
            passes: (24 * seconds / (5 * ROUNDS)).max(1),
            price: (32 * seconds / ROUNDS).max(1),
            price_n: 500,
        }
    }
}

/// The eval catalog's multiway instance kinds, with instance counts.
const MULTI_KINDS: [(&str, usize); 4] = [
    ("triangle", 4),
    ("triangle_skewed", 2),
    ("clique4", 3),
    ("bowtie", 3),
];
/// Zipf equijoin instances in the eval catalog.
const EQUI_INSTANCES: usize = 4;

fn multi_instance(kind: &str, n: usize, seed: u64) -> (ConjunctiveQuery, Vec<MultiRelation>) {
    match kind {
        "triangle" => workload::triangle_random(n, 3, seed),
        "triangle_skewed" => workload::triangle_skewed(n, seed),
        "clique4" => workload::clique4_random(n, 4, seed),
        _ => workload::bowtie_random(n, 3, seed),
    }
}

fn zipf(n: usize, seed: u64) -> (Relation, Relation) {
    workload::zipf_equijoin(n, n, n / 3, 0.8, seed)
}

/// Row count plus a hash of the sorted rows.
type Digest = (usize, u64);

fn digest(rows: &[Vec<i64>]) -> Digest {
    let mut h = DefaultHasher::new();
    rows.hash(&mut h);
    (rows.len(), h.finish())
}

struct MultiInst {
    q: ConjunctiveQuery,
    rels: Vec<MultiRelation>,
    /// `None` when LFTJ and generic join disagreed in the pre-pass, or
    /// exceeded the AGM bound: every op on the instance then fails.
    expect: Option<Digest>,
}

struct EquiInst {
    r: Relation,
    s: Relation,
    /// Σ_k |R_k|·|S_k| over the join keys, counted independently of
    /// relalg; `None` when the engines disagreed in the pre-pass.
    expect: Option<usize>,
}

enum PriceInput {
    Multi(ConjunctiveQuery, Vec<MultiRelation>),
    Equi(Relation, Relation),
}

struct PriceInst {
    input: PriceInput,
    /// Edges of the join graph, counted independently of relalg. By
    /// Theorem 3.2 the graph pebbles perfectly, so π must equal it.
    expect_m: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EquiAlgo {
    Hash,
    SortMerge,
    IndexNl,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Multi(usize, MultiwayAlgo),
    Equi(usize, EquiAlgo),
    Price(usize),
}

struct Inputs {
    multi: Vec<MultiInst>,
    equi: Vec<EquiInst>,
    price: Vec<PriceInst>,
    ops: Vec<Op>,
}

/// Σ over keys of the product of the two sides' key frequencies.
fn key_products<K: Hash + Eq>(
    left: impl Iterator<Item = K>,
    right: impl Iterator<Item = K>,
) -> usize {
    let mut counts: HashMap<K, usize> = HashMap::new();
    for k in left {
        *counts.entry(k).or_default() += 1;
    }
    right.filter_map(|k| counts.get(&k)).sum()
}

/// Edges of `query_join_graph`: for every pair of atoms sharing a
/// variable, the tuple pairs agreeing on the shared variables.
fn multi_join_graph_edges(q: &ConjunctiveQuery, rels: &[MultiRelation]) -> usize {
    let atoms = q.atoms();
    let mut m = 0;
    for (i, a) in atoms.iter().enumerate() {
        for b in &atoms[i + 1..] {
            let shared: Vec<(usize, usize)> = a
                .vars
                .iter()
                .enumerate()
                .filter_map(|(ca, v)| b.vars.iter().position(|w| w == v).map(|cb| (ca, cb)))
                .collect();
            if shared.is_empty() {
                continue;
            }
            let key = |t: &[i64], pick: &dyn Fn(&(usize, usize)) -> usize| -> Vec<i64> {
                shared.iter().map(|p| t[pick(p)]).collect()
            };
            m += key_products(
                rels[a.relation].tuples().map(|t| key(t, &|p| p.0)),
                rels[b.relation].tuples().map(|t| key(t, &|p| p.1)),
            );
        }
    }
    m
}

fn equi_pairs(r: &Relation, s: &Relation) -> usize {
    key_products(r.values().iter(), s.values().iter())
}

fn run_equi(inst: &EquiInst, algo: EquiAlgo) -> Vec<(u32, u32)> {
    match algo {
        EquiAlgo::Hash => equi::hash_join(&inst.r, &inst.s),
        EquiAlgo::SortMerge => equi::sort_merge(&inst.r, &inst.s),
        EquiAlgo::IndexNl => equi::index_nested_loops(&inst.r, &inst.s),
    }
}

/// Generates round `round`'s inputs from the seed and runs the oracle
/// over them.
fn make_inputs(cfg: &Config, sizes: &Sizes, round: usize) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(round_seed(cfg.seed, round));
    let mut multi = Vec::new();
    for (kind, count) in MULTI_KINDS {
        for _ in 0..count {
            let (q, rels) = multi_instance(kind, sizes.eval_n, rng.random());
            // Oracle: the two worst-case-optimal engines agree row for
            // row, and neither exceeds the AGM bound.
            let lftj = multiway::solve(&q, &rels, MultiwayAlgo::Lftj, 1);
            let generic = multiway::solve(&q, &rels, MultiwayAlgo::Generic, 1);
            let expect = match (lftj, generic) {
                (Ok(a), Ok(b)) if a.rows == b.rows && a.rows.len() as f64 <= a.agm_bound + 1e-6 => {
                    Some(digest(&a.rows))
                }
                _ => None,
            };
            multi.push(MultiInst { q, rels, expect });
        }
    }
    let mut equi = Vec::new();
    for _ in 0..EQUI_INSTANCES {
        let (r, s) = zipf(sizes.eval_n, rng.random());
        let pairs = equi_pairs(&r, &s);
        let hash = equi::hash_join(&r, &s);
        let agree = hash == equi::sort_merge(&r, &s)
            && hash == equi::index_nested_loops(&r, &s)
            && hash.len() == pairs
            && equijoin_graph(&r, &s).is_ok_and(|g| g.edge_count() == pairs);
        equi.push(EquiInst {
            r,
            s,
            expect: agree.then_some(pairs),
        });
    }
    if cfg.corrupt_oracle {
        if let Some(e) = equi[0].expect.as_mut() {
            *e += 1;
        }
    }
    // Three price ops in four are triangles (`query_join_graph`), the
    // fourth a Zipf equijoin (`equijoin_graph`), all of about one size:
    // the median then sits inside the triangles' cost cluster instead of
    // between two kinds' clusters, where the draw would move it.
    let price = (0..sizes.price)
        .map(|i| {
            let n = rng.random_range(sizes.price_n..=sizes.price_n + sizes.price_n / 8);
            let seed = rng.random();
            let input = if i % 4 == 3 {
                let (r, s) = zipf(2 * n, seed);
                PriceInput::Equi(r, s)
            } else {
                let (q, rels) = workload::triangle_random(n, 3, seed);
                PriceInput::Multi(q, rels)
            };
            let expect_m = match &input {
                PriceInput::Multi(q, rels) => multi_join_graph_edges(q, rels),
                PriceInput::Equi(r, s) => equi_pairs(r, s),
            };
            PriceInst { input, expect_m }
        })
        .collect();
    let mut ops = Vec::new();
    for _ in 0..sizes.passes {
        for i in 0..multi.len() {
            ops.push(Op::Multi(i, MultiwayAlgo::Lftj));
            ops.push(Op::Multi(i, MultiwayAlgo::Generic));
        }
        for i in 0..equi.len() {
            for a in [EquiAlgo::Hash, EquiAlgo::SortMerge, EquiAlgo::IndexNl] {
                ops.push(Op::Equi(i, a));
            }
        }
    }
    ops.extend((0..sizes.price).map(Op::Price));
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.random_range(0..=i));
    }
    Inputs {
        multi,
        equi,
        price,
        ops,
    }
}

fn join_graph_of(inst: &PriceInst) -> Result<BipartiteGraph, String> {
    match &inst.input {
        PriceInput::Multi(q, rels) => multiway::query_join_graph(q, rels),
        PriceInput::Equi(r, s) => equijoin_graph(r, s),
    }
    .map_err(|e| e.to_string())
}

/// One timed op's outcome.
struct Done {
    op: Op,
    latency_us: f64,
    at: Instant,
    verified: bool,
    stats: MultiwayStats,
}

fn execute(inputs: &Inputs, op: Op) -> Done {
    let mut work = MultiwayStats::default();
    let t0 = Instant::now();
    let (latency_us, verified) = match op {
        Op::Multi(i, algo) => {
            let inst = &inputs.multi[i];
            let out = multiway::solve(&inst.q, &inst.rels, algo, 1);
            let us = stats::micros_since(t0);
            let ok = out.is_ok_and(|o| {
                work = o.stats;
                inst.expect == Some(digest(&o.rows))
            });
            (us, ok)
        }
        Op::Equi(i, algo) => {
            let inst = &inputs.equi[i];
            let out = run_equi(inst, algo);
            (stats::micros_since(t0), inst.expect == Some(out.len()))
        }
        Op::Price(i) => {
            let inst = &inputs.price[i];
            let priced = join_graph_of(inst).and_then(|g| {
                solve_with_memo_report(&g, &Memo::new(), 1)
                    .map(|(scheme, _)| (g, scheme))
                    .map_err(|e| e.to_string())
            });
            let us = stats::micros_since(t0);
            let ok = priced.is_ok_and(|(g, scheme)| {
                g.edge_count() == inst.expect_m
                    && scheme.validate(&g).is_ok()
                    && scheme.effective_cost(&g) == inst.expect_m
            });
            (us, ok)
        }
    };
    Done {
        op,
        latency_us,
        at: Instant::now(),
        verified,
        stats: work,
    }
}

pub fn workload(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let sizes = Sizes::new(cfg.seconds, cfg.tiny);
    let mut setup_s = Vec::with_capacity(sizes.rounds);
    let mut rounds = Vec::with_capacity(sizes.rounds);
    let mut done = Vec::new();
    let mut layers = Layers::default();
    let mut window_s = 0.0;
    let (mut multi, mut equi) = (0, 0);
    for r in 0..sizes.rounds {
        let t0 = if r == 0 { cfg.started } else { Instant::now() };
        let inputs = make_inputs(cfg, &sizes, r);
        setup_s.push(t0.elapsed().as_secs_f64());
        let start = Instant::now();
        let round: Vec<Done> = inputs.ops.iter().map(|&op| execute(&inputs, op)).collect();
        window_s += start.elapsed().as_secs_f64();
        rounds.push((start, round.iter().map(|d| d.at).collect::<Vec<_>>()));
        if cfg.trace {
            layers.replay(&inputs, &round, (REPLAY_CAP / sizes.rounds).max(1))?;
        }
        multi += inputs.multi.len();
        equi += inputs.equi.len();
        done.extend(round);
    }

    let attempted = done.len() as u64;
    let verified = done.iter().filter(|d| d.verified).count() as u64;
    report.attempted = attempted;
    report.failed = attempted - verified;
    let lat: Vec<f64> = done.iter().map(|d| d.latency_us).collect();
    let eval_lat: Vec<f64> = done
        .iter()
        .filter(|d| !matches!(d.op, Op::Price(_)))
        .map(|d| d.latency_us)
        .collect();
    let price_lat: Vec<f64> = done
        .iter()
        .filter(|d| matches!(d.op, Op::Price(_)))
        .map(|d| d.latency_us)
        .collect();
    let tail = stats::block_tail(&lat);
    let eval_tail = stats::block_tail(&eval_lat);
    report.note(format!(
        "window {window_s:.3} s over {} rounds: {} ops ({} eval over {multi} multiway + {equi} equijoin instances, {} price), single-threaded",
        sizes.rounds,
        done.len(),
        eval_lat.len(),
        price_lat.len()
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
        "latency_tail_us is {} in {} block(s) of at least {TAIL_BLOCK}, over {} ops ({} beyond); hit_latency_tail_us {} in {} block(s), over the {} eval ops ({} beyond); miss and price p50 over {} price ops",
        tail.label, tail.blocks, tail.samples, tail.beyond, eval_tail.label, eval_tail.blocks, eval_tail.samples, eval_tail.beyond, price_lat.len()
    ));
    report.set("throughput_ops_s", stats::block_rate(&rounds));
    report.set("latency_p50_us", stats::block_p50(&lat));
    report.set("latency_tail_us", tail.value);
    // the light class is the eval ops, the cold-memo class the price ops
    report.set("hit_latency_tail_us", eval_tail.value);
    report.set("miss_latency_p50_us", stats::block_p50(&price_lat));
    report.set("price_latency_p50_us", stats::block_p50(&price_lat));
    report.set("verified_frac", verified as f64 / attempted as f64);
    report.set("setup_s", stats::fast_end(&setup_s, false));
    report.set("peak_rss_mib", stats::peak_rss_mib());
    if cfg.trace {
        layers.finish(&done, report);
    }
    Ok(())
}

/// Per-layer samples from the traced run's replays of each round's trie
/// builds and of every price op split into its layers.
#[derive(Default)]
struct Layers {
    builds: Vec<f64>,
    build: Vec<f64>,
    split: Vec<f64>,
    recog: Vec<f64>,
    canon: Vec<f64>,
    solve: Vec<f64>,
    memo: MemoSolveReport,
    entries: usize,
    price_ops: usize,
    price_attributed: f64,
}

impl Layers {
    /// Replays the trie builds of a round's first `cap` multiway ops, and
    /// every price op of the round.
    fn replay(&mut self, inputs: &Inputs, done: &[Done], cap: usize) -> Result<(), String> {
        for d in done
            .iter()
            .filter(|d| matches!(d.op, Op::Multi(..)))
            .take(cap)
        {
            let Op::Multi(i, _) = d.op else { continue };
            let inst = &inputs.multi[i];
            let plan = multiway::explain_plan(&inst.q, &inst.rels).map_err(|e| e.to_string())?;
            for atom in &plan.atoms {
                let perm: Vec<u32> = atom
                    .key_order
                    .iter()
                    .filter_map(|v| atom.vars.iter().position(|w| w == v))
                    .map(|c| c as u32)
                    .collect();
                let (trie, us) = timed(|| TrieIndex::build(&inst.rels[atom.relation], &perm));
                trie.map_err(|e| e.to_string())?;
                self.builds.push(us);
            }
        }
        for inst in &inputs.price {
            let (g, build_us) = timed(|| join_graph_of(inst));
            let g = g?;
            let (parts, split_us) = timed(|| {
                let cm = ComponentMap::new(&g);
                cm.edges_by_component()
                    .iter()
                    .map(|e| g.edge_subgraph(e))
                    .collect::<Vec<_>>()
            });
            let mut recog_us = 0.0;
            for p in &parts {
                let (r, us) = timed(|| recognize_component(p));
                self.recog.push(us);
                recog_us += us;
                if r.is_none() {
                    self.canon.push(timed(|| canonical_form(p)).1);
                }
            }
            let memo = Memo::new();
            let (res, solve_us) = timed(|| solve_with_memo_report(&g, &memo, 1));
            let (_, rep) = res.map_err(|e| e.to_string())?;
            self.memo.components += rep.components;
            self.memo.recognized += rep.recognized;
            self.memo.hits += rep.hits;
            self.entries += memo.len();
            self.build.push(build_us);
            self.split.push(split_us);
            self.solve.push(solve_us);
            self.price_attributed += build_us + split_us + recog_us;
        }
        self.price_ops += inputs.price.len();
        Ok(())
    }

    /// Sets the per-layer metrics: engine times straight from the
    /// window's ops (each is one call into relalg), the rest from the
    /// replays.
    fn finish(self, done: &[Done], report: &mut Report) {
        let of = |pick: &dyn Fn(Op) -> bool| -> Vec<f64> {
            done.iter()
                .filter(|d| pick(d.op))
                .map(|d| d.latency_us)
                .collect()
        };
        report.set(
            "relalg.multiway.lftj_us",
            stats::median(&of(&|o| matches!(o, Op::Multi(_, MultiwayAlgo::Lftj)))),
        );
        report.set(
            "relalg.multiway.generic_us",
            stats::median(&of(&|o| matches!(o, Op::Multi(_, MultiwayAlgo::Generic)))),
        );
        report.set(
            "relalg.equi.hash_us",
            stats::median(&of(&|o| matches!(o, Op::Equi(_, EquiAlgo::Hash)))),
        );
        report.set(
            "relalg.equi.sort_merge_us",
            stats::median(&of(&|o| matches!(o, Op::Equi(_, EquiAlgo::SortMerge)))),
        );
        report.set(
            "relalg.equi.index_nl_us",
            stats::median(&of(&|o| matches!(o, Op::Equi(_, EquiAlgo::IndexNl)))),
        );
        let seeks: u64 = done.iter().map(|d| d.stats.seeks).sum();
        let intermediate: u64 = done.iter().map(|d| d.stats.intermediate).sum();
        report.set("relalg.multiway.seeks", seeks as f64);
        report.set("relalg.multiway.intermediate", intermediate as f64);
        report.set("relalg.trie.build_us", stats::median(&self.builds));

        let m = &self.memo;
        let frac = |n: u64| n as f64 / m.components.max(1) as f64;
        report.note(format!(
            "replayed {} trie builds and {} price ops: {} components, {} recognized, {} cache hits, {} memo entries",
            self.builds.len(),
            self.price_ops,
            m.components,
            m.recognized,
            m.hits,
            self.entries
        ));
        report.set("relalg.join_graph.build_us", stats::median(&self.build));
        report.set("graph.components.split_us", stats::median(&self.split));
        report.set("memo.recognize_us", stats::median(&self.recog));
        report.set("graph.canon_us", stats::median(&self.canon));
        report.set("memo.solve_us", stats::median(&self.solve));
        report.set("memo.components", m.components as f64);
        report.set("memo.served_frac", frac(m.recognized + m.hits));
        report.set("memo.recognized_frac", frac(m.recognized));
        report.set("memo.entries", self.entries as f64);
        // Each eval op is exactly one relalg call, so its whole latency is
        // that layer's; a price op is attributed to its build, split and
        // recognize replays, leaving the memo solve's own bookkeeping.
        let eval_total: f64 = of(&|o| !matches!(o, Op::Price(_))).iter().sum();
        let total: f64 = done.iter().map(|d| d.latency_us).sum();
        report.set(
            "unattributed_frac",
            1.0 - (eval_total + self.price_attributed) / total.max(f64::MIN_POSITIVE),
        );
    }
}
