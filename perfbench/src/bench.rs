//! The four workloads: set-up, the measured loop, the answer checks and the
//! metrics each run reports.

use crate::oracle::{self, Query, Shadow};
use crate::stack::{Layers, Stack, Totals};
use crate::trace::{self, Tracer};
use archis::{ArchConfig, ArchIS, ArchSnapshot, Change, RelationSpec};
use dataset::Op;
use relstore::IoStats;
use sqlxml::engine::QueryResult;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use temporal::Date;

/// Employees hired in the first year (the population then grows 4% a year).
pub const SCALE: usize = 150;
/// Seed of the generated history. Fixed, so that the store, and with it
/// every answer the segment-restriction fault spoils, is the same in every
/// run; `--seed` draws the query parameters and the order of each round.
pub const DATA_SEED: u64 = 42;
/// Changes per `apply_all` batch; `maybe_archive` runs after each.
pub const BATCH: usize = 64;
/// Instances per query class in one round.
pub const PER_CLASS: usize = 24;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Modeled device latency per page read on `query_spill`.
pub const SPILL_READ_LATENCY: Duration = Duration::from_micros(25);
/// The store holds this many times the pool on `query_spill`.
pub const SPILL_RATIO: u64 = 7;
/// Pool pages on every other workload (holds the whole store).
pub const HOT_POOL_PAGES: usize = 4096;
/// Seed of the Q1/Q2/Q6 instances (see [`pool`]).
const FIXED_QUERY_SEED: u64 = 7;

/// The end-to-end metrics, reported by untraced runs; traced runs report
/// everything else.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "q1_ms",
    "q2_ms",
    "q3_ms",
    "q4_ms",
    "q5_ms",
    "q6_ms",
    "queries_per_s",
    "ingest_changes_per_s",
    "apply_p50_ms",
    "apply_p90_ms",
    "store_bytes",
];

/// Whether a run with tracing `traced` prints metric `name`.
pub fn reported(name: &str, traced: bool) -> bool {
    END_TO_END.contains(&name) != traced
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QueryHot,
    QuerySpill,
    QueryCompressed,
    IngestSnapshot,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryHot => "query_hot",
            Workload::QuerySpill => "query_spill",
            Workload::QueryCompressed => "query_compressed",
            Workload::IngestSnapshot => "ingest_snapshot",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "query_hot" => Workload::QueryHot,
            "query_spill" => Workload::QuerySpill,
            "query_compressed" => Workload::QueryCompressed,
            "ingest_snapshot" => Workload::IngestSnapshot,
            _ => return None,
        })
    }

    fn config(self) -> ArchConfig {
        let mut c = match self {
            Workload::QuerySpill => ArchConfig::atlas_like(),
            _ => ArchConfig::db2_like(),
        };
        c.buffer_pages = HOT_POOL_PAGES;
        c
    }
}

/// What one run reports, before it is printed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Query operations attempted and failed per class, Q1..Q6.
    pub attempted_by_class: [u64; 6],
    pub failed_by_class: [u64; 6],
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }
}

/// Tiny deterministic generator (xorshift64*), so inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn day(y: i32, m: u32, d: u32) -> Date {
    Date::from_ymd(y, m, d).expect("valid date")
}

/// `k` values in `[0, 1)`, one in each stratum `[i/k, (i+1)/k)`, in a
/// seeded order (one dimension of a Latin hypercube). Drawing parameters
/// this way keeps the cost mix of a round close to the same whatever the
/// seed, so per-class medians differ little between seeds.
fn strata(rng: &mut Rng, k: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..k)
        .map(|i| (i as f64 + (rng.below(1 << 20) as f64 + 0.5) / (1 << 20) as f64) / k as f64)
        .collect();
    shuffle(&mut v, rng);
    v
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The date a fraction `u` of the way from `lo` to `hi`.
fn date_at(lo: Date, hi: Date, u: f64) -> Date {
    lo + (u * hi.days_since(lo) as f64) as i32
}

/// Draws of one query class: `k` instances spread over `ids`, dates from
/// `lo` to `hi`, windows of one month to two years and thresholds across
/// the salary range.
struct Draws {
    id: Vec<f64>,
    date: Vec<f64>,
    len: Vec<f64>,
    k: Vec<f64>,
}

impl Draws {
    fn new(rng: &mut Rng, k: usize) -> Self {
        Draws {
            id: strata(rng, k),
            date: strata(rng, k),
            len: strata(rng, k),
            k: strata(rng, k),
        }
    }

    fn id(&self, i: usize, ids: &[i64]) -> i64 {
        ids[((self.id[i] * ids.len() as f64) as usize).min(ids.len() - 1)]
    }

    fn window(&self, i: usize, lo: Date, hi: Date) -> (Date, Date) {
        let d1 = date_at(lo, hi, self.date[i]);
        (d1, d1 + 30 + (self.len[i] * 700.0) as i32)
    }
}

/// Query dates span the history: 1985-01-01 to 2001-12-31.
fn history() -> (Date, Date) {
    (day(1985, 1, 1), day(2001, 12, 31))
}

/// The query instances of one round, `PER_CLASS` of each class, in the
/// order they run. Q3–Q5 parameters come from `seed`. Q1, Q2 and Q6 come
/// from a fixed seed: on archived stores the translated SQL answers many of
/// their instances wrongly, and only instances that are the same in every
/// run fail at the same rate in every run. The order is shuffled by `seed`.
pub fn pool(shadow: &Shadow, seed: u64) -> Vec<Query> {
    let ids = shadow.ids();
    let (lo_k, hi_k) = shadow.salary_range();
    let (lo, hi) = history();
    let mut rng = Rng::new(FIXED_QUERY_SEED);
    let (q1, q2, q6) = (
        Draws::new(&mut rng, PER_CLASS),
        Draws::new(&mut rng, PER_CLASS),
        Draws::new(&mut rng, PER_CLASS),
    );
    let mut rng = Rng::new(seed);
    let (q3, q5) = (
        Draws::new(&mut rng, PER_CLASS),
        Draws::new(&mut rng, PER_CLASS),
    );
    let mut out = Vec::new();
    for i in 0..PER_CLASS {
        out.push(Query::Q1 {
            id: q1.id(i, &ids),
            d: date_at(lo, hi, q1.date[i]),
        });
        out.push(Query::Q2 {
            d: date_at(lo, hi, q2.date[i]),
        });
        out.push(Query::Q3 { id: q3.id(i, &ids) });
        out.push(Query::Q4);
        let (d1, d2) = q5.window(i, lo, hi);
        let k = lo_k + (q5.k[i] * (hi_k - lo_k) as f64) as i64;
        out.push(Query::Q5 { k, d1, d2 });
        let (d1, d2) = q6.window(i, lo, hi);
        out.push(Query::Q6 { d1, d2 });
    }
    shuffle(&mut out, &mut rng);
    out
}

/// Render a result as a user reads it: XML fragments one a line, else the
/// scalar cells.
pub fn read_out(r: &QueryResult) -> String {
    let xml = r.xml_fragments();
    if !xml.is_empty() {
        return xml.join("\n");
    }
    r.rows
        .iter()
        .flat_map(|row| row.iter().map(|v| v.render()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Timings of the writer steps (`apply_all` + `maybe_archive`).
#[derive(Default)]
struct Steps {
    step_ms: Vec<f64>,
    apply_ns: u64,
    changes: u64,
    archive_ms: Vec<f64>,
    wall_s: f64,
}

impl Steps {
    /// Apply one batch, then check for archival. `committed` runs after
    /// each call that commits: the batch, and an archival.
    fn step(
        &mut self,
        archis: &ArchIS,
        changes: &[Change],
        last: Date,
        mut committed: impl FnMut(),
    ) -> Result<(), String> {
        let t = Instant::now();
        archis.apply_all(changes).map_err(|e| e.to_string())?;
        let applied = t.elapsed();
        committed();
        let t2 = Instant::now();
        let archived = archis
            .maybe_archive("employee", last)
            .map_err(|e| e.to_string())?;
        if archived > 0 {
            self.archive_ms.push(t2.elapsed().as_secs_f64() * 1e3);
            committed();
        }
        self.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.apply_ns += applied.as_nanos() as u64;
        self.changes += changes.len() as u64;
        Ok(())
    }
}

/// Per-layer counters read around a phase.
#[derive(Default, Clone, Copy)]
struct Io {
    pool: IoStats,
    device: Totals,
    log: Totals,
    wal: relstore::wal::WalStats,
    blocks: (u64, u64, u64),
}

impl Io {
    fn read(archis: &ArchIS, layers: &Layers) -> Self {
        let store = archis.compressed_store("employee");
        Io {
            pool: archis.database().pool().stats(),
            device: layers
                .device
                .as_ref()
                .map(|c| c.totals())
                .unwrap_or_default(),
            log: layers.log.as_ref().map(|c| c.totals()).unwrap_or_default(),
            wal: layers
                .wal
                .as_ref()
                .map(|w| w.wal_stats())
                .unwrap_or_default(),
            blocks: store.map_or((0, 0, 0), |s| {
                let (h, m) = s.cache_stats();
                (h, m, s.blocks_read())
            }),
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Mean of the middle half of `v`: steady when a class's instances fall
/// into a few cost groups, where the median jumps from one group to the
/// next as the mix shifts by one instance.
fn interquartile_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Run one query, timing the call and the read-out; with tracing on, each
/// layer call gets its own span under a `query` span.
fn run_query(
    tracer: &Tracer,
    archis: &ArchIS,
    snap: Option<&ArchSnapshot<'_>>,
    q: &Query,
) -> (f64, Result<String, String>) {
    let xq = q.xquery();
    let t = Instant::now();
    let res = if tracer.on() {
        tracer.span("query", || {
            let sql = tracer
                .span("core.translate", || archis.translate(&xq))
                .map_err(|e| e.to_string())?;
            tracer
                .span("sqlxml.parse", || sqlxml::parse_sql(&sql))
                .map_err(|e| e.to_string())?;
            let r = tracer
                .span("sqlxml.execute", || match snap {
                    Some(s) => s.execute_sql(&sql),
                    None => archis.execute_sql(&sql),
                })
                .map_err(|e| e.to_string())?;
            Ok(tracer.span("xmldom.render", || read_out(&r)))
        })
    } else {
        let r = match snap {
            Some(s) => s.query(&xq),
            None => archis.query(&xq),
        };
        r.map(|r| read_out(&r)).map_err(|e| e.to_string())
    };
    (t.elapsed().as_secs_f64() * 1e3, res)
}

/// Whether the rendered result of `q` matches the expected answer.
fn correct(q: &Query, res: Result<String, String>, expected: &oracle::Answer) -> bool {
    res.ok()
        .and_then(|text| oracle::parse(q, &text).ok())
        .is_some_and(|got| got.matches(expected))
}

/// Query-side tallies of one client.
#[derive(Default)]
struct Client {
    attempted_by_class: [u64; 6],
    failed_by_class: [u64; 6],
    /// Latencies of the round in progress, per class (ms), and its busy
    /// time (ms): query time, plus the snapshot pin on the reader.
    round: [Vec<f64>; 6],
    round_busy_ms: f64,
    /// Per class, the interquartile mean latency of each finished round
    /// (ms), and each finished round's queries per busy second.
    round_iqms: [Vec<f64>; 6],
    round_rates: Vec<f64>,
    /// Queries measured.
    measured: u64,
    /// Count and total time (ms) of the untraced queries of a traced run.
    untraced: (u64, f64),
    pin_us: Vec<f64>,
    snapshot_reads: u64,
}

impl Client {
    fn count(&mut self, q: &Query, ok: bool) {
        self.attempted_by_class[q.class()] += 1;
        if !ok {
            self.failed_by_class[q.class()] += 1;
        }
    }

    /// Record a measured query of `ms` that kept the client busy `busy_ms`:
    /// untraced queries of a traced run only feed the tracing-overhead
    /// figures.
    fn record(&mut self, q: &Query, ms: f64, busy_ms: f64, untraced_in_traced_run: bool) {
        self.measured += 1;
        if untraced_in_traced_run {
            self.untraced.0 += 1;
            self.untraced.1 += ms;
        } else {
            self.round[q.class()].push(ms);
            self.round_busy_ms += busy_ms;
        }
    }

    /// Close a whole round: each class's interquartile mean latency in it,
    /// and the round's throughput, become one sample each.
    fn end_round(&mut self) {
        let mut n = 0;
        for c in 0..6 {
            let v = std::mem::take(&mut self.round[c]);
            n += v.len();
            if !v.is_empty() {
                self.round_iqms[c].push(interquartile_mean(&v));
            }
        }
        if n > 0 {
            self.round_rates.push(n as f64 / (self.round_busy_ms / 1e3));
        }
        self.round_busy_ms = 0.0;
    }

    /// Drop the samples of a round cut short.
    fn drop_round(&mut self) {
        self.round = Default::default();
        self.round_busy_ms = 0.0;
    }

    fn add_to(&self, out: &mut Outcome) {
        for c in 0..6 {
            out.attempted_by_class[c] += self.attempted_by_class[c];
            out.attempted += self.attempted_by_class[c];
            out.failed_by_class[c] += self.failed_by_class[c];
            out.failed += self.failed_by_class[c];
        }
    }

    fn merge(&mut self, o: Client) {
        for c in 0..6 {
            self.attempted_by_class[c] += o.attempted_by_class[c];
            self.failed_by_class[c] += o.failed_by_class[c];
            self.round_iqms[c].extend(o.round_iqms[c].iter().copied());
        }
        self.round_rates.extend(o.round_rates);
        self.measured += o.measured;
        self.untraced.0 += o.untraced.0;
        self.untraced.1 += o.untraced.1;
        self.pin_us.extend(o.pin_us);
        self.snapshot_reads += o.snapshot_reads;
    }
}

/// One store build: the history prefix applied in `BATCH`-change steps,
/// compressed if asked, checkpointed, dropped and reopened.
struct Built {
    steps: Steps,
    checkpoint_ms: f64,
    setup_s: f64,
    build_io: Io,
}

struct Run<'a> {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: PathBuf,
    ops: &'a [Op],
    changes: &'a [Change],
    shadow: &'a Shadow,
    out: Outcome,
    tracer: Tracer,
    epoch: Instant,
}

impl Run<'_> {
    fn build_stack(&self) -> Stack {
        Stack {
            read_latency: Duration::ZERO,
            traced: self.traced,
        }
    }

    fn query_stack(&self) -> Stack {
        Stack {
            read_latency: if self.workload == Workload::QuerySpill {
                SPILL_READ_LATENCY
            } else {
                Duration::ZERO
            },
            traced: self.traced,
        }
    }

    /// Generate the history and build the store at `path` from its first
    /// `upto` changes, then checkpoint, drop and reopen it.
    fn build(&self, path: &Path, upto: usize) -> (ArchIS, Layers, Built) {
        remove_store(path);
        let t0 = Instant::now();
        let (ops, changes) = generate_history();
        let cfg = self.workload.config();
        let (mut archis, layers) = self.build_stack().open(path, cfg.clone());
        archis
            .create_relation(RelationSpec::employee())
            .expect("create relation");
        let mut steps = Steps::default();
        let t_ingest = Instant::now();
        for (ch, op) in changes[..upto].chunks(BATCH).zip(ops[..upto].chunks(BATCH)) {
            let last = op.last().expect("non-empty chunk").at();
            steps
                .step(&archis, ch, last, || ())
                .expect("history replays");
        }
        steps.wall_s = t_ingest.elapsed().as_secs_f64();
        let build_io = Io::read(&archis, &layers);
        if self.workload == Workload::QueryCompressed {
            archis
                .compress_archived("employee")
                .expect("compress archived segments");
        }
        let t = Instant::now();
        archis.checkpoint().expect("checkpoint");
        let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
        let pages = archis.database().pool().pager().num_pages();
        drop(archis);
        let mut cfg = cfg;
        if self.workload == Workload::QuerySpill {
            cfg.buffer_pages = ((pages / SPILL_RATIO) as usize).max(16);
        }
        let (archis, layers) = self.query_stack().open(path, cfg);
        let setup_s = t0.elapsed().as_secs_f64();
        let built = Built {
            steps,
            checkpoint_ms,
            setup_s,
            build_io,
        };
        (archis, layers, built)
    }

    /// Build `SETUPS` times and keep the last store; `setup_s` is the
    /// median set-up time.
    fn setup(&mut self, path: &Path, upto: usize) -> (ArchIS, Layers) {
        let mut builds = Vec::new();
        loop {
            let (archis, layers, built) = self.build(path, upto);
            builds.push(built);
            if builds.len() == SETUPS {
                let setups: Vec<f64> = builds.iter().map(|b| b.setup_s).collect();
                self.out.put("setup_s", median(&setups), "s");
                self.out.put(
                    "store_bytes",
                    archis.storage_bytes().expect("storage bytes") as f64,
                    "bytes",
                );
                self.report_builds(&builds);
                return (archis, layers);
            }
        }
    }

    /// Writer figures of the set-up builds. On the query workloads the
    /// build is the only ingest there is, so it gives the ingest metrics.
    fn report_builds(&mut self, builds: &[Built]) {
        if self.workload != Workload::IngestSnapshot {
            let steps: Vec<f64> = builds
                .iter()
                .flat_map(|b| b.steps.step_ms.iter().copied())
                .collect();
            let rates: Vec<f64> = builds
                .iter()
                .map(|b| b.steps.changes as f64 / b.steps.wall_s)
                .collect();
            self.out.put("ingest_changes_per_s", median(&rates), "1/s");
            self.out.put("apply_p50_ms", median(&steps), "ms");
            self.out.put("apply_p90_ms", percentile(&steps, 0.9), "ms");
        }
        if self.traced {
            let cks: Vec<f64> = builds.iter().map(|b| b.checkpoint_ms).collect();
            self.out.put("wal.checkpoint_ms", median(&cks), "ms");
            if self.workload != Workload::IngestSnapshot {
                let b = &builds[builds.len() - 1];
                self.report_writer(&b.steps, Io::default(), b.build_io);
            }
        }
    }

    /// Writer-side per-layer metrics over a phase.
    fn report_writer(&mut self, steps: &Steps, before: Io, after: Io) {
        let log = after.log.since(before.log);
        let commits = (after.wal.commits - before.wal.commits) as f64;
        let changes = steps.changes as f64;
        let out = &mut self.out;
        out.put(
            "archive.apply_us_per_change",
            ratio(steps.apply_ns as f64 / 1e3, changes),
            "us",
        );
        out.put("archive.archive_ms", median(&steps.archive_ms), "ms");
        out.put("wal.commits", commits, "count");
        out.put(
            "wal.fsyncs",
            (after.wal.syncs - before.wal.syncs) as f64,
            "count",
        );
        out.put(
            "wal.fsync_us",
            ratio(log.sync_ns as f64 / 1e3, log.syncs as f64),
            "us",
        );
        out.put(
            "wal.log_bytes_per_change",
            ratio(log.bytes as f64, changes),
            "bytes",
        );
        out.put(
            "wal.page_records_per_commit",
            ratio(
                (after.wal.page_records - before.wal.page_records) as f64,
                commits,
            ),
            "count",
        );
    }

    /// Per-query read-side counters over one round.
    fn report_reads(&mut self, before: Io, after: Io, queries: f64, plans: (f64, f64)) {
        let pool = |f: fn(&IoStats) -> u64| (f(&after.pool) - f(&before.pool)) as f64 / queries;
        let logical = pool(|s| s.logical_reads);
        let physical = pool(|s| s.physical_reads);
        let dev = after.device.since(before.device);
        let (h, m, d) = (
            after.blocks.0 - before.blocks.0,
            after.blocks.1 - before.blocks.1,
            after.blocks.2 - before.blocks.2,
        );
        let out = &mut self.out;
        out.put("pool.logical_reads_per_query", logical, "count");
        out.put("pool.physical_reads_per_query", physical, "count");
        out.put("pool.evictions_per_query", pool(|s| s.evictions), "count");
        out.put(
            "pool.hit_rate",
            if logical == 0.0 {
                1.0
            } else {
                1.0 - physical / logical
            },
            "ratio",
        );
        out.put(
            "pager.checksum_verifications_per_query",
            pool(|s| s.checksum_verifications),
            "count",
        );
        out.put("pager.reads_per_query", dev.reads as f64 / queries, "count");
        out.put(
            "blockzip.blocks_requested_per_query",
            (h + m) as f64 / queries,
            "count",
        );
        out.put(
            "blockzip.blocks_decoded_per_query",
            d as f64 / queries,
            "count",
        );
        out.put(
            "blockzip.cache_hit_rate",
            if h + m == 0 {
                1.0
            } else {
                h as f64 / (h + m) as f64
            },
            "ratio",
        );
        out.put("plan.scans_per_query", plans.0 / queries, "count");
        out.put("plan.est_rows_per_query", plans.1 / queries, "rows");
    }

    /// End-to-end query figures of a client, plus, when traced, the layer
    /// times from its spans and the tracing overhead. A class's latency is
    /// the median, over whole rounds, of its interquartile mean latency in
    /// a round, and the throughput the median of the rounds' throughputs.
    fn report_client(&mut self, client: &Client, spans: Vec<trace::Span>) {
        for (c, s) in client.round_iqms.iter().enumerate() {
            self.out.put(&format!("q{}_ms", c + 1), median(s), "ms");
        }
        self.out
            .put("queries_per_s", median(&client.round_rates), "1/s");
        if !self.traced {
            return;
        }
        let mut spans = spans;
        spans.extend(self.tracer.take());
        let us = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect()
        };
        let sum = |name: &str| us(name).iter().sum::<f64>();
        let queries = us("query").len() as f64;
        // Mean per traced query of the layer calls, against the mean
        // untraced query. The traced query also runs the extra parse, so
        // that is left out of the traced time.
        let layers = ratio(
            sum("core.translate") + sum("sqlxml.execute") + sum("xmldom.render"),
            queries,
        );
        let traced = ratio(sum("query") - sum("sqlxml.parse"), queries);
        let untraced = ratio(client.untraced.1 * 1e3, client.untraced.0 as f64);
        let out = &mut self.out;
        out.put("translate.us", median(&us("core.translate")), "us");
        out.put("sqlxml.parse_us", median(&us("sqlxml.parse")), "us");
        out.put("sqlxml.execute_us", median(&us("sqlxml.execute")), "us");
        out.put("xmldom.render_us", median(&us("xmldom.render")), "us");
        out.put(
            "trace.overhead_pct",
            100.0 * ratio(traced - untraced, untraced),
            "%",
        );
        out.put("trace.layer_coverage", ratio(layers, untraced), "ratio");
        out.put("mvcc.pin_us", median(&client.pin_us), "us");
        out.put(
            "mvcc.snapshot_reads_per_query",
            ratio(client.snapshot_reads as f64, client.measured as f64),
            "count",
        );
        let path = self.dir.join(format!(
            "trace-{}-{}.jsonl",
            self.workload.name(),
            self.seed
        ));
        if let Err(e) = trace::write(&path, &spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }

    fn report_layers(&mut self, archis: &ArchIS, layers: &Layers) {
        if !self.traced {
            return;
        }
        self.out.put(
            "archive.segments",
            archis
                .segments_of("employee", "salary")
                .expect("segment catalog")
                .len() as f64,
            "count",
        );
        let dev = layers
            .device
            .as_ref()
            .map(|c| c.totals())
            .unwrap_or_default();
        self.out.put(
            "pager.read_us",
            ratio(dev.read_ns as f64 / 1e3, dev.reads as f64),
            "us",
        );
    }

    /// The three single-client query workloads: whole rounds of the query
    /// mix in a closed loop until the run's time is up.
    fn query_workload(&mut self) {
        let path = self.dir.join("store");
        let n = self.ops.len();
        let (archis, layers) = self.setup(&path, n);
        let pool = pool(self.shadow, self.seed);
        let expected: Vec<_> = pool.iter().map(|q| self.shadow.answer(q, n)).collect();
        let mut client = Client::default();
        let start = Instant::now();
        let mut round = 0usize;
        loop {
            // Round 0 warms the pool and the block cache. In the traced
            // run every other round runs untraced, for the overhead and
            // coverage figures, and round 1's counters are the ones kept.
            let traced_round = self.traced && round % 2 == 1;
            self.tracer.enable(traced_round);
            let before = Io::read(&archis, &layers);
            let _ = relstore::planner::take_plan_log();
            let mut plans = (0.0, 0.0);
            for (q, exp) in pool.iter().zip(&expected) {
                let (ms, res) = run_query(&self.tracer, &archis, None, q);
                if round > 0 {
                    client.record(q, ms, ms, self.traced && !traced_round);
                }
                for e in relstore::planner::take_plan_log() {
                    plans.0 += 1.0;
                    plans.1 += e.est_rows;
                }
                client.count(q, correct(q, res, exp));
            }
            if round > 0 {
                client.end_round();
            }
            let after = Io::read(&archis, &layers);
            if self.traced && round == 1 {
                self.report_reads(before, after, pool.len() as f64, plans);
                let t = Instant::now();
                drop(archis.begin_snapshot().expect("pin a snapshot"));
                client.pin_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            round += 1;
            if round >= 3 && start.elapsed().as_secs_f64() >= self.seconds {
                break;
            }
        }
        self.tracer.enable(true);
        client.add_to(&mut self.out);
        self.report_layers(&archis, &layers);
        self.report_client(&client, Vec::new());
        drop(archis);
        remove_store(&path);
    }

    /// Writes beside reads: the first half of the history is the set-up;
    /// each episode copies that store, then one writer applies the rest
    /// while one reader pins a snapshot per query. Every reader answer is
    /// checked against the history prefix committed at its pinned LSN.
    fn ingest_workload(&mut self) {
        let half = self.ops.len() / 2;
        let base = self.dir.join("base");
        let (archis, _) = self.setup(&base, half);
        let segments = archis
            .segments_of("employee", "salary")
            .expect("segment catalog");
        let live_start = segments.last().expect("a live segment").start;
        drop(archis);
        let ep = self.dir.join("episode");
        let reader_pool = reader_pool(self.shadow, self.seed, live_start);
        let mut client = Client::default();
        let mut steps = Steps::default();
        let mut reader_spans = Vec::new();
        let start = Instant::now();
        for episode in 0.. {
            if episode > 0 && start.elapsed().as_secs_f64() >= self.seconds {
                break;
            }
            copy_store(&base, &ep);
            let (archis, layers) = self.query_stack().open(&ep, self.workload.config());
            let before = Io::read(&archis, &layers);
            let lsns = Mutex::new(vec![(archis.database().commit_lsn(), half)]);
            let done = AtomicBool::new(false);
            let mut ep_steps = Steps::default();
            let t_ep = Instant::now();
            let (reader, spans) = std::thread::scope(|s| {
                let h = s.spawn(|| {
                    reader_loop(
                        &archis,
                        self.shadow,
                        &reader_pool,
                        &lsns,
                        &done,
                        self.traced,
                        self.epoch,
                    )
                });
                let mut n = half;
                let ops = &self.ops[half..];
                for (ch, op) in self.changes[half..].chunks(BATCH).zip(ops.chunks(BATCH)) {
                    let last = op.last().expect("non-empty chunk").at();
                    n += ch.len();
                    // A snapshot pinned at either commit of the step sees
                    // the first `n` changes.
                    let record = || {
                        let lsn = archis.database().commit_lsn();
                        lsns.lock().expect("writer lock").push((lsn, n));
                    };
                    let res = self
                        .tracer
                        .span("archive.step", || ep_steps.step(&archis, ch, last, record));
                    self.out.attempted += 1;
                    if let Err(e) = res {
                        eprintln!("perfbench: writer step failed: {e}");
                        self.out.failed += 1;
                    }
                }
                done.store(true, Ordering::SeqCst);
                h.join().expect("reader thread")
            });
            ep_steps.wall_s = t_ep.elapsed().as_secs_f64();
            if self.traced && episode == 0 {
                // Writer counters of the first episode.
                self.report_writer(&ep_steps, before, Io::read(&archis, &layers));
                self.report_layers(&archis, &layers);
            }
            steps.step_ms.extend(ep_steps.step_ms);
            steps.changes += ep_steps.changes;
            steps.wall_s += ep_steps.wall_s;
            client.merge(reader);
            reader_spans.extend(spans);
            drop(archis);
        }
        // The durable result: reopen the last episode's store as users do
        // and check it against the whole history.
        let (archis, _) = Stack {
            read_latency: Duration::ZERO,
            traced: false,
        }
        .open(&ep, self.workload.config());
        let n = self.ops.len();
        let mut check = Client::default();
        for q in &reader_pool {
            let (_, res) = run_query(&Tracer::new(false, self.epoch), &archis, None, q);
            check.count(q, correct(q, res, &self.shadow.answer(q, n)));
        }
        check.add_to(&mut self.out);
        drop(archis);
        remove_store(&ep);
        remove_store(&base);
        client.add_to(&mut self.out);
        self.out.put(
            "ingest_changes_per_s",
            steps.changes as f64 / steps.wall_s,
            "1/s",
        );
        self.out.put("apply_p50_ms", median(&steps.step_ms), "ms");
        self.out
            .put("apply_p90_ms", percentile(&steps.step_ms, 0.9), "ms");
        if self.traced {
            // The reader's reads go through its snapshots' private pools
            // (`mvcc.snapshot_reads_per_query`); the shared pool serves the
            // writer alone.
            self.report_reads(Io::default(), Io::default(), 1.0, (0.0, 0.0));
        }
        self.report_client(&client, reader_spans);
    }
}

/// The reader's query mix on `ingest_snapshot`, all from `seed`. While the
/// writer archives, the translated SQL of a snapshot query whose window
/// reaches the era being ingested can answer wrongly, depending on which
/// commit the snapshot pinned, so no such instance is in the mix: Q1, Q2
/// and Q6 ask about the current era (after the last change of the history)
/// and Q5 windows end before the live segment the set-up left. Q3 and Q4
/// read the whole history.
fn reader_pool(shadow: &Shadow, seed: u64, live_start: Date) -> Vec<Query> {
    let ids = shadow.ids();
    let (lo_k, hi_k) = shadow.salary_range();
    let (lo, _) = history();
    let (now_lo, now_hi) = (day(2002, 1, 1), day(2004, 12, 31));
    let mut rng = Rng::new(seed ^ 0x5eed);
    let d: Vec<Draws> = (0..5).map(|_| Draws::new(&mut rng, PER_CLASS)).collect();
    let mut out = Vec::new();
    for i in 0..PER_CLASS {
        out.push(Query::Q1 {
            id: d[0].id(i, &ids),
            d: date_at(now_lo, now_hi, d[0].date[i]),
        });
        out.push(Query::Q2 {
            d: date_at(now_lo, now_hi, d[1].date[i]),
        });
        out.push(Query::Q3 {
            id: d[2].id(i, &ids),
        });
        out.push(Query::Q4);
        let (d1, d2) = d[3].window(i, lo, live_start - 31);
        let k = lo_k + (d[3].k[i] * (hi_k - lo_k) as f64) as i64;
        out.push(Query::Q5 {
            k,
            d1,
            d2: d2.min(live_start.pred()),
        });
        let (d1, d2) = d[4].window(i, now_lo, now_hi);
        out.push(Query::Q6 { d1, d2 });
    }
    shuffle(&mut out, &mut rng);
    out
}

/// The reader of `ingest_snapshot`: whole passes over its pool, one
/// snapshot pinned per query, until the writer is done. Returns its tallies,
/// its measured seconds and its spans.
fn reader_loop(
    archis: &ArchIS,
    shadow: &Shadow,
    pool: &[Query],
    lsns: &Mutex<Vec<(u64, usize)>>,
    done: &AtomicBool,
    traced: bool,
    epoch: Instant,
) -> (Client, Vec<trace::Span>) {
    let tracer = Tracer::new(traced, epoch);
    let mut client = Client::default();
    'passes: for pass in 0.. {
        for (i, q) in pool.iter().enumerate() {
            if done.load(Ordering::SeqCst) {
                break 'passes;
            }
            // In the traced run every other query runs untraced (for the
            // overhead figures), alternating by pass so that each instance
            // runs both ways and both see the same writer activity.
            let traced_query = traced && (pass + i) % 2 == 0;
            tracer.enable(traced_query);
            let t = Instant::now();
            let snap = tracer.span("mvcc.pin", || archis.begin_snapshot());
            let pin_us = t.elapsed().as_secs_f64() * 1e6;
            let Ok(snap) = snap else {
                client.count(q, false);
                continue;
            };
            let lsn = snap.commit_lsn();
            let (ms, res) = run_query(&tracer, archis, Some(&snap), q);
            let reads = snap.database().pool().stats().physical_reads;
            drop(snap);
            let busy_ms = t.elapsed().as_secs_f64() * 1e3;
            client.record(q, ms, busy_ms, traced && !traced_query);
            client.pin_us.push(pin_us);
            client.snapshot_reads += reads;
            // The prefix committed at `lsn`: wait until the writer has
            // recorded that commit.
            let n = loop {
                let l = lsns.lock().expect("reader lock");
                if l.last().is_some_and(|&(last, _)| last >= lsn) {
                    break l
                        .iter()
                        .rev()
                        .find(|&&(at, _)| at <= lsn)
                        .map_or(0, |&(_, n)| n);
                }
                drop(l);
                std::thread::yield_now();
            };
            client.count(q, correct(q, res, &shadow.answer(q, n)));
        }
        client.end_round();
    }
    // A pass the writer's end cut short gives no latency figures.
    client.drop_round();
    (client, tracer.take())
}

fn store_files(path: &Path) -> [PathBuf; 2] {
    let mut wal = path.as_os_str().to_os_string();
    wal.push(".wal");
    [path.to_path_buf(), PathBuf::from(wal)]
}

fn remove_store(path: &Path) {
    for f in store_files(path) {
        let _ = std::fs::remove_file(f);
    }
}

fn copy_store(from: &Path, to: &Path) {
    for (a, b) in store_files(from).iter().zip(store_files(to)) {
        std::fs::copy(a, b).expect("copy the set-up store");
    }
}

/// The generated history and the changes it replays as.
fn generate_history() -> (Vec<Op>, Vec<Change>) {
    let ops = dataset::generate(&dataset::DatasetConfig {
        employees: SCALE,
        years: 17,
        seed: DATA_SEED,
        ..Default::default()
    });
    let changes = ops.iter().map(archis_bench::op_to_change).collect();
    (ops, changes)
}

/// Run one workload and return what it measured.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, dir: &Path) -> Outcome {
    let (ops, changes) = generate_history();
    let shadow = Shadow::new(&ops, archis_bench::bench_now());
    let epoch = Instant::now();
    let mut run = Run {
        workload,
        seed,
        seconds,
        traced,
        dir: dir.to_path_buf(),
        ops: &ops,
        changes: &changes,
        shadow: &shadow,
        out: Outcome::default(),
        tracer: Tracer::new(traced, epoch),
        epoch,
    };
    match workload {
        Workload::IngestSnapshot => run.ingest_workload(),
        _ => run.query_workload(),
    }
    let mut out = run.out;
    if traced {
        for c in 0..6 {
            let share = ratio(
                out.failed_by_class[c] as f64,
                out.attempted_by_class[c] as f64,
            );
            out.put(&format!("check.q{}_failed_share", c + 1), share, "ratio");
        }
    }
    out
}
