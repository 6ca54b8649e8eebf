//! The three workloads: set-up, load phases and, in a traced run, the
//! per-layer probes.
//!
//! Every workload builds its index from a Large catalog stand-in with
//! |R| = 20 highest-degree landmarks, sends a request stream generated
//! from the run's seed, and checks every answer against the oracle.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qbs_core::meta_graph::MetaGraph;
use qbs_core::request::QueryMode;
use qbs_core::search::{guided_distance_with, guided_search_with};
use qbs_core::serialize::{self, IndexFormat, MapMode};
use qbs_core::sketch::compute_bounds;
use qbs_core::wire::RequestId;
use qbs_core::{
    sketch_on, CacheConfig, CompactStore, EngineStats, IndexStore, Qbs, QbsConfig, QbsIndex,
    QueryRequest, QueryWorkspace, TraceId, ViewStore,
};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_gen::workload::QueryWorkload;
use qbs_graph::{Graph, VertexId};
use qbs_router::{QbsRouter, RouterConfig, RouterHandle};
use qbs_server::protocol::{self, ResponseFrame};
use qbs_server::{QbsClient, QbsServer, ServerConfig, ServerHandle};

use crate::load::{Caller, Load, Phase, Stream, PATH_SLOTS};
use crate::oracle::{Oracle, PathSample};
use crate::stats::{self, median, us};
use crate::trace::{SpanLog, Trace};

/// Landmarks per index (the paper's |R| = 20).
const LANDMARKS: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Unmeasured warm-up before the first measured phase.
const WARMUP: Duration = Duration::from_millis(400);
/// Pairs the single-threaded layer probes run on.
const PROBE_PAIRS: usize = 1_000;
/// Batches the engine, server and router probes send.
const PROBE_BATCHES: usize = 200;
/// Slices of a closed-loop run, and interleaved slices per rate of an
/// open-loop run (whose slices must each hold enough batches for a 99th
/// percentile at the lowest rate).
const CLOSED_SLICES: usize = 30;
const OPEN_SLICES: usize = 10;
/// Alternating untraced/traced windows of a traced run.
const TRACE_WINDOWS: usize = 8;

/// The parameters of one run.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// Work directory under the current directory (index files, span dump).
    pub work_dir: PathBuf,
}

impl Run {
    fn share(&self, frac: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * frac)
    }
}

/// What a run measured.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub paths_checked: u64,
    pub notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.retain(|m| m.0 != name);
        self.metrics.push((name, value, unit));
    }

    /// Counts `phase`'s requests and failures, and notes its figures.
    fn count(&mut self, label: &str, phase: &Phase) {
        self.notes.push(format!(
            "phase {label}: {} requests, {:.0} req/s, batch p50 {:.1} us, p99 {:.1} us, generator late p99 {:.1} us{}",
            phase.requests,
            phase.rps(),
            phase.p50_us(),
            phase.p99_us(),
            stats::quantile(&mut phase.late_us.clone(), 0.99),
            if phase.backlog_grew { ", backlog grew" } else { "" }
        ));
        self.attempted += phase.requests;
        self.failed += phase.failed;
        self.mismatches += phase.mismatches;
        if let Some(first) = phase.refusals.first() {
            self.notes.push(format!(
                "{} refused batches, first: {first}",
                phase.refusals.len()
            ));
        }
    }

    /// Checks the kept path graphs edge for edge against plain BFS.
    fn check_paths(&mut self, graph: &Graph, paths: &Mutex<PathSample>) {
        let (bad, checked) = paths
            .lock()
            .expect("path sample poisoned")
            .mismatches(graph);
        self.mismatches += bad;
        self.failed += bad;
        self.paths_checked += checked;
    }

    fn zero_layers(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            self.put(name, 0.0, unit);
        }
    }
}

/// Every per-layer metric with its unit, in report order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("build.landmark_s", "s"),
    ("build.labelling_s", "s"),
    ("build.meta_graph_s", "s"),
    ("build.label_entries", "count"),
    ("store.save_s", "s"),
    ("store.open_s", "s"),
    ("index.owned_bytes", "bytes"),
    ("index.v2_bytes", "bytes"),
    ("index.v3_bytes", "bytes"),
    ("store.label_ns.owned", "ns"),
    ("store.label_ns.view", "ns"),
    ("store.label_ns.compact", "ns"),
    ("sketch.us", "us"),
    ("search.spg_us", "us"),
    ("search.dist_us", "us"),
    ("search.edges_per_q", "count"),
    ("search.settled_per_q", "count"),
    ("search.reverse_frac", "frac"),
    ("search.recover_frac", "frac"),
    ("ref.bibfs_spg_us", "us"),
    ("ref.qbs_over_bibfs", "ratio"),
    ("engine.submit_us", "us"),
    ("engine.efficiency", "frac"),
    ("plan.dedup_frac", "frac"),
    ("plan.labels_memoized_per_batch", "count"),
    ("plan.fwd_levels_reused_per_batch", "count"),
    ("cache.hit_ratio", "frac"),
    ("cache.evictions_per_req", "count"),
    ("cache.lookup_ns", "ns"),
    ("server.ping_us", "us"),
    ("server.residual_us", "us"),
    ("wire.encode_reply_us", "us"),
    ("server.shed_frac", "frac"),
    ("router.hop_us", "us"),
    ("router.subbatches_per_batch", "count"),
    ("router.retries", "count"),
    ("router.unavailable_slots", "count"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_frac", "frac"),
];

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

fn dataset(id: DatasetId) -> Graph {
    Catalog::paper_table1()
        .get(id)
        .expect("the paper catalog lists every dataset")
        .generate(Scale::Large)
}

fn config() -> QbsConfig {
    QbsConfig::with_landmark_count(LANDMARKS)
}

/// SplitMix64: the request-mode draws of the stream.
struct Mix(u64);

impl Mix {
    fn next_frac(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Requests over `pairs`, each a `Distance` request with probability
/// `dist_share` and a `PathGraph` request otherwise.
fn requests(pairs: &[(VertexId, VertexId)], dist_share: f64, seed: u64) -> Vec<QueryRequest> {
    let mut mix = Mix(seed ^ 0x6D6F_6465);
    pairs
        .iter()
        .map(|&(s, t)| {
            let mode = if mix.next_frac() < dist_share {
                QueryMode::Distance
            } else {
                QueryMode::PathGraph
            };
            QueryRequest::new(s, t, mode)
        })
        .collect()
}

fn stream(graph: &Graph, pairs: &[(VertexId, VertexId)], reqs: Vec<QueryRequest>) -> Stream {
    Stream {
        requests: reqs,
        oracle: Oracle::for_pairs(graph, pairs),
    }
}

fn median_s(mut v: Vec<f64>) -> f64 {
    median(&mut v)
}

// ---------------------------------------------------------------------------
// Serving set-up
// ---------------------------------------------------------------------------

/// The mapped index file of a served workload; removed on drop.
struct IndexFile(PathBuf);

impl Drop for IndexFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn connect(addr: &str) -> Result<QbsClient, String> {
    QbsClient::connect_retry(addr, Duration::from_secs(10)).map_err(|e| format!("{addr}: {e}"))
}

/// Builds the index and saves it as a v2 file.
fn build_and_save(
    graph: &Graph,
    path: &Path,
    log: &mut SpanLog<'_>,
) -> Result<(QbsIndex, IndexFile), String> {
    let index = QbsIndex::try_build(graph.clone(), config()).map_err(|e| e.to_string())?;
    let span = log.open("store.save", 0, 0);
    serialize::save_to_file_with(&index, path, IndexFormat::Binary).map_err(|e| e.to_string())?;
    log.close(span, 1);
    Ok((index, IndexFile(path.to_path_buf())))
}

fn open_mmap(path: &Path, log: &mut SpanLog<'_>) -> Result<Qbs, String> {
    let span = log.open("store.open", 0, 0);
    let qbs = Qbs::open(path, MapMode::Mmap).map_err(|e| e.to_string())?;
    log.close(span, 1);
    Ok(qbs)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs only)
// ---------------------------------------------------------------------------

/// Times the layer functions of an index build one by one.
fn probe_build(graph: &Graph, trace: &Trace, report: &mut Report) {
    let mut log = trace.log();
    let root = log.open("build", 0, 0);
    let span = log.open("build.landmark", root.id, 0);
    let landmarks = config().landmarks.select(graph);
    log.close(span, 1);
    let span = log.open("build.labelling", root.id, 0);
    let scheme = qbs_core::parallel::build_parallel(graph, &landmarks);
    log.close(span, 1);
    let span = log.open("build.meta_graph", root.id, 0);
    black_box(MetaGraph::build(graph, &landmarks, &scheme.meta_edges));
    log.close(span, 1);
    log.close(root, 1);
    report.put(
        "build.label_entries",
        scheme.labelling.total_entries() as f64,
        "count",
    );
}

/// Index sizes and label-fill cost on all three backends.
fn probe_storage(index: &QbsIndex, endpoints: &[VertexId], trace: &Trace, report: &mut Report) {
    let s = index.stats();
    let owned = s.labelling_memory_bytes + s.delta_bytes + s.meta_graph_bytes + s.graph_bytes;
    report.put("index.owned_bytes", owned as f64, "bytes");
    let v2 = index.to_v2_bytes().expect("v2 encoding of a built index");
    report.put("index.v2_bytes", v2.len() as f64, "bytes");
    let v3 = index.to_v3_bytes().expect("v3 encoding of a built index");
    report.put("index.v3_bytes", v3.len() as f64, "bytes");
    let view = ViewStore::new(index.as_view());
    let compact = CompactStore::new(
        index
            .as_compact_view()
            .expect("a built index has a v3 encoding"),
    );
    let mut log = trace.log();
    for rep in 0..5 {
        fill_labels(index, "store.label.owned", endpoints, rep, &mut log);
        fill_labels(&view, "store.label.view", endpoints, rep, &mut log);
        fill_labels(&compact, "store.label.compact", endpoints, rep, &mut log);
    }
}

fn fill_labels<S: IndexStore>(
    store: &S,
    name: &'static str,
    endpoints: &[VertexId],
    rep: u64,
    log: &mut SpanLog<'_>,
) {
    let mut buf = Vec::new();
    let span = log.open(name, 0, rep);
    for &v in endpoints {
        store.fill_effective_label(v, &mut buf);
        black_box(&buf);
    }
    log.close(span, endpoints.len() as u64);
}

/// One query at a time through the sketch and search layers, with the
/// paper's §6.5 work counters, and plain Bi-BFS on the same pairs.
fn probe_search<S: IndexStore>(
    store: &S,
    graph: &Graph,
    stream: &Stream,
    trace: &Trace,
    report: &mut Report,
) {
    let mut log = trace.log();
    let mut ws = QueryWorkspace::for_vertices(store.num_vertices());
    let (mut src, mut tgt) = (Vec::new(), Vec::new());
    let (mut edges, mut settled, mut reverse, mut recover) = (0u64, 0u64, 0u64, 0u64);
    let n = PROBE_PAIRS.min(stream.requests.len());
    for (slot, r) in stream.requests[..n].iter().enumerate() {
        let (s, t, key) = (r.source, r.target, slot as u64);
        let q = log.open("query.spg", 0, key);
        let span = log.open("sketch", q.id, key);
        let sketch = sketch_on(store, s, t).expect("stream endpoints are in range");
        log.close(span, 1);
        let span = log.open("search.spg", q.id, key);
        let (pg, st) = guided_search_with(store, &mut ws, s, t, &sketch);
        log.close(span, 1);
        log.close(q, 1);
        edges += st.edges_traversed as u64;
        settled += st.vertices_settled as u64;
        reverse += u64::from(st.used_reverse_search);
        recover += u64::from(st.used_recover_search);

        let q = log.open("query.dist", 0, key);
        let span = log.open("sketch.bounds", q.id, key);
        store.fill_effective_label(s, &mut src);
        store.fill_effective_label(t, &mut tgt);
        let bounds = compute_bounds(store, &src, &tgt);
        log.close(span, 1);
        let span = log.open("search.dist", q.id, key);
        let (d, _) = guided_distance_with(store, &mut ws, s, t, &bounds);
        log.close(span, 1);
        log.close(q, 1);

        let pg_outcome = qbs_core::QueryOutcome::PathGraph(Box::new(pg));
        let d_outcome = qbs_core::QueryOutcome::Distance(d);
        for outcome in [pg_outcome, d_outcome] {
            if !stream.oracle.matches(slot, &outcome) {
                report.mismatches += 1;
                report.failed += 1;
            }
        }

        let span = log.open("ref.bibfs_spg", 0, key);
        black_box(qbs_baselines::bibfs_spg::compute(graph, s, t));
        log.close(span, 1);
    }
    let q = n.max(1) as f64;
    report.put("search.edges_per_q", edges as f64 / q, "count");
    report.put("search.settled_per_q", settled as f64 / q, "count");
    report.put("search.reverse_frac", reverse as f64 / q, "frac");
    report.put("search.recover_frac", recover as f64 / q, "frac");
}

/// Whole batches through `Qbs::submit` against the same requests one by
/// one through `Qbs::execute`, uncached so both do the same work.
fn probe_engine(qbs: &Qbs, stream: &Stream, batch: usize, trace: &Trace) {
    let mut log = trace.log();
    for k in 0..PROBE_BATCHES {
        let reqs = uncached(stream, batch, k);
        let span = log.open("engine.submit", 0, k as u64);
        black_box(qbs.submit(&reqs));
        log.close(span, 1);
        for r in &reqs {
            let span = log.open("engine.execute", 0, k as u64);
            black_box(qbs.execute(r));
            log.close(span, 1);
        }
    }
}

fn uncached(stream: &Stream, batch: usize, k: usize) -> Vec<QueryRequest> {
    let first = (k * batch) % stream.requests.len();
    stream.requests[first..first + batch]
        .iter()
        .map(|r| r.uncached())
        .collect()
}

/// Ping, the closed-loop round trip against the in-process submit of the
/// same uncached batch on the same session, and reply encoding.
fn probe_server(
    client: &mut QbsClient,
    qbs: &Qbs,
    stream: &Stream,
    batch: usize,
    trace: &Trace,
) -> Result<(), String> {
    let mut log = trace.log();
    for k in 0..PROBE_BATCHES {
        let span = log.open("server.ping", 0, k as u64);
        client.ping().map_err(|e| e.to_string())?;
        log.close(span, 1);
    }
    let mut buf = Vec::new();
    for k in 0..PROBE_BATCHES {
        let reqs = uncached(stream, batch, k);
        let span = log.open("server.roundtrip", 0, k as u64);
        client.call(&reqs)?;
        log.close(span, 1);
        let span = log.open("server.inproc", 0, k as u64);
        let outcomes = qbs.submit(&reqs);
        log.close(span, 1);
        let frame = ResponseFrame::Batch(outcomes);
        buf.clear();
        let span = log.open("wire.encode", 0, k as u64);
        protocol::write_response_v3(&mut buf, RequestId(k as u32 + 1), TraceId::NONE, &frame)
            .map_err(|e| e.to_string())?;
        log.close(span, 1);
    }
    Ok(())
}

/// Times `AnswerCache::lookup` on the live cache over the stream's
/// requests (after the load phases, so hits and misses both occur).
fn probe_cache(qbs: &Qbs, stream: &Stream, trace: &Trace) {
    let Some(cache) = qbs.cache() else { return };
    let mut log = trace.log();
    let reqs = &stream.requests[..stream.requests.len().min(8_192)];
    for rep in 0..5 {
        let span = log.open("cache.lookup", 0, rep);
        for r in reqs {
            black_box(cache.lookup(r));
        }
        log.close(span, reqs.len() as u64);
    }
}

/// Routed against direct round trips of the same uncached batch, one
/// batch in flight.
fn probe_router(
    routed: &mut QbsClient,
    direct: &mut QbsClient,
    stream: &Stream,
    batch: usize,
    trace: &Trace,
) -> Result<(), String> {
    let mut log = trace.log();
    for k in 0..PROBE_BATCHES {
        let reqs = uncached(stream, batch, k);
        let span = log.open("router.roundtrip", 0, k as u64);
        routed.call(&reqs)?;
        log.close(span, 1);
        let span = log.open("replica.roundtrip", 0, k as u64);
        direct.call(&reqs)?;
        log.close(span, 1);
    }
    Ok(())
}

/// Per-layer metrics derived from the spans: self time per layer, and
/// medians of the round-trip spans.
fn layer_times(trace: &Trace, report: &mut Report, threads: usize) {
    let selfs = trace.self_times();
    let per_op = |name: &str| selfs.get(name).map_or(0.0, |s| s.per_op_ns());
    let total_s = |name: &str| selfs.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e9);
    if selfs.contains_key("build") {
        report.put("build.landmark_s", total_s("build.landmark"), "s");
        report.put("build.labelling_s", total_s("build.labelling"), "s");
        report.put("build.meta_graph_s", total_s("build.meta_graph"), "s");
    }
    if selfs.contains_key("store.save") {
        report.put(
            "store.save_s",
            total_s("store.save") / selfs["store.save"].spans as f64,
            "s",
        );
        report.put(
            "store.open_s",
            total_s("store.open") / selfs["store.open"].spans as f64,
            "s",
        );
    }
    report.put("store.label_ns.owned", per_op("store.label.owned"), "ns");
    report.put("store.label_ns.view", per_op("store.label.view"), "ns");
    report.put(
        "store.label_ns.compact",
        per_op("store.label.compact"),
        "ns",
    );
    let sketch_us = per_op("sketch") / 1e3;
    let spg_us = per_op("search.spg") / 1e3;
    let bibfs_us = per_op("ref.bibfs_spg") / 1e3;
    report.put("sketch.us", sketch_us, "us");
    report.put("search.spg_us", spg_us, "us");
    report.put("search.dist_us", per_op("search.dist") / 1e3, "us");
    report.put("ref.bibfs_spg_us", bibfs_us, "us");
    report.put(
        "ref.qbs_over_bibfs",
        stats::ratio(sketch_us + spg_us, bibfs_us),
        "ratio",
    );
    if let (Some(submit), Some(exec)) = (selfs.get("engine.submit"), selfs.get("engine.execute")) {
        report.put("engine.submit_us", median_us(trace, "engine.submit"), "us");
        report.put(
            "engine.efficiency",
            stats::ratio(exec.self_ns as f64, threads as f64 * submit.self_ns as f64),
            "frac",
        );
    }
    report.put("cache.lookup_ns", per_op("cache.lookup"), "ns");
    if selfs.contains_key("server.ping") {
        report.put("server.ping_us", median_us(trace, "server.ping"), "us");
        report.put(
            "server.residual_us",
            median_us(trace, "server.roundtrip") - median_us(trace, "server.inproc"),
            "us",
        );
        report.put(
            "wire.encode_reply_us",
            median_us(trace, "wire.encode"),
            "us",
        );
    }
    if selfs.contains_key("router.roundtrip") {
        report.put(
            "router.hop_us",
            median_us(trace, "router.roundtrip") - median_us(trace, "replica.roundtrip"),
            "us",
        );
    }
}

fn median_us(trace: &Trace, name: &str) -> f64 {
    median(&mut trace.durations_ns(name)) / 1e3
}

/// Planner and cache counters over a span of serving.
fn engine_deltas(before: &EngineStats, after: &EngineStats, report: &mut Report) {
    let requests = (after.requests - before.requests) as f64;
    let batches = (after.batches - before.batches) as f64;
    let p = (&after.planner, &before.planner);
    report.put(
        "plan.dedup_frac",
        stats::ratio((p.0.dedup_hits - p.1.dedup_hits) as f64, requests),
        "frac",
    );
    report.put(
        "plan.labels_memoized_per_batch",
        stats::ratio((p.0.labels_memoized - p.1.labels_memoized) as f64, batches),
        "count",
    );
    report.put(
        "plan.fwd_levels_reused_per_batch",
        stats::ratio(
            (p.0.fwd_levels_reused - p.1.fwd_levels_reused) as f64,
            batches,
        ),
        "count",
    );
    if let (Some(a), Some(b)) = (after.cache, before.cache) {
        let lookups = ((a.hits + a.misses) - (b.hits + b.misses)) as f64;
        report.put(
            "cache.hit_ratio",
            stats::ratio((a.hits - b.hits) as f64, lookups),
            "frac",
        );
        report.put(
            "cache.evictions_per_req",
            stats::ratio((a.evictions - b.evictions) as f64, requests),
            "count",
        );
    }
}

fn sum_stats(sessions: &[&Qbs]) -> EngineStats {
    let mut total = EngineStats::default();
    for s in sessions {
        let e = s.engine_stats();
        total.requests += e.requests;
        total.batches += e.batches;
        total.planner.dedup_hits += e.planner.dedup_hits;
        total.planner.labels_memoized += e.planner.labels_memoized;
        total.planner.fwd_levels_reused += e.planner.fwd_levels_reused;
        if let Some(c) = e.cache {
            let t = total.cache.get_or_insert_with(Default::default);
            t.hits += c.hits;
            t.misses += c.misses;
            t.evictions += c.evictions;
        }
    }
    total
}

/// Runs `window` alternately untraced and traced and reports the traced
/// windows' mean batch latency over the untraced ones', less one.
fn traced_windows(
    traced: &Trace,
    report: &mut Report,
    mut window: impl FnMut(&Trace) -> Phase,
) -> Phase {
    let untraced = Trace::new(false);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut all = Phase::default();
    for w in 0..TRACE_WINDOWS {
        let phase = window(if w % 2 == 0 { &untraced } else { traced });
        let lat = phase.mean_us();
        if w % 2 == 0 {
            off.push(lat)
        } else {
            on.push(lat)
        }
        report.count(&format!("trace window {w}"), &phase);
        all.lat_us.extend(phase.lat_us);
        all.late_us.extend(phase.late_us);
    }
    report.put(
        "trace.overhead_frac",
        stats::ratio(median(&mut on), median(&mut off)) - 1.0,
        "frac",
    );
    all
}

// ---------------------------------------------------------------------------
// spg-uniform
// ---------------------------------------------------------------------------

/// In-process `Qbs::build` on the YouTube stand-in; uniform `PathGraph`
/// requests in 64-request batches from one closed-loop caller.
pub fn spg_uniform(run: &Run) -> Result<Report, String> {
    const POOL: usize = 16_384;
    const BATCH: usize = 64;
    let mut report = Report::default();
    report.zero_layers(LAYER_METRICS);
    let graph = dataset(DatasetId::Youtube);
    let trace = Trace::new(run.trace);

    let mut setups = Vec::new();
    let mut qbs = None;
    for _ in 0..SETUP_REPS {
        let g = graph.clone();
        let t = Instant::now();
        let built = Qbs::build(g, config())
            .and_then(|q| q.with_threads(run.nproc))
            .map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        qbs = Some(built);
    }
    let qbs = qbs.expect("at least one set-up");
    let index = qbs.index().expect("a built session is owned");
    report.put("setup_s", median_s(setups), "s");
    report.put(
        "index_bytes",
        index.to_v2_bytes().map_err(|e| e.to_string())?.len() as f64,
        "bytes",
    );

    let workload = QueryWorkload::sample(&graph, POOL, run.seed);
    let pairs = workload.pairs();
    let reqs = pairs
        .iter()
        .map(|&(s, t)| QueryRequest::path_graph(s, t))
        .collect();
    let stream = stream(&graph, pairs, reqs);
    let paths = Mutex::new(PathSample::new(PATH_SLOTS));
    let next = AtomicUsize::new(0);
    let off = Trace::new(false);
    let load = Load {
        stream: &stream,
        batch: BATCH,
        next: &next,
        paths: &paths,
        trace: &off,
        span: "engine.submit.load",
    };
    let callers = || vec![&qbs];
    load.closed(callers(), WARMUP);

    if run.trace {
        traced_windows(&trace, &mut report, |t| {
            let d = Load { trace: t, ..load };
            d.closed(callers(), run.share(0.5 / TRACE_WINDOWS as f64))
        });
        probe_build(&graph, &trace, &mut report);
        let endpoints: Vec<VertexId> = pairs[..PROBE_PAIRS]
            .iter()
            .flat_map(|&(s, t)| [s, t])
            .collect();
        probe_storage(index, &endpoints, &trace, &mut report);
        probe_search(index, &graph, &stream, &trace, &mut report);
        probe_engine(&qbs, &stream, BATCH, &trace);
        layer_times(&trace, &mut report, qbs.threads());
    } else {
        let [phase] = interleave(run, CLOSED_SLICES, [1.0], |_, slice| {
            load.closed(callers(), slice)
        });
        closed_metrics(&phase, &mut report);
    }
    report.check_paths(&graph, &paths);
    finish(run, &trace, report)
}

/// Runs each load level in `rounds` interleaved slices, each level taking
/// `shares` of the run, so that every level samples the whole run rather
/// than one stretch of it.
fn interleave<const N: usize>(
    run: &Run,
    rounds: usize,
    shares: [f64; N],
    mut slice: impl FnMut(usize, Duration) -> Phase,
) -> [Phase; N] {
    let mut phases: [Phase; N] = std::array::from_fn(|_| Phase::default());
    for _ in 0..rounds {
        for (level, share) in shares.iter().enumerate() {
            phases[level].absorb_slice(slice(level, run.share(share / rounds as f64)));
        }
    }
    phases
}

/// End-to-end metrics of a closed-loop workload, and its phase note.
fn closed_metrics(phase: &Phase, report: &mut Report) {
    report.count("closed loop", phase);
    report.put("rps", phase.rps(), "1/s");
    report.put("lat_p50_us", phase.p50_us(), "us");
    report.put("lat_p99_us", phase.p99_us(), "us");
}

fn finish(run: &Run, trace: &Trace, mut report: Report) -> Result<Report, String> {
    if run.trace {
        let path = run
            .work_dir
            .join(format!("spans-{}-seed{}.tsv", run.workload, run.seed));
        trace.write_tsv(&path).map_err(|e| e.to_string())?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// dist-zipf-served
// ---------------------------------------------------------------------------

/// A running server and its session (kept for counters and in-process
/// comparisons).
struct Served {
    server: ServerHandle,
    qbs: Arc<Qbs>,
    addr: String,
}

/// The Douban stand-in saved as v2, mapped, and served over loopback with
/// the default answer cache; Zipf-1.2 pairs, 90 % `Distance`; an open loop
/// at three fixed rates plus a bisection over the rate ladder.
pub fn dist_zipf_served(run: &Run) -> Result<Report, String> {
    const BATCH: usize = 16;
    const RATES: [f64; 3] = [8_000.0, 16_000.0, 32_000.0];
    const LIMIT: Duration = Duration::from_millis(5);
    const PROBES: usize = 6;
    let mut report = Report::default();
    report.zero_layers(LAYER_METRICS);
    let graph = dataset(DatasetId::Douban);
    let trace = Trace::new(run.trace);
    let mut log = trace.log();
    let path = run.work_dir.join(format!("do-{}.qbs", std::process::id()));

    let mut setups = Vec::new();
    let mut kept: Option<(Served, QbsIndex, IndexFile)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((mut old, ..)) = kept.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        let (index, file) = build_and_save(&graph, &path, &mut log)?;
        let qbs = Arc::new(open_mmap(&path, &mut log)?.with_cache(CacheConfig::default()));
        let server = QbsServer::start(Arc::clone(&qbs), ServerConfig::bind("127.0.0.1:0"))
            .map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        connect(&addr)?.ping().map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        kept = Some((Served { server, qbs, addr }, index, file));
    }
    drop(log);
    let (mut served, index, file) = kept.expect("at least one set-up");
    report.put("setup_s", median_s(setups), "s");
    report.put("index_bytes", file_len(&file.0), "bytes");

    // Enough stream for every phase at its rate, so the cache sees a
    // fresh Zipf stream rather than a replay.
    let total_s = run.seconds + WARMUP.as_secs_f64();
    let len = ((total_s * 50_000.0) as usize / BATCH + 1) * BATCH;
    let workload = QueryWorkload::sample_zipf(&graph, len, run.seed, 1.2);
    let pairs = workload.pairs();
    let stream = stream(&graph, pairs, requests(pairs, 0.9, run.seed));
    let paths = Mutex::new(PathSample::new(PATH_SLOTS));
    let mut clients = (0..run.nproc)
        .map(|_| connect(&served.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let off = Trace::new(false);
    let next = AtomicUsize::new(0);
    let load = Load {
        stream: &stream,
        batch: BATCH,
        next: &next,
        paths: &paths,
        trace: &off,
        span: "client.submit.load",
    };
    load.open(conns(&mut clients), RATES[0], WARMUP, LIMIT);

    if run.trace {
        let before = served.qbs.engine_stats();
        let adm_before = served.server.stats().admission;
        let mid = traced_windows(&trace, &mut report, |t| {
            let d = Load { trace: t, ..load };
            d.open(
                conns(&mut clients),
                RATES[1],
                run.share(0.5 / TRACE_WINDOWS as f64),
                LIMIT,
            )
        });
        report.put(
            "gen.late_p99_us",
            stats::quantile(&mut mid.late_us.clone(), 0.99),
            "us",
        );
        engine_deltas(&before, &served.qbs.engine_stats(), &mut report);
        shed(&adm_before, &served.server.stats().admission, &mut report);
        probe_build(&graph, &trace, &mut report);
        let endpoints: Vec<VertexId> = pairs[..PROBE_PAIRS]
            .iter()
            .flat_map(|&(s, t)| [s, t])
            .collect();
        probe_storage(&index, &endpoints, &trace, &mut report);
        let view = served
            .qbs
            .view_store()
            .ok_or("a mapped v2 file is served through a view")?;
        probe_search(view, &graph, &stream, &trace, &mut report);
        probe_engine(&served.qbs, &stream, BATCH, &trace);
        probe_cache(&served.qbs, &stream, &trace);
        probe_server(&mut clients[0], &served.qbs, &stream, BATCH, &trace)?;
        layer_times(&trace, &mut report, served.qbs.threads());
    } else {
        let adm_before = served.server.stats().admission;
        let phases = interleave(run, OPEN_SLICES, [0.15, 0.25, 0.15], |level, slice| {
            load.open(conns(&mut clients), RATES[level], slice, LIMIT)
        });
        for (p, level) in phases.iter().zip(["low", "mid", "high"]) {
            report.count(level, p);
        }
        let [low, mid, high] = &phases;
        report.put("rps", mid.rps(), "1/s");
        report.put("lat_p50_us", mid.p50_us(), "us");
        report.put("lat_p99_us", mid.p99_us(), "us");
        report.put("lat_p50_us.low", low.p50_us(), "us");
        report.put("lat_p99_us.low", low.p99_us(), "us");
        report.put("lat_p50_us.high", high.p50_us(), "us");
        report.put("lat_p99_us.high", high.p99_us(), "us");

        // Bisection over a fixed geometric ladder of rates above the
        // highest fixed rate that met the limit.
        let meets = |p: &Phase| p.failed == 0 && !p.backlog_grew && p.p99_us() <= us(LIMIT);
        let ladder: Vec<f64> = (0..=64).map(|i| 4_000.0 * 1.05f64.powi(i)).collect();
        let mut best = phases
            .iter()
            .filter(|p| meets(p))
            .map(Phase::rps)
            .fold(0.0, f64::max);
        let floor = RATES
            .iter()
            .zip(&phases)
            .filter(|(_, p)| meets(p))
            .map(|(r, _)| *r)
            .fold(0.0, f64::max);
        let (mut lo, mut hi) = (ladder.partition_point(|&r| r <= floor), ladder.len());
        for _ in 0..PROBES {
            if lo >= hi {
                break;
            }
            let m = (lo + hi) / 2;
            let mut p = Phase::default();
            for _ in 0..OPEN_SLICES {
                let slice = run.share(0.45 / (PROBES * OPEN_SLICES) as f64);
                p.absorb_slice(load.open(conns(&mut clients), ladder[m], slice, LIMIT));
            }
            report.count(&format!("ladder {:.0} req/s", ladder[m]), &p);
            if meets(&p) {
                best = best.max(p.rps());
                lo = m + 1;
            } else {
                hi = m;
            }
        }
        report.put("max_rps_p99", best, "1/s");
        shed(&adm_before, &served.server.stats().admission, &mut report);
    }
    drop(clients);
    report.check_paths(&graph, &paths);
    served.server.shutdown();
    drop(file);
    finish(run, &trace, report)
}

/// Every connection, as a caller.
fn conns(clients: &mut [QbsClient]) -> Vec<&mut QbsClient> {
    clients.iter_mut().collect()
}

fn shed(
    before: &qbs_server::AdmissionStats,
    after: &qbs_server::AdmissionStats,
    report: &mut Report,
) {
    let shed = |a: &qbs_server::AdmissionStats| a.shed_overload + a.shed_batch_size;
    let offered = (after.admitted_batches - before.admitted_batches) + (shed(after) - shed(before));
    report.put(
        "server.shed_frac",
        stats::ratio((shed(after) - shed(before)) as f64, offered as f64),
        "frac",
    );
}

// ---------------------------------------------------------------------------
// mixed-uniform-routed
// ---------------------------------------------------------------------------

/// The Douban v2 file opened by two one-worker, one-thread replica servers
/// behind a router; uniform pairs, half `Distance`, 32-request batches in
/// a closed loop from two connections per core.
pub fn mixed_uniform_routed(run: &Run) -> Result<Report, String> {
    const BATCH: usize = 32;
    const POOL: usize = 65_536;
    /// Connections per core. With one per core the cores idle between
    /// round trips, and every wake-up of an idle virtual core waits on
    /// the host: on a 2-vCPU machine the run-to-run IQR of `lat_p99_us`
    /// was 0.6 of its median with one connection per core and 0.25 with
    /// two.
    const CONNS_PER_CORE: usize = 2;
    /// Rate and backlog latency limit of the traced run's open-loop window.
    const OPEN_RATE: f64 = 8_000.0;
    const LIMIT: Duration = Duration::from_millis(25);
    let mut report = Report::default();
    report.zero_layers(LAYER_METRICS);
    let graph = dataset(DatasetId::Douban);
    let trace = Trace::new(run.trace);
    let mut log = trace.log();
    let path = run.work_dir.join(format!("do-{}.qbs", std::process::id()));

    let mut setups = Vec::new();
    let mut kept: Option<(RouterHandle, Vec<Served>, QbsIndex, IndexFile)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((mut router, mut replicas, ..)) = kept.take() {
            router.shutdown();
            for r in &mut replicas {
                r.server.shutdown();
            }
        }
        let t = Instant::now();
        let (index, file) = build_and_save(&graph, &path, &mut log)?;
        let mut replicas = Vec::new();
        for _ in 0..2 {
            let qbs = open_mmap(&path, &mut log)?
                .with_threads(1)
                .map_err(|e| e.to_string())?
                .with_cache(CacheConfig::default());
            let qbs = Arc::new(qbs);
            let server = QbsServer::start(
                Arc::clone(&qbs),
                ServerConfig::bind("127.0.0.1:0").workers(1),
            )
            .map_err(|e| e.to_string())?;
            let addr = server.local_addr().to_string();
            replicas.push(Served { server, qbs, addr });
        }
        let router = QbsRouter::start(
            RouterConfig::bind("127.0.0.1:0")
                .replicas(replicas.iter().map(|r| r.addr.clone()).collect()),
        )
        .map_err(|e| e.to_string())?;
        connect(&router.local_addr().to_string())?
            .ping()
            .map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        kept = Some((router, replicas, index, file));
    }
    drop(log);
    let (mut router, mut replicas, index, file) = kept.expect("at least one set-up");
    report.put("setup_s", median_s(setups), "s");
    report.put("index_bytes", file_len(&file.0), "bytes");

    let workload = QueryWorkload::sample(&graph, POOL, run.seed);
    let pairs = workload.pairs();
    let stream = stream(&graph, pairs, requests(pairs, 0.5, run.seed));
    let paths = Mutex::new(PathSample::new(PATH_SLOTS));
    let raddr = router.local_addr().to_string();
    let mut clients = (0..CONNS_PER_CORE * run.nproc)
        .map(|_| connect(&raddr))
        .collect::<Result<Vec<_>, _>>()?;
    let off = Trace::new(false);
    let next = AtomicUsize::new(0);
    let load = Load {
        stream: &stream,
        batch: BATCH,
        next: &next,
        paths: &paths,
        trace: &off,
        span: "router.submit.load",
    };
    load.closed(conns(&mut clients), WARMUP);
    let sessions = |r: &Vec<Served>| sum_stats(&r.iter().map(|s| &*s.qbs).collect::<Vec<_>>());

    let before = sessions(&replicas);
    let rs_before = router.router_stats();
    if run.trace {
        let adm_before = replicas[0].server.stats().admission;
        traced_windows(&trace, &mut report, |t| {
            let d = Load { trace: t, ..load };
            d.closed(conns(&mut clients), run.share(0.5 / TRACE_WINDOWS as f64))
        });
        engine_deltas(&before, &sessions(&replicas), &mut report);
        shed(
            &adm_before,
            &replicas[0].server.stats().admission,
            &mut report,
        );
        router_deltas(&rs_before, &router.router_stats(), &mut report);
        // The open-loop generator's own lateness, at a rate well inside
        // what the closed loop completes.
        let open = load.open(conns(&mut clients), OPEN_RATE, run.share(0.1), LIMIT);
        report.count("open loop", &open);
        report.put(
            "gen.late_p99_us",
            stats::quantile(&mut open.late_us.clone(), 0.99),
            "us",
        );
        probe_build(&graph, &trace, &mut report);
        let endpoints: Vec<VertexId> = pairs[..PROBE_PAIRS]
            .iter()
            .flat_map(|&(s, t)| [s, t])
            .collect();
        probe_storage(&index, &endpoints, &trace, &mut report);
        let view = replicas[0]
            .qbs
            .view_store()
            .ok_or("a mapped v2 file is served through a view")?;
        probe_search(view, &graph, &stream, &trace, &mut report);
        probe_engine(&replicas[0].qbs, &stream, BATCH, &trace);
        probe_cache(&replicas[0].qbs, &stream, &trace);
        let mut direct = connect(&replicas[0].addr)?;
        probe_server(&mut direct, &replicas[0].qbs, &stream, BATCH, &trace)?;
        probe_router(&mut clients[0], &mut direct, &stream, BATCH, &trace)?;
        layer_times(&trace, &mut report, replicas[0].qbs.threads());
    } else {
        let [phase] = interleave(run, CLOSED_SLICES, [1.0], |_, slice| {
            load.closed(conns(&mut clients), slice)
        });
        closed_metrics(&phase, &mut report);
        router_deltas(&rs_before, &router.router_stats(), &mut report);
        engine_deltas(&before, &sessions(&replicas), &mut report);
    }
    drop(clients);
    report.check_paths(&graph, &paths);
    router.shutdown();
    for r in &mut replicas {
        r.server.shutdown();
    }
    drop(file);
    finish(run, &trace, report)
}

fn router_deltas(
    before: &qbs_core::RouterStats,
    after: &qbs_core::RouterStats,
    report: &mut Report,
) {
    report.put(
        "router.subbatches_per_batch",
        stats::ratio(
            (after.subbatches - before.subbatches) as f64,
            (after.batches_routed - before.batches_routed) as f64,
        ),
        "count",
    );
    report.put(
        "router.retries",
        (after.retries - before.retries) as f64,
        "count",
    );
    report.put(
        "router.unavailable_slots",
        (after.unavailable_slots - before.unavailable_slots) as f64,
        "count",
    );
}
