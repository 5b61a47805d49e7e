//! Per-layer metrics of a traced run. Each is timed around calls into
//! one layer's public functions from outside the program, on the
//! database the workload just served; `extpack` runs on a database of
//! `bulk_load`'s size when the served one is larger.

use crate::data::{self, Class, Shape, FIGURE2, KNN_K, PICTURE};
use crate::gate::Gate;
use crate::host::nproc;
use crate::stats::{median, Metrics};
use crate::trace::Tracer;
use crate::workloads::{stream, streams, Params, INSERTS_IN_FLIGHT, PACK_BUDGET};
use psql::database::PictorialDatabase;
use psql::functions::FunctionRegistry;
use psql::{InsertRecord, SpatialOp};
use psql_server::SnapshotCell;
use rand::Rng;
use rtree_geom::{Point, Rect, SpatialObject};
use rtree_index::{RTreeConfig, SearchScratch, SearchStats};
use rtree_storage::{Pager, Wal};
use std::sync::Arc;
use std::time::Instant;

/// Reads of the workload's stream replayed in process.
pub const REPLAY_READS: usize = 3000;
/// `SnapshotCell::update` calls timed.
pub const PUBLISH_REPEATS: usize = 3;
/// Insert records appended to the scratch WAL.
pub const WAL_RECORDS: usize = 256;
/// Delta inserts folded by the timed `merge_deltas`.
pub const MERGE_DELTA: usize = 128;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

#[derive(Default)]
struct ClassTimes {
    parse: Vec<f64>,
    plan: Vec<f64>,
    execute: Vec<f64>,
    rows: usize,
    search: Vec<f64>,
    materialize: Vec<f64>,
    stats: SearchStats,
}

/// Replays the first `REPLAY_READS` reads of reader 0's stream through
/// `parse_query`, `plan::plan` and `exec::execute_plan_with_scratch`,
/// then the same windows through `Picture::search_window` / `nearest`
/// with `SearchStats`. Returns the median in-process parse+plan+execute
/// time in µs.
fn replay(
    db: &PictorialDatabase,
    p: &Params,
    out: &mut Metrics,
    gate: &mut Gate,
    tracer: &mut Tracer,
) -> f64 {
    let functions = FunctionRegistry::with_builtins();
    let mut scratch = SearchScratch::new();
    let mut rng = stream(p.seed, streams::READER);
    let mut classes: [ClassTimes; 4] = Default::default();
    let mut front_to_back = Vec::with_capacity(REPLAY_READS);
    let figure2 = Rect::new(65.0, 5.0, 100.0, 45.0);
    let (Ok(pts), Ok(usmap)) = (db.picture(PICTURE), db.picture("us-map")) else {
        gate.fail("replay: pictures missing");
        return 0.0;
    };
    for i in 0..REPLAY_READS as u64 {
        let read = data::next_read(&mut rng, &p.expected);
        let c = &mut classes[read.class as usize];
        tracer.begin("psql.query", i);
        let t = Instant::now();
        let parsed = tracer.span("psql.parse", i, || psql::parse_query(&read.text));
        let parse_us = us(t);
        let Ok(query) = parsed else {
            tracer.end();
            gate.fail(format!("replay parse: {}", read.text));
            continue;
        };
        let t = Instant::now();
        let planned = tracer.span("psql.plan", i, || psql::plan::plan(db, &query));
        let plan_us = us(t);
        let Ok(plan) = planned else {
            tracer.end();
            gate.fail(format!("replay plan: {}", read.text));
            continue;
        };
        let t = Instant::now();
        let executed = tracer.span("psql.execute", i, || {
            psql::exec::execute_plan_with_scratch(db, &plan, &functions, &mut scratch)
        });
        let execute_us = us(t);
        tracer.end();
        match executed {
            Ok(result) => c.rows += result.len(),
            Err(e) => gate.fail(format!("replay execute: {e}")),
        }
        c.parse.push(parse_us);
        c.plan.push(plan_us);
        c.execute.push(execute_us);
        front_to_back.push(parse_us + plan_us + execute_us);

        let mut stats = SearchStats::default();
        let t = Instant::now();
        let searched = tracer.span("rtree.search", i, || match read.shape {
            Shape::Window(w) => Some(
                pts.search_window(SpatialOp::CoveredBy, &w, &mut stats)
                    .len(),
            ),
            Shape::Nearest(q) => Some(pts.nearest(q, KNN_K, &mut stats).len()),
            Shape::Fixed(_) if read.text == FIGURE2 => Some(
                usmap
                    .search_window(SpatialOp::CoveredBy, &figure2, &mut stats)
                    .len(),
            ),
            // The juxtaposition join runs no single-window search.
            Shape::Fixed(_) => None,
        });
        let search_us = us(t);
        if searched.is_some() {
            c.search.push(search_us);
            c.materialize.push(execute_us - search_us);
            c.stats.nodes_visited += stats.nodes_visited;
            c.stats.items_reported += stats.items_reported;
            c.stats.queries += stats.queries;
        }
    }
    for class in Class::ALL {
        let c = &classes[class as usize];
        let n = class.name();
        let queries = c.execute.len();
        out.put(
            format!("psql.parse_us.{n}"),
            median(&c.parse),
            "us",
            queries,
        );
        out.put(format!("psql.plan_us.{n}"), median(&c.plan), "us", queries);
        out.put(
            format!("psql.execute_us.{n}"),
            median(&c.execute),
            "us",
            queries,
        );
        out.put(
            format!("psql.rows.{n}"),
            ratio(c.rows as f64, queries as f64),
            "rows",
            queries,
        );
        out.put(
            format!("psql.materialize_us.{n}"),
            median(&c.materialize),
            "us",
            c.materialize.len(),
        );
        out.put(
            format!("rtree.search_us.{n}"),
            median(&c.search),
            "us",
            c.search.len(),
        );
        out.put(
            format!("rtree.nodes_visited.{n}"),
            c.stats.avg_nodes_visited(),
            "nodes",
            c.search.len(),
        );
        out.put(
            format!("rtree.results_per_node.{n}"),
            ratio(c.stats.items_reported as f64, c.stats.nodes_visited as f64),
            "items/node",
            c.search.len(),
        );
    }
    median(&front_to_back)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric of one workload. `rtt_p50_ms` is the untraced
/// client read p50 over the same stream; `server` is the served run's
/// registry (what `STATS` reports).
pub fn measure(
    db: &mut PictorialDatabase,
    p: &Params,
    rtt_p50_ms: f64,
    server: &psql_server::Metrics,
    out: &mut Metrics,
    gate: &mut Gate,
    tracer: &mut Tracer,
) {
    let in_process_us = replay(db, p, out, gate, tracer);

    out.put(
        "server.residual_us",
        rtt_p50_ms * 1e3 - in_process_us,
        "us",
        REPLAY_READS,
    );
    let q = &server.query_latency;
    out.put(
        "server.query_latency_p50_us",
        q.quantile_micros(0.5) as f64,
        "us",
        q.count() as usize,
    );
    let hits = (server.plan_cache_hits.get() + server.plan_cache_parse_hits.get()) as f64;
    let lookups = hits + server.plan_cache_misses.get() as f64;
    out.put(
        "server.plan_cache_hit_frac",
        ratio(hits, lookups),
        "frac",
        lookups as usize,
    );
    let queries = server.queries.get();
    out.put(
        "server.batched_frac",
        ratio(server.batched_queries.get() as f64, queries as f64),
        "frac",
        queries as usize,
    );
    out.put(
        "server.queue_high_water",
        server.queue_depth.high_water() as f64,
        "count",
        1,
    );

    // Snapshot publication: the whole-database clone every write pays.
    let mut rng = stream(p.seed, streams::LAYERS);
    let mut point = || Point::new(rng.gen_range(0.0..=1000.0), rng.gen_range(0.0..=1000.0));
    let cell = SnapshotCell::new(std::mem::replace(
        db,
        PictorialDatabase::new(RTreeConfig::PAPER),
    ));
    let mut publish = Vec::new();
    for i in 0..PUBLISH_REPEATS {
        let obj = SpatialObject::Point(point());
        let t = Instant::now();
        tracer.span("server.publish", i as u64, || {
            cell.update(|d| {
                d.add_object(PICTURE, obj, "publish")
                    .expect("the served database holds picture pts");
            })
        });
        publish.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let snap = cell.load();
    drop(cell);
    *db = Arc::try_unwrap(snap).map_or_else(|shared| shared.db.clone(), |own| own.db);
    out.put("server.publish_ms", median(&publish), "ms", publish.len());

    wal(p, server, out, gate, tracer);

    let t = Instant::now();
    tracer.span("core.pack", 0, || db.pack_all());
    out.put("core.pack_s", t.elapsed().as_secs_f64(), "s", 1);

    for _ in 0..MERGE_DELTA {
        if let Err(e) = db.add_object(PICTURE, SpatialObject::Point(point()), "delta") {
            gate.fail(format!("delta insert: {e}"));
        }
    }
    let t = Instant::now();
    tracer.span("core.merge", 0, || db.merge_deltas());
    out.put("core.merge_s", t.elapsed().as_secs_f64(), "s", 1);

    // A database larger than `bulk_load`'s is packed at that size,
    // from the same seed.
    let n = p.extpack_objects();
    let mut smaller = (n < p.objects).then(|| {
        data::build_database(&data::generate_points(
            &mut stream(p.seed, streams::POINTS),
            n,
        ))
    });
    let target = smaller.as_mut().unwrap_or(db);
    let t = Instant::now();
    let packed = tracer.span("extpack.pack_external", 0, || {
        target.pack_external_all(PACK_BUDGET, nproc())
    });
    let wall = t.elapsed().as_secs_f64();
    let s = match packed {
        Ok(s) => s,
        Err(e) => {
            gate.fail(format!("pack_external_all: {e}"));
            Default::default()
        }
    };
    let phases = [
        ("produce", s.produce_us),
        ("sort", s.sort_us),
        ("spill", s.spill_us),
        ("merge", s.merge_us),
        ("emit", s.emit_us),
    ];
    out.put("extpack.wall_s", wall, "s", 1);
    let mut sum = 0.0;
    for (name, micros) in phases {
        sum += micros as f64 / 1e6;
        out.put(format!("extpack.{name}_s"), micros as f64 / 1e6, "s", 1);
    }
    out.put("extpack.residual_s", wall - sum, "s", 1);
    out.put("extpack.spill_bytes", s.spill_bytes as f64, "bytes", 1);
    out.put("extpack.node_pages", s.node_pages as f64, "pages", 1);
    out.put(
        "extpack.peak_budget_bytes",
        s.peak_budget_bytes as f64,
        "bytes",
        1,
    );
}

/// `Wal::append` / `Wal::sync` on a scratch pager with the encoded
/// insert records the `ingest` writer sends, synced in groups of its
/// in-flight depth; plus the served run's group-commit counters.
fn wal(
    p: &Params,
    server: &psql_server::Metrics,
    out: &mut Metrics,
    gate: &mut Gate,
    tracer: &mut Tracer,
) {
    let mut rng = stream(p.seed, streams::WRITER);
    let (mut append, mut sync) = (Vec::new(), Vec::new());
    match Pager::temp() {
        Ok(pager) => {
            let mut wal = Wal::create(pager);
            for i in 0..WAL_RECORDS {
                let pt = Point::new(rng.gen_range(0.0..=1000.0), rng.gen_range(0.0..=1000.0));
                let record = InsertRecord {
                    picture: PICTURE.to_owned(),
                    label: format!("w{}", i + 1),
                    object: SpatialObject::Point(pt),
                };
                let Ok(bytes) = record.encode() else {
                    gate.fail("insert record encoding");
                    continue;
                };
                let t = Instant::now();
                let appended = tracer.span("storage.wal_append", i as u64, || wal.append(&bytes));
                append.push(us(t));
                if let Err(e) = appended {
                    gate.fail(format!("wal append: {e}"));
                }
                if (i + 1) % INSERTS_IN_FLIGHT == 0 {
                    let t = Instant::now();
                    let synced = tracer.span("storage.wal_sync", i as u64, || wal.sync());
                    sync.push(us(t));
                    if let Err(e) = synced {
                        gate.fail(format!("wal sync: {e}"));
                    }
                }
            }
        }
        Err(e) => gate.fail(format!("scratch pager: {e}")),
    }
    out.put("storage.wal_append_us", median(&append), "us", append.len());
    out.put("storage.wal_sync_us", median(&sync), "us", sync.len());
    // From the served run's registry; 0 where the workload sent no inserts.
    let appends = server.wal_appends.get() as f64;
    out.put(
        "storage.inserts_per_sync",
        ratio(appends, server.wal_syncs.get() as f64),
        "inserts",
        server.wal_syncs.get() as usize,
    );
    out.put(
        "storage.wal_bytes_per_insert",
        ratio(server.wal_bytes.get() as f64, appends),
        "bytes",
        appends as usize,
    );
}
