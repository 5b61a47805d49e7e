//! The repository benchmark: served PSQL reads at 1M objects
//! (`serve_read`), WAL ingest beside reads (`ingest`) and admin bulk
//! rebuilds (`bulk_load`). See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve_read|ingest|bulk_load|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). A failed correctness check makes the exit code 1.

mod data;
mod gate;
mod host;
mod layers;
mod stats;
mod trace;
mod workloads;

use data::{Expected, Oracle};
use gate::Gate;
use rtree_index::RTreeConfig;
use stats::{json_number, json_string, median, quantile, Metrics};
use std::path::Path;
use std::time::Instant;
use trace::Tracer;
use workloads::{Params, Phase, Workload};

/// Set-up + phase cycles per untraced run; `setup_s` is the median
/// set-up.
const CYCLES: usize = 3;
/// Report and span files, relative to the repository root.
const OUT_DIR: &str = ".bench_out";
/// WAL and spill files, relative to the repository root.
const TMP_DIR: &str = ".bench_tmp";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Objects in `pts`, overriding each workload's size (smoke test).
    objects: Option<usize>,
    /// Expect a wrong row count, to show the gate trips (smoke test).
    wrong_expectation: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        objects: None,
        wrong_expectation: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--wrong-expectation" {
            args.wrong_expectation = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--objects" => args.objects = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One workload's outcome.
struct Run {
    metrics: Metrics,
    gate: Gate,
    /// Metrics printed for reading but not part of the JSON result:
    /// `failed_frac`, per-cycle values and per-operation names.
    extra: Metrics,
    config: Vec<(&'static str, String)>,
    spans: Option<Tracer>,
}

/// Puts the end-to-end phase metrics of `phases` (one per cycle): rates
/// and medians are the median over cycles, tails pool every sample.
fn phase_metrics(out: &mut Metrics, phases: &[Phase]) {
    let per_cycle = |f: &dyn Fn(&Phase) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    let reads: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.reads_ms.iter().copied())
        .collect();
    let ops: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.ops_ms.iter().copied())
        .collect();
    out.put(
        "read_p50_ms",
        per_cycle(&|p| median(&p.reads_ms)),
        "ms",
        reads.len(),
    );
    out.put("read_p99_ms", quantile(&reads, 0.99), "ms", reads.len());
    out.put(
        "op_per_s",
        per_cycle(&|p| p.ops_ms.len() as f64 / p.op_wall_s.max(1e-9)),
        "1/s",
        ops.len(),
    );
    out.put(
        "op_p50_ms",
        per_cycle(&|p| median(&p.ops_ms)),
        "ms",
        ops.len(),
    );
    out.put("op_p90_ms", quantile(&ops, 0.90), "ms", ops.len());
}

/// Reads per second over every cycle's read time.
fn read_qps(phases: &[Phase]) -> (f64, usize) {
    let reads: usize = phases.iter().map(|p| p.reads_ms.len()).sum();
    let wall: f64 = phases.iter().map(|p| p.read_wall_s).sum();
    (reads as f64 / wall.max(1e-9), reads)
}

fn run_phase(
    p: &Params,
    served: &workloads::Served,
    oracle: &Oracle,
    baseline: &mut Option<Vec<Option<psql::ResultSet>>>,
    gate: &mut Gate,
    tracer: &mut Tracer,
    origin: Instant,
) -> Phase {
    match p.workload {
        Workload::ServeRead => workloads::serve_read(p, served, gate, tracer, origin),
        Workload::Ingest => workloads::ingest(p, served, gate, tracer, origin),
        Workload::BulkLoad => workloads::bulk_load(p, served, oracle, baseline, gate, tracer),
    }
}

/// Bytes of the file `PACK EXTERNAL` writes for `n` objects: one page
/// per node of the packed tree, plus two meta pages.
fn pack_file_bytes(n: usize) -> u64 {
    let m = RTreeConfig::PAPER.max_entries;
    let (mut pages, mut level) = (2, n);
    while level > 1 {
        level = level.div_ceil(m);
        pages += level;
    }
    (pages.max(3) * rtree_storage::PAGE_SIZE) as u64
}

fn run_workload(args: &Args, w: Workload, scratch: &Path) -> Run {
    let origin = Instant::now();
    // An untraced run measures CYCLES set-up + phase cycles, each phase
    // a third of `--seconds`; a traced run one set-up, then the phase
    // untraced and again traced, half of `--seconds` each.
    let (cycles, phases_per_cycle) = if args.trace { (1, 2) } else { (CYCLES, 1) };
    let p = Params {
        workload: w,
        seed: args.seed,
        seconds: args.seconds / (cycles * phases_per_cycle) as f64,
        objects: args.objects.unwrap_or(w.default_objects()),
        expected: Expected {
            juxtaposition: data::JUXTAPOSITION_ROWS + usize::from(args.wrong_expectation),
            figure2: data::figure2_rows(),
        },
        scratch: scratch.to_owned(),
    };
    // Fail with a reason, not SIGXFSZ, where the largest file this run
    // writes is over the file-size limit.
    let packed = match w {
        Workload::BulkLoad => p.objects,
        _ if args.trace => p.extpack_objects(),
        _ => 0,
    };
    if let Some(limit) = host::file_size_limit() {
        let need = pack_file_bytes(packed);
        if need > limit {
            eprintln!(
                "error: {}: PACK EXTERNAL of {packed} objects writes a {need}-byte file; \
                 the file-size limit is {limit} bytes (lower --objects)",
                w.name()
            );
            std::process::exit(2);
        }
    }
    let mut gate = Gate::default();
    let mut metrics = Metrics::default();
    let mut extra = Metrics::default();
    let mut tracer = Tracer::new(true, origin);
    let mut setups = Vec::new();
    let mut phases = Vec::new();
    let mut oracle: Option<Oracle> = None;
    // bulk_load's probe answers; every cycle serves the same data, so
    // every cycle must answer as the first did.
    let mut baseline = None;
    let mut config = Vec::new();

    let mut peaks = Vec::new();
    for cycle in 0..cycles {
        host::release_freed_memory();
        host::reset_peak_rss();
        let (served, secs) = workloads::setup(&p, cycle, &mut gate);
        setups.push(secs);
        let oracle = oracle.get_or_insert_with(|| Oracle::new(&served.pts));
        let mut quiet = Tracer::new(false, origin);
        let phase = run_phase(
            &p,
            &served,
            oracle,
            &mut baseline,
            &mut gate,
            &mut quiet,
            origin,
        );
        let traced = args.trace.then(|| {
            run_phase(
                &p,
                &served,
                oracle,
                &mut baseline,
                &mut gate,
                &mut tracer,
                origin,
            )
        });

        // Correctness, outside the timed phases.
        let mut inserted = phase.sent.clone();
        workloads::check_reads(oracle, &phase, &inserted, &mut gate);
        if let Some(t) = &traced {
            inserted.extend_from_slice(&t.sent);
            workloads::check_reads(oracle, t, &inserted, &mut gate);
        }
        peaks.push(host::peak_rss_mb());
        let server_metrics = served.server.metrics();
        config = served_config(w, &p, &served);
        let wal = served.wal.clone();
        let pts = served.pts;
        let mut db = workloads::stop(served.server);
        if let Some(wal) = &wal {
            let mut acked = phase.acked.clone();
            if let Some(t) = &traced {
                acked.extend_from_slice(&t.acked);
            }
            workloads::check_durability(&pts, wal, &acked, &mut gate);
            let _ = std::fs::remove_file(wal);
        }
        if let Some(t) = &traced {
            layers::measure(
                &mut db,
                &p,
                median(&phase.reads_ms),
                &server_metrics,
                &mut metrics,
                &mut gate,
                &mut tracer,
            );
            let mut untraced = Metrics::default();
            phase_metrics(&mut untraced, std::slice::from_ref(&phase));
            let mut with_spans = Metrics::default();
            phase_metrics(&mut with_spans, std::slice::from_ref(t));
            for m in &with_spans.0 {
                let base = untraced.get(&m.name).map_or(0.0, |b| b.value);
                let name = format!("trace.{}_overhead", m.name);
                if m.name == "read_p50_ms" || m.name == "op_p50_ms" {
                    metrics.put(name, m.value - base, m.unit, m.samples);
                } else {
                    extra.put(name, m.value - base, m.unit, m.samples);
                }
            }
        }
        drop(db);
        phases.push(phase);
    }

    if !args.trace {
        metrics.put("setup_s", median(&setups), "s", setups.len());
        phase_metrics(&mut metrics, &phases);
        metrics.put("peak_rss_mb", median(&peaks), "MB", peaks.len());
    }
    let (qps, reads) = read_qps(&phases);
    extra.put("read_qps", qps, "1/s", reads);
    for (i, secs) in setups.iter().enumerate() {
        extra.put(format!("setup_s.cycle{i}"), *secs, "s", 1);
    }
    for (i, mb) in peaks.iter().enumerate() {
        extra.put(format!("peak_rss_mb.cycle{i}"), *mb, "MB", 1);
    }
    for (i, p) in phases.iter().enumerate() {
        let n = p.reads_ms.len();
        extra.put(
            format!("read_qps.cycle{i}"),
            n as f64 / p.read_wall_s.max(1e-9),
            "1/s",
            n,
        );
        extra.put(
            format!("read_p50_ms.cycle{i}"),
            median(&p.reads_ms),
            "ms",
            n,
        );
    }
    extra.put(
        "failed_frac",
        gate.failed_frac(),
        "frac",
        gate.attempted as usize,
    );
    let pooled = |f: &dyn Fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        phases.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    match w {
        Workload::ServeRead => {}
        Workload::Ingest => {
            let mut ops = Metrics::default();
            phase_metrics(&mut ops, &phases);
            for (from, to) in [
                ("op_per_s", "insert_per_s"),
                ("op_p50_ms", "insert_p50_ms"),
                ("op_p90_ms", "insert_p90_ms"),
            ] {
                let m = ops.get(from).expect("phase metric");
                extra.put(to, m.value, m.unit, m.samples);
            }
        }
        Workload::BulkLoad => {
            let repack = pooled(&|p| &p.repack_ms);
            let external = pooled(&|p| &p.pack_external_ms);
            extra.put("repack_s", median(&repack) / 1e3, "s", repack.len());
            extra.put(
                "pack_external_s",
                median(&external) / 1e3,
                "s",
                external.len(),
            );
        }
    }
    for class in data::Class::ALL {
        let lat: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.reads_ms.iter().zip(&p.read_classes))
            .filter(|(_, c)| **c == class)
            .map(|(ms, _)| *ms)
            .collect();
        extra.put(
            format!("read_p50_ms.{}", class.name()),
            median(&lat),
            "ms",
            lat.len(),
        );
    }
    Run {
        metrics,
        gate,
        extra,
        config,
        spans: args.trace.then_some(tracer),
    }
}

fn served_config(
    w: Workload,
    p: &Params,
    served: &workloads::Served,
) -> Vec<(&'static str, String)> {
    let server = workloads::server_config(served.wal.clone());
    vec![
        ("workload", json_string(w.name())),
        ("op", json_string(w.op())),
        ("objects_pts", p.objects.to_string()),
        (
            "objects_traced_pack_external",
            p.extpack_objects().to_string(),
        ),
        (
            "rtree_max_entries_m",
            rtree_index::RTreeConfig::PAPER.max_entries.to_string(),
        ),
        (
            "rtree_min_entries",
            rtree_index::RTreeConfig::PAPER.min_entries.to_string(),
        ),
        (
            "pack_external_budget_bytes",
            workloads::PACK_BUDGET.to_string(),
        ),
        ("pack_external_threads", host::nproc().to_string()),
        (
            "serve_read_connections",
            workloads::SERVE_READERS.to_string(),
        ),
        (
            "ingest_inserts_in_flight",
            workloads::INSERTS_IN_FLIGHT.to_string(),
        ),
        ("bulk_load_burst_reads", workloads::BURST_READS.to_string()),
        ("bulk_load_probes", workloads::PROBES.to_string()),
        ("cycles_per_untraced_run", CYCLES.to_string()),
        (
            "flush_policy",
            json_string(if w == Workload::Ingest {
                "WAL group commit: one fsync per worker batch of inserts, before acknowledging"
            } else {
                "no WAL (reads and admin rebuilds only)"
            }),
        ),
        ("server_config", json_string(&format!("{server:?}"))),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let scratch = root
        .join(TMP_DIR)
        .join(format!("run-{}", std::process::id()));
    let out_dir = root.join(OUT_DIR);
    for dir in [&scratch, &out_dir] {
        std::fs::create_dir_all(dir).expect("create the benchmark's scratch directories");
    }
    // Spill files and scratch pagers follow TMPDIR; keep them inside the
    // checkout. No other thread exists yet, so every thread started from
    // here on also inherits the pin.
    std::env::set_var("TMPDIR", &scratch);
    let pinned = host::pin_to_one_cpu();

    let host = vec![
        ("nproc", host::nproc().to_string()),
        (
            "pinned_cpu",
            pinned.map_or("null".to_owned(), |c| c.to_string()),
        ),
        ("commit", json_string(&host::commit())),
        ("source_digest", json_string(&host::source_digest(&root))),
        (
            "cpu_features",
            format!(
                "[{}]",
                host::cpu_features()
                    .iter()
                    .map(|f| json_string(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "cargo_features",
            "[\"rtree-index/simd (default)\"]".to_owned(),
        ),
        ("seed", args.seed.to_string()),
        ("seconds", json_number(args.seconds)),
        ("trace", args.trace.to_string()),
    ];

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut all = Metrics::default();
    for &w in &args.workloads {
        let run = run_workload(&args, w, &scratch);
        attempted += run.gate.attempted;
        failed += run.gate.failed;
        let prefix = if args.workloads.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        println!(
            "== workload {} (seed {}, trace {})",
            w.name(),
            args.seed,
            u8::from(args.trace)
        );
        for m in run.metrics.0.iter().chain(&run.extra.0) {
            println!(
                "metric {:<40} {:>16} {:<10} n={}",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples
            );
        }
        for reason in &run.gate.reasons {
            println!("FAILED {reason}");
        }
        if let Some(spans) = &run.spans {
            for (name, (n, total, own)) in spans.self_times() {
                println!("span {name:<24} n={n:<8} total_us={total:.1} self_us={own:.1}");
            }
            let path = out_dir.join(format!("{}-seed{}-spans.json", w.name(), args.seed));
            if let Err(e) = std::fs::write(&path, spans.to_json()) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
        let report = report_json(&host, &run);
        let path = out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            w.name(),
            args.seed,
            u8::from(args.trace)
        ));
        if let Err(e) = std::fs::write(&path, report) {
            eprintln!("could not write {}: {e}", path.display());
        }
        for mut m in run.metrics.0 {
            m.name = format!("{prefix}{}", m.name);
            all.0.push(m);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        all.json_object()
    );
    if !correct {
        std::process::exit(1);
    }
}

fn report_json(host: &[(&str, String)], run: &Run) -> String {
    let metric = |m: &stats::Metric| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit),
            m.samples
        )
    };
    let list = |ms: &Metrics| ms.0.iter().map(metric).collect::<Vec<_>>().join(",\n    ");
    let reasons: Vec<String> = run.gate.reasons.iter().map(|r| json_string(r)).collect();
    format!(
        "{{\n  \"host\": {},\n  \"config\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"metrics\": {{\n    {}\n  }},\n  \"also_printed\": {{\n    {}\n  }}\n}}\n",
        host::json_object(host),
        host::json_object(&run.config),
        run.gate.attempted,
        run.gate.failed,
        reasons.join(", "),
        list(&run.metrics),
        list(&run.extra),
    )
}
