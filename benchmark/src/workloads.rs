//! The three workloads, driven through `Server::start` and
//! `psql_server::Client` as a deployment serves them. Every caller is a
//! closed-loop PSQL session that waits for its reply.

use crate::data::{self, Class, Expected, Oracle, Read, Shape, PICTURE};
use crate::gate::Gate;
use crate::host::nproc;
use crate::trace::Tracer;
use psql::database::PictorialDatabase;
use psql::ResultSet;
use psql_server::{Client, Response, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::Rng;
use rtree_geom::{Point, SpatialObject};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeRead,
    Ingest,
    BulkLoad,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ServeRead, Workload::Ingest, Workload::BulkLoad];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve_read",
            Workload::Ingest => "ingest",
            Workload::BulkLoad => "bulk_load",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Objects in picture `pts`. `bulk_load` holds 100k, not 1M: its
    /// `PACK EXTERNAL` writes one 4 KiB page per node, about 1.4 KB per
    /// object at M=4, so a 1M-object rebuild writes a 1.4 GB file.
    pub fn default_objects(self) -> usize {
        match self {
            Workload::Ingest | Workload::BulkLoad => 100_000,
            Workload::ServeRead => 1_000_000,
        }
    }

    /// What the workload's `op_*` metrics time.
    pub fn op(self) -> &'static str {
        match self {
            Workload::ServeRead => "read",
            Workload::Ingest => "insert",
            Workload::BulkLoad => "rebuild round (REPACK + PACK EXTERNAL)",
        }
    }
}

/// Closed-loop reader connections on `serve_read`.
pub const SERVE_READERS: usize = 2;
/// Inserts the `ingest` writer keeps in flight. Two keep the writer
/// pipelined (one insert waits on the writer lock while the other
/// commits) and leave workers free for the reader; at eight, the
/// inserts occupy every worker in some cycles and the reader's rate
/// swung by 40x between cycles of one run.
pub const INSERTS_IN_FLIGHT: usize = 2;
/// `PACK EXTERNAL` memory budget on `bulk_load`.
pub const PACK_BUDGET: u64 = 4 << 20;
/// Reads served after each rebuild on `bulk_load`.
pub const BURST_READS: usize = 500;
/// Fixed reads compared before and after every rebuild on `bulk_load`.
pub const PROBES: usize = 48;
/// Reads per class and connection kept for the brute-force check.
const KEEP_WINDOWS: usize = 8;
const KEEP_KNN: usize = 4;

/// How long a client waits for any reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(150);

/// Independent random streams derived from the run's seed.
pub mod streams {
    pub const POINTS: u64 = 1;
    pub const READER: u64 = 100;
    pub const SAMPLE: u64 = 200;
    pub const WRITER: u64 = 300;
    pub const PROBES: u64 = 400;
    pub const LAYERS: u64 = 500;
}

pub fn stream(seed: u64, stream: u64) -> StdRng {
    // splitmix64 of the pair, so neighbouring seeds share no stream.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    rtree_workload::rng(z ^ (z >> 31))
}

/// Everything one run is told.
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub objects: usize,
    pub expected: Expected,
    /// Where WAL files go; inside the checkout.
    pub scratch: PathBuf,
}

impl Params {
    /// Objects the traced `extpack` layer packs. At 1M objects PACK
    /// EXTERNAL writes a 1.4 GB file, so it packs at most `bulk_load`'s
    /// size.
    pub fn extpack_objects(&self) -> usize {
        self.objects.min(Workload::BulkLoad.default_objects())
    }
}

/// The server configuration every workload runs: the shipped defaults,
/// plus a WAL on `ingest`.
pub fn server_config(wal: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        wal_path: wal,
        ..ServerConfig::default()
    }
}

fn connect(server: &Server) -> Client {
    let mut c = Client::connect(server.local_addr()).expect("connect to the local server");
    c.set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set the reply timeout");
    c
}

/// A started server over the workload's database.
pub struct Served {
    pub server: Server,
    pub pts: Vec<Point>,
    pub wal: Option<PathBuf>,
}

/// Generates the inputs, builds and packs the database, starts the
/// server and waits for the first answered query. Returns the server and
/// the seconds from the start of generation to that answer.
pub fn setup(p: &Params, attempt: usize, gate: &mut Gate) -> (Served, f64) {
    let started = Instant::now();
    let pts = data::generate_points(&mut stream(p.seed, streams::POINTS), p.objects);
    let db = data::build_database(&pts);
    let wal =
        (p.workload == Workload::Ingest).then(|| p.scratch.join(format!("ingest-{attempt}.wal")));
    if let Some(w) = &wal {
        let _ = std::fs::remove_file(w);
    }
    let server =
        Server::start(db, "127.0.0.1:0", server_config(wal.clone())).expect("server starts");
    let mut client = connect(&server);
    gate.attempt();
    let answer = client.query(data::JUXTAPOSITION);
    let secs = started.elapsed().as_secs_f64();
    match answer {
        Ok(Response::Result { result, .. }) if result.len() == p.expected.juxtaposition => {}
        Ok(Response::Result { result, .. }) => gate.fail(format!(
            "setup: juxtaposition returned {} rows, expected {}",
            result.len(),
            p.expected.juxtaposition
        )),
        other => gate.fail(format!("setup: first query failed: {}", describe(&other))),
    }
    (Served { server, pts, wal }, secs)
}

/// Stops the server and takes back its current database.
pub fn stop(server: Server) -> PictorialDatabase {
    let cell = server.snapshots();
    server.stop();
    let snap = cell.load();
    drop(cell);
    Arc::try_unwrap(snap).map_or_else(|shared| shared.db.clone(), |own| own.db)
}

fn describe(r: &Result<Response, psql_server::ClientError>) -> String {
    match r {
        Ok(Response::Result { result, .. }) => format!("result of {} rows", result.len()),
        Ok(other) => format!("{other:?}"),
        Err(e) => e.to_string(),
    }
}

fn response_id(r: &Response) -> u64 {
    match r {
        Response::Result { id, .. }
        | Response::Error { id, .. }
        | Response::Timeout { id }
        | Response::Overloaded { id, .. }
        | Response::Pong { id }
        | Response::Stats { id, .. }
        | Response::Done { id, .. } => *id,
    }
}

/// What a timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// Client-observed latency of each answered read, ms.
    pub reads_ms: Vec<f64>,
    pub read_classes: Vec<Class>,
    /// Seconds the reads were measured over.
    pub read_wall_s: f64,
    /// Client-observed latency of each completed main operation, ms.
    pub ops_ms: Vec<f64>,
    pub op_wall_s: f64,
    /// `bulk_load`: REPACK and PACK EXTERNAL wall times, ms.
    pub repack_ms: Vec<f64>,
    pub pack_external_ms: Vec<f64>,
    /// Reads kept for the brute-force check, with their answers.
    pub kept: Vec<(Read, ResultSet)>,
    /// Points whose insert was acknowledged.
    pub acked: Vec<Point>,
    /// Points sent for insertion, acknowledged or not.
    pub sent: Vec<Point>,
}

enum Until {
    Time(Instant),
    Count(usize),
}

/// Keeps a seeded sample of each class's reads for the oracle.
struct Keeper {
    rng: StdRng,
    seen: [usize; 4],
    kept: [Vec<(Read, ResultSet)>; 4],
}

impl Keeper {
    fn new(rng: StdRng) -> Keeper {
        Keeper {
            rng,
            seen: [0; 4],
            kept: Default::default(),
        }
    }

    fn offer(&mut self, read: &Read, result: &ResultSet) {
        let cap = match read.shape {
            Shape::Window(_) => KEEP_WINDOWS,
            Shape::Nearest(_) => KEEP_KNN,
            Shape::Fixed(_) => return,
        };
        let c = read.class as usize;
        self.seen[c] += 1;
        if self.kept[c].len() < cap {
            self.kept[c].push((read.clone(), result.clone()));
        } else {
            let j = self.rng.gen_range(0..self.seen[c]);
            if j < cap {
                self.kept[c][j] = (read.clone(), result.clone());
            }
        }
    }

    fn into_kept(self) -> Vec<(Read, ResultSet)> {
        self.kept.into_iter().flatten().collect()
    }
}

/// One closed-loop reader connection sending the read mix.
struct Reader {
    client: Client,
    reads: StdRng,
    keeper: Keeper,
    request: u64,
}

impl Reader {
    fn new(server: &Server, seed: u64, index: u64) -> Reader {
        Reader {
            client: connect(server),
            reads: stream(seed, streams::READER + index),
            keeper: Keeper::new(stream(seed, streams::SAMPLE + index)),
            request: index << 40,
        }
    }

    fn run(
        &mut self,
        until: Until,
        expected: &Expected,
        phase: &mut Phase,
        gate: &mut Gate,
        tracer: &mut Tracer,
    ) {
        let started = Instant::now();
        let mut sent = 0usize;
        loop {
            match until {
                Until::Time(t) if Instant::now() >= t => break,
                Until::Count(n) if sent >= n => break,
                _ => {}
            }
            let read = data::next_read(&mut self.reads, expected);
            sent += 1;
            self.request += 1;
            gate.attempt();
            tracer.begin("serve.read", self.request);
            let t0 = Instant::now();
            let answer = self.client.query(&read.text);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            tracer.end();
            match answer {
                Ok(Response::Result { result, .. }) => {
                    phase.reads_ms.push(ms);
                    phase.read_classes.push(read.class);
                    if let Shape::Fixed(rows) = read.shape {
                        if result.len() != rows {
                            gate.fail(format!(
                                "{}: {} rows, expected {rows}",
                                read.class.name(),
                                result.len()
                            ));
                        }
                    }
                    self.keeper.offer(&read, &result);
                }
                other => {
                    gate.fail(format!("{}: {}", read.class.name(), describe(&other)));
                    if other.is_err() {
                        break;
                    }
                }
            }
        }
        phase.read_wall_s += started.elapsed().as_secs_f64();
    }

    fn finish(self, phase: &mut Phase) {
        phase.kept.extend(self.keeper.into_kept());
    }
}

/// `serve_read`: two closed-loop connections send the read mix for
/// `seconds`.
pub fn serve_read(
    p: &Params,
    served: &Served,
    gate: &mut Gate,
    tracer: &mut Tracer,
    origin: Instant,
) -> Phase {
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let results: Vec<(Phase, Gate, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_READERS as u64)
            .map(|i| {
                let mut reader = Reader::new(&served.server, p.seed, i);
                let traced = tracer.enabled();
                s.spawn(move || {
                    let (mut phase, mut gate) = (Phase::default(), Gate::default());
                    let mut tracer = Tracer::new(traced, origin);
                    reader.run(
                        Until::Time(deadline),
                        &p.expected,
                        &mut phase,
                        &mut gate,
                        &mut tracer,
                    );
                    reader.finish(&mut phase);
                    (phase, gate, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    let mut phase = Phase::default();
    let mut wall: f64 = 0.0;
    for (part, g, t) in results {
        wall = wall.max(part.read_wall_s);
        phase.reads_ms.extend(part.reads_ms);
        phase.read_classes.extend(part.read_classes);
        phase.kept.extend(part.kept);
        gate.absorb(g);
        tracer.absorb(t);
    }
    phase.read_wall_s = wall;
    phase.ops_ms = phase.reads_ms.clone();
    phase.op_wall_s = wall;
    phase
}

/// `ingest`: one closed-loop reader beside one writer that keeps
/// `INSERTS_IN_FLIGHT` inserts into `pts` outstanding.
pub fn ingest(
    p: &Params,
    served: &Served,
    gate: &mut Gate,
    tracer: &mut Tracer,
    origin: Instant,
) -> Phase {
    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let traced = tracer.enabled();
    let mut reader = Reader::new(&served.server, p.seed, 0);
    let mut writer = connect(&served.server);
    let ((mut phase, rgate, rtrace), (wphase, wgate, wtrace)) = std::thread::scope(|s| {
        let r = s.spawn(|| {
            let (mut phase, mut gate) = (Phase::default(), Gate::default());
            let mut tracer = Tracer::new(traced, origin);
            reader.run(
                Until::Time(deadline),
                &p.expected,
                &mut phase,
                &mut gate,
                &mut tracer,
            );
            (phase, gate, tracer)
        });
        let w = s.spawn(|| {
            let mut tracer = Tracer::new(traced, origin);
            let (phase, gate) = write_loop(
                &mut writer,
                stream(p.seed, streams::WRITER),
                deadline,
                &mut tracer,
            );
            (phase, gate, tracer)
        });
        (
            r.join().expect("reader thread"),
            w.join().expect("writer thread"),
        )
    });
    reader.finish(&mut phase);
    phase.ops_ms = wphase.ops_ms;
    phase.op_wall_s = wphase.op_wall_s;
    phase.acked = wphase.acked;
    phase.sent = wphase.sent;
    gate.absorb(rgate);
    gate.absorb(wgate);
    tracer.absorb(rtrace);
    tracer.absorb(wtrace);
    phase
}

/// Span request ids of the writer's inserts, apart from the readers'
/// (`index << 40`) and the admin's (`1 << 50`).
const WRITER_REQUESTS: u64 = 3 << 40;

fn write_loop(
    client: &mut Client,
    mut rng: StdRng,
    deadline: Instant,
    tracer: &mut Tracer,
) -> (Phase, Gate) {
    let started = Instant::now();
    let (mut phase, mut gate) = (Phase::default(), Gate::default());
    let mut in_flight: HashMap<u64, (Instant, Point)> = HashMap::new();
    let mut sent = 0u64;
    let mut sent_points = Vec::new();
    let mut send =
        |client: &mut Client, in_flight: &mut HashMap<u64, (Instant, Point)>, gate: &mut Gate| {
            let pt = Point::new(rng.gen_range(0.0..=1000.0), rng.gen_range(0.0..=1000.0));
            sent += 1;
            gate.attempt();
            let t0 = Instant::now();
            match client.send_insert(PICTURE, &format!("w{sent}"), SpatialObject::Point(pt)) {
                Ok(id) => {
                    in_flight.insert(id, (t0, pt));
                    sent_points.push(pt);
                }
                Err(e) => gate.fail(format!("insert send: {e}")),
            }
        };
    for _ in 0..INSERTS_IN_FLIGHT {
        send(client, &mut in_flight, &mut gate);
    }
    while !in_flight.is_empty() {
        let answer = client.read_response();
        let now = Instant::now();
        match answer {
            Ok(resp) => {
                let id = response_id(&resp);
                let Some((t0, pt)) = in_flight.remove(&id) else {
                    gate.fail(format!("insert: reply for unknown request {id}"));
                    continue;
                };
                if let Response::Done { .. } = resp {
                    phase.ops_ms.push((now - t0).as_secs_f64() * 1e3);
                    phase.acked.push(pt);
                    tracer.record("serve.insert", t0, now, WRITER_REQUESTS | id);
                } else {
                    gate.fail(format!("insert: {resp:?}"));
                }
                if now < deadline {
                    send(client, &mut in_flight, &mut gate);
                }
            }
            Err(e) => {
                for _ in in_flight.drain() {
                    gate.fail(format!("insert: {e}"));
                }
            }
        }
    }
    phase.op_wall_s = started.elapsed().as_secs_f64();
    phase.sent = sent_points;
    (phase, gate)
}

/// Runs the fixed probe set, returning each answer (`None` if it failed).
fn run_probes(client: &mut Client, probes: &[Read], gate: &mut Gate) -> Vec<Option<ResultSet>> {
    probes
        .iter()
        .map(|read| {
            gate.attempt();
            match client.query(&read.text) {
                Ok(Response::Result { result, .. }) => Some(result),
                other => {
                    gate.fail(format!("probe: {}", describe(&other)));
                    None
                }
            }
        })
        .collect()
}

/// The fixed probe set of a seed.
pub fn probes(p: &Params) -> Vec<Read> {
    let mut rng = stream(p.seed, streams::PROBES);
    (0..PROBES)
        .map(|_| data::next_read(&mut rng, &p.expected))
        .collect()
}

/// `bulk_load`: one admin connection alternates `REPACK` and
/// `PACK EXTERNAL budget 4 MiB threads nproc` in whole rounds until
/// `seconds` have passed. No read runs during a rebuild; after each one
/// the probe set must answer exactly as before the first, and a burst
/// of `BURST_READS` reads is served from the rebuilt tree.
pub fn bulk_load(
    p: &Params,
    served: &Served,
    oracle: &Oracle,
    baseline: &mut Option<Vec<Option<ResultSet>>>,
    gate: &mut Gate,
    tracer: &mut Tracer,
) -> Phase {
    let mut admin = connect(&served.server);
    let mut reader = Reader::new(&served.server, p.seed, 0);
    let probes = probes(p);
    let before = baseline.get_or_insert_with(|| {
        let answers = run_probes(&mut reader.client, &probes, gate);
        for (read, answer) in probes.iter().zip(&answers) {
            if let Some(result) = answer {
                gate.check(
                    oracle
                        .check(read, result, &[])
                        .map_err(|e| format!("probe: {e}")),
                );
            }
        }
        answers
    });
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut request = 1u64 << 50;
    loop {
        let mut round_ms = 0.0;
        let mut complete = true;
        for external in [false, true] {
            request += 1;
            gate.attempt();
            let name = if external {
                "serve.pack_external"
            } else {
                "serve.repack"
            };
            tracer.begin(name, request);
            let t0 = Instant::now();
            let done = if external {
                admin.pack_external_with(PACK_BUDGET, nproc() as u32)
            } else {
                admin.repack()
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            tracer.end();
            match done {
                Ok(_) if external => phase.pack_external_ms.push(ms),
                Ok(_) => phase.repack_ms.push(ms),
                Err(e) => {
                    gate.fail(format!("{name}: {e}"));
                    complete = false;
                }
            }
            round_ms += ms;
            let after = run_probes(&mut reader.client, &probes, gate);
            for (i, (old, new)) in before.iter().zip(&after).enumerate() {
                if old.is_some() && new.is_some() && old != new {
                    gate.fail(format!(
                        "{name}: probe {i} answered differently after the rebuild"
                    ));
                }
            }
            reader.run(
                Until::Count(BURST_READS),
                &p.expected,
                &mut phase,
                gate,
                tracer,
            );
        }
        if complete {
            phase.ops_ms.push(round_ms);
            phase.op_wall_s += round_ms / 1e3;
        }
        if started.elapsed().as_secs_f64() >= p.seconds || !complete {
            break;
        }
    }
    reader.finish(&mut phase);
    phase
}

/// The brute-force check of every kept read. `inserted` holds every
/// point sent for insertion before the reads ran.
pub fn check_reads(oracle: &Oracle, phase: &Phase, inserted: &[Point], gate: &mut Gate) {
    for (read, result) in &phase.kept {
        gate.check(
            oracle
                .check(read, result, inserted)
                .map_err(|e| format!("{}: {e}", read.class.name())),
        );
    }
}

/// Restarts a server from the run's WAL over a freshly built base
/// database and checks that every acknowledged insert is there.
pub fn check_durability(pts: &[Point], wal: &Path, acked: &[Point], gate: &mut Gate) {
    let db = data::build_database(pts);
    let server = match Server::start(db, "127.0.0.1:0", server_config(Some(wal.to_owned()))) {
        Ok(s) => s,
        Err(e) => {
            gate.fail(format!("restart from the WAL: {e}"));
            return;
        }
    };
    let db = stop(server);
    let key = |p: &Point| (p.x.to_bits(), p.y.to_bits());
    let mut present: HashMap<(u64, u64), usize> = HashMap::new();
    if let Ok(pic) = db.picture(PICTURE) {
        for id in pts.len()..pic.len() {
            if let Some(SpatialObject::Point(p)) = pic.object(id as u64) {
                *present.entry(key(p)).or_default() += 1;
            }
        }
    }
    for p in acked {
        match present.get_mut(&key(p)) {
            Some(n) if *n > 0 => *n -= 1,
            _ => gate.fail(format!(
                "acknowledged insert {p:?} missing after WAL replay"
            )),
        }
    }
}
