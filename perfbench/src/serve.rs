//! The serving phase: a resident `uvd-serve` `Server` driven by a
//! single-process open-loop generator with two connections and two
//! threads. The read connection carries `score` requests (and a share of
//! `tasks` requests) on a fixed arrival schedule, first at the nominal
//! rate and then up a fixed rate ladder; the write connection carries
//! `update_poi` edits on its own fixed schedule the whole time. The
//! sending thread sleeps until each request is due, sends it and notes how
//! late it was; a second thread blocks on the read connection and stamps
//! each reply as it arrives. Every latency is timed from the request's
//! scheduled send time.
//!
//! The server answers the requests of one connection in order, so the two
//! connections keep reads and writes apart: a score never waits on the
//! socket behind an update, and the two meet only where the program makes
//! them meet (cores, the cache lock, the published generation).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cmsf::{Cmsf, CmsfConfig};
use rand::Rng;
use uvd_serve::{ServeOptions, Server};
use uvd_tasks::{AccessibilityHead, EmbeddingStore, LandUseHead, TaskHeadConfig};
use uvd_tensor::{Matrix, MatrixStore};
use uvd_urg::Urg;

use crate::report::{mean, percentile, Kind, Ops};
use crate::trace::Tracer;

/// Side of the square tile of regions one request asks for: 8×8 = 64 ids,
/// the service's default micro-batch capacity.
pub const TILE: usize = 8;
/// How long a reply may take before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// While an update reply is outstanding the sender checks for it at least
/// this often.
const UPDATE_POLL: Duration = Duration::from_millis(1);
/// A rung passes only if neither the generator's lateness nor the score
/// latency grows by this much from the first to the last quarter of the
/// rung: growth means a backlog.
const GROWTH_MS: f64 = 10.0;
/// One in this many score replies is kept whole for the bitwise check.
const SAMPLE_EVERY: usize = 16;
/// Versions checked against a full recompute.
const VERSIONS_CHECKED: usize = 3;

/// The nominal read load, the same on every workload: 400 requests per
/// second of 64 ids each, about an eighth of the highest rate serve-mix
/// sustained on the reference host (its ladder's answer, median 3,059 req/s
/// over ten seeds at one CPU), so that the score latency measures the
/// request path and not a queue. The write rate is each plan's own
/// (`Plan::write_rps`), sized so that the single updater thread stays
/// mostly idle and an update's latency is its own work, not a queue.
const READ_RPS: f64 = 400.0;
/// Score p99 limit on a ladder rung: above one update's own time, since a
/// read that meets an update on the one CPU waits for it.
const P99_LIMIT_MS: f64 = 50.0;

/// A serving schedule in three phases, at the nominal rates (requests per
/// second on the read connection, `update_poi` per second on the write
/// connection):
///
/// 1. reads for `read_s`, no writes: the score latencies;
/// 2. reads for `write_s` with writes: the update latency under the read
///    load;
/// 3. the read-rate `ladder` (ascending, `rung_s` per rung; may be empty)
///    with writes going on: the highest sustainable read rate.
pub struct Plan {
    pub read_s: f64,
    pub write_s: f64,
    /// `update_poi` per second in phases 2 and 3.
    pub write_rps: f64,
    pub ladder: Vec<f64>,
    pub rung_s: f64,
    /// Every `tasks_every`-th read request is a `tasks` op (0: none).
    pub tasks_every: usize,
}

/// What the server is started from.
pub struct Fixture<'a> {
    pub urg: &'a Urg,
    pub cfg: CmsfConfig,
    pub store: &'a MatrixStore,
    /// Embedding store with the task heads captured (enables `tasks`).
    pub embeddings: Option<&'a EmbeddingStore>,
    pub head_cfg: TaskHeadConfig,
}

pub struct Outcome {
    /// Phase-1 latencies of answered requests, ms.
    pub score_lat_ms: Vec<f64>,
    pub tasks_lat_ms: Vec<f64>,
    /// Phase-2 latencies of answered updates, ms.
    pub update_lat_ms: Vec<f64>,
    /// How late the generator sent each phase-1 request, ms.
    pub late_ms: Vec<f64>,
    pub max_rps: f64,
    /// (rate, p99 ms, backlog growth ms, passed) per rung run.
    pub rungs: Vec<(f64, f64, f64, bool)>,
    pub stats: String,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Score,
    Tasks,
}

struct Req {
    due: Duration,
    kind: ReqKind,
    tile: (usize, usize),
    line: String,
}

/// Per-request record of one driven schedule (times from phase start).
struct Done {
    kind: ReqKind,
    tile: (usize, usize),
    due: Duration,
    sent: Duration,
    answered: Duration,
    reply: Option<String>,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        self.answered.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Newline framing over a byte stream, so that no read loses a partial
/// line.
#[derive(Default)]
struct Lines {
    pending: Vec<u8>,
}

impl Lines {
    /// Read once from `r` and move complete lines into `out`; returns the
    /// bytes read, 0 when the read timed out or would block, and an
    /// `UnexpectedEof` error at end of stream.
    fn fill(&mut self, r: &mut TcpStream, out: &mut Vec<String>) -> std::io::Result<usize> {
        let mut chunk = [0u8; 1 << 14];
        let n = match r.read(&mut chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => 0,
            Err(e) => return Err(e),
        };
        self.pending.extend_from_slice(&chunk[..n]);
        while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=pos).collect();
            out.push(String::from_utf8_lossy(&line[..pos]).into_owned());
        }
        Ok(n)
    }
}

fn send(w: &mut TcpStream, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")
}

/// Send one line and wait for its reply (set-up and `stats`, not timed).
fn request(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(REPLY_TIMEOUT))?;
    send(&mut s, line)?;
    let mut lines = Lines::default();
    let mut out = Vec::new();
    while out.is_empty() {
        if lines.fill(&mut s, &mut out)? == 0 {
            return Err(ErrorKind::TimedOut.into());
        }
    }
    Ok(out.remove(0))
}

/// The receiving thread of one phase: blocks on the read connection and
/// stamps each of the `expect` replies on arrival. Keeps the text of the
/// replies `keep` marks and of every error reply.
fn receive(
    mut r: TcpStream,
    expect: usize,
    t0: Instant,
    keep: Vec<bool>,
) -> Vec<(Duration, Option<String>)> {
    let mut got = Vec::with_capacity(expect);
    let mut lines = Lines::default();
    let mut out = Vec::new();
    while got.len() < expect {
        out.clear();
        // Nothing within the reply timeout, or the stream ended: the
        // remaining requests stay unanswered.
        if !matches!(lines.fill(&mut r, &mut out), Ok(n) if n > 0) {
            break;
        }
        let at = t0.elapsed();
        for line in out.drain(..) {
            let i = got.len();
            if i >= expect {
                break;
            }
            let whole = keep[i] || !line.starts_with("{\"ok\":true");
            got.push((
                at,
                Some(if whole {
                    line
                } else {
                    String::from("{\"ok\":true}")
                }),
            ));
        }
    }
    got
}

/// The write connection's open-loop schedule, serviced by the sending
/// thread between read requests: one `update_poi` every `1 / rate` seconds
/// while the rate is above zero, replies read without blocking.
struct Updates {
    conn: TcpStream,
    lines: Lines,
    edits: Vec<Edit>,
    t0: Instant,
    /// Seconds between edits; `None` while writes are paused.
    interval: Option<Duration>,
    /// When the next edit is due.
    next: Duration,
    /// Scheduled send time and phase of each edit sent, in order.
    sent: Vec<(Duration, usize)>,
    phase: usize,
    /// Latency from the scheduled time (ms) and reply, in send order.
    replies: Vec<(f64, String)>,
    broken: bool,
}

impl Updates {
    /// Start phase `phase`, writing at `rate` edits per second (0: none).
    fn set_rate(&mut self, phase: usize, rate: f64) {
        self.phase = phase;
        self.interval = (rate > 0.0).then(|| Duration::from_secs_f64(1.0 / rate));
        self.next = self.t0.elapsed();
    }

    /// When the next edit is due, if one is to be sent.
    fn next_due(&self) -> Option<Duration> {
        let left = self.sent.len() < self.edits.len();
        (self.interval.is_some() && left && !self.broken).then_some(self.next)
    }

    fn outstanding(&self) -> bool {
        !self.broken && self.replies.len() < self.sent.len()
    }

    /// Send what is due and collect what has arrived.
    fn service(&mut self) {
        if self.broken {
            return;
        }
        if let (Some(due), Some(interval)) = (self.next_due(), self.interval) {
            if self.t0.elapsed() >= due {
                if send(&mut self.conn, &edit_line(&self.edits[self.sent.len()])).is_err() {
                    self.broken = true;
                    return;
                }
                self.sent.push((due, self.phase));
                self.next = due + interval;
            }
        }
        if self.outstanding() {
            let mut out = Vec::new();
            if self.lines.fill(&mut self.conn, &mut out).is_err() {
                self.broken = true;
            }
            let at = self.t0.elapsed();
            for line in out {
                if let Some(&(due, _)) = self.sent.get(self.replies.len()) {
                    self.replies.push(((at - due).as_secs_f64() * 1e3, line));
                }
            }
        }
    }

    /// How long the sender may sleep before this schedule needs it.
    fn wake_in(&self) -> Duration {
        let mut wake = Duration::from_millis(50);
        if let Some(due) = self.next_due() {
            wake = wake.min(due.saturating_sub(self.t0.elapsed()));
        }
        if self.outstanding() {
            wake = wake.min(UPDATE_POLL);
        }
        wake
    }
}

/// Send `reqs` on their schedule, keep the update schedule going, and
/// collect every reply (the receiving thread stamps them).
fn drive(w: &mut TcpStream, reqs: &[Req], updates: &mut Updates) -> Vec<Done> {
    let keep: Vec<bool> = (0..reqs.len())
        .map(|i| reqs[i].kind == ReqKind::Tasks || i % SAMPLE_EVERY == 0)
        .collect();
    let reader = match w.try_clone() {
        Ok(r) => r,
        Err(_) => return Vec::new(),
    };
    let _ = reader.set_read_timeout(Some(REPLY_TIMEOUT));
    let finished = AtomicBool::new(false);
    let t0 = Instant::now();
    let (sent, got) = std::thread::scope(|s| {
        let h = s.spawn(|| {
            let got = receive(reader, reqs.len(), t0, keep);
            finished.store(true, Ordering::Release);
            got
        });
        let mut sent: Vec<Duration> = Vec::with_capacity(reqs.len());
        let mut broken = false;
        while !finished.load(Ordering::Acquire) {
            updates.service();
            let now = t0.elapsed();
            if !broken && sent.len() < reqs.len() && reqs[sent.len()].due <= now {
                if send(w, &reqs[sent.len()].line).is_err() {
                    broken = true;
                    // Unblock the receiver: nothing more will arrive.
                    let _ = w.shutdown(std::net::Shutdown::Read);
                }
                sent.push(t0.elapsed());
                continue;
            }
            let mut wake = updates.wake_in().min(Duration::from_millis(5));
            if !broken && sent.len() < reqs.len() {
                wake = wake.min(reqs[sent.len()].due.saturating_sub(now));
            }
            std::thread::sleep(wake);
        }
        (sent, h.join().expect("receiving thread"))
    });
    reqs.iter()
        .enumerate()
        .map(|(i, r)| {
            let (answered, reply) = got.get(i).cloned().unwrap_or((Duration::ZERO, None));
            Done {
                kind: r.kind,
                tile: r.tile,
                due: r.due,
                sent: sent.get(i).copied().unwrap_or(r.due),
                answered,
                reply,
            }
        })
        .collect()
}

fn tile_ids(urg: &Urg, (x0, y0): (usize, usize)) -> Vec<u32> {
    let mut ids = Vec::with_capacity(TILE * TILE);
    for y in y0..y0 + TILE {
        for x in x0..x0 + TILE {
            ids.push((y * urg.width + x) as u32);
        }
    }
    ids
}

/// The read schedule of one phase: `rate × secs` requests, tiles drawn
/// from `rng`; request `k` (counted over the whole run) is a `tasks` op
/// when `tasks_every` divides `k + 1`.
fn schedule(
    urg: &Urg,
    rng: &mut uvd_tensor::Rng64,
    rate: f64,
    secs: f64,
    first_k: usize,
    tasks_every: usize,
) -> Vec<Req> {
    let n = (rate * secs).round().max(1.0) as usize;
    (0..n)
        .map(|i| {
            let tile = (
                rng.gen_range(0..=urg.width - TILE),
                rng.gen_range(0..=urg.height - TILE),
            );
            let k = first_k + i;
            let kind = if tasks_every > 0 && (k + 1).is_multiple_of(tasks_every) {
                ReqKind::Tasks
            } else {
                ReqKind::Score
            };
            let op = match kind {
                ReqKind::Score => "score",
                ReqKind::Tasks => "tasks",
            };
            let ids: Vec<String> = tile_ids(urg, tile).iter().map(|i| i.to_string()).collect();
            Req {
                due: Duration::from_secs_f64(i as f64 / rate),
                kind,
                tile,
                line: format!("{{\"op\":\"{op}\",\"ids\":[{}]}}", ids.join(",")),
            }
        })
        .collect()
}

/// One POI edit: region `region` takes the feature row `poi`.
#[derive(Clone)]
pub struct Edit {
    pub region: usize,
    pub poi: Vec<f32>,
}

/// `n` edits, each copying a random region's POI row onto another.
pub fn edits(urg: &Urg, rng: &mut uvd_tensor::Rng64, n: usize) -> Vec<Edit> {
    (0..n)
        .map(|_| {
            let region = rng.gen_range(0..urg.n);
            let src = rng.gen_range(0..urg.n);
            Edit {
                region,
                poi: urg.x_poi.row(src).to_vec(),
            }
        })
        .collect()
}

fn edit_line(e: &Edit) -> String {
    // f32 → f64 is exact and the f64 text round-trips, so the server
    // receives exactly these bits.
    let poi: Vec<String> = e
        .poi
        .iter()
        .map(|&v| format!("{:?}", f64::from(v)))
        .collect();
    format!(
        "{{\"op\":\"update_poi\",\"region\":{},\"poi\":[{}]}}",
        e.region,
        poi.join(",")
    )
}

fn reply_ok(reply: Option<&str>) -> bool {
    matches!(reply, Some(r) if r.starts_with("{\"ok\":true"))
}

fn num_field(v: &serde_json::Value, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

fn num_array(v: &serde_json::Value, key: &str) -> Option<Vec<f64>> {
    match v.get(key) {
        Some(serde_json::Value::Array(a)) => a.iter().map(|x| x.as_f64()).collect(),
        _ => None,
    }
}

/// Start the server and wait until it answers `health`; returns the
/// server and the wall time of both together, in seconds.
pub fn start(fx: &Fixture) -> std::io::Result<(Server, f64)> {
    let t = Instant::now();
    let server = Server::start(
        fx.urg.clone(),
        fx.cfg,
        fx.store.clone(),
        ServeOptions {
            embeddings: fx.embeddings.cloned(),
            ..ServeOptions::default()
        },
    )?;
    let reply = request(server.addr(), "{\"op\":\"health\"}")?;
    if !reply_ok(Some(&reply)) {
        return Err(std::io::Error::other(format!("health: {reply}")));
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// Growth over a rung: mean of the last quarter minus mean of the first
/// quarter, ms.
fn growth(xs: &[f64]) -> f64 {
    let q = xs.len() / 4;
    if q == 0 {
        return 0.0;
    }
    mean(&xs[xs.len() - q..]) - mean(&xs[..q])
}

/// Run the plan against a started server that has applied no update yet,
/// then check what it answered.
pub fn run(
    ops: &mut Ops,
    tracer: &mut Tracer,
    fx: &Fixture,
    server: &Server,
    plan: &Plan,
    seed: u64,
) -> Outcome {
    let urg = fx.urg;
    let mut rng = uvd_tensor::seeded_rng(seed ^ 0x5E2F_E000);
    let ladder_s = plan.rung_s * plan.ladder.len() as f64;
    let n_edits = plan.write_rps * (plan.write_s + ladder_s);
    let all_edits = edits(urg, &mut rng, n_edits.ceil() as usize + 2);
    let mut out = Outcome {
        score_lat_ms: vec![],
        tasks_lat_ms: vec![],
        update_lat_ms: vec![],
        late_ms: vec![],
        max_rps: 0.0,
        rungs: vec![],
        stats: String::new(),
    };
    let connect = |addr| -> std::io::Result<TcpStream> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(s)
    };
    let (mut w, upd) = match (connect(server.addr()), connect(server.addr())) {
        (Ok(r), Ok(u)) if u.set_nonblocking(true).is_ok() => (r, u),
        _ => {
            ops.check(false, "generator connects to the server");
            return out;
        }
    };
    let mut updates = Updates {
        conn: upd,
        lines: Lines::default(),
        edits: all_edits.clone(),
        t0: Instant::now(),
        interval: None,
        next: Duration::ZERO,
        sent: Vec::new(),
        phase: 0,
        replies: Vec::new(),
        broken: false,
    };
    let op = tracer.next_op();

    let mut k = 0;
    let mut records: Vec<Vec<Done>> = Vec::new();
    for (phase, secs, write_rps) in [(0, plan.read_s, 0.0), (1, plan.write_s, plan.write_rps)] {
        let reqs = schedule(urg, &mut rng, READ_RPS, secs, k, plan.tasks_every);
        k += reqs.len();
        updates.set_rate(phase, write_rps);
        let _s = tracer.span("bench.serve_nominal", op);
        records.push(drive(&mut w, &reqs, &mut updates));
    }
    updates.set_rate(2, plan.write_rps);
    // A rung fails when a reply fails, its score p99 exceeds the limit, or
    // a backlog grows: the generator falls further behind, or latency
    // climbs from the rung's first quarter to its last. The ladder stops
    // at the first failing rung: past the knee a single connection's
    // backlog lets the server read requests in bulk, so a higher rung can
    // pass again without the service keeping up.
    for &rate in &plan.ladder {
        let reqs = schedule(urg, &mut rng, rate, plan.rung_s, k, plan.tasks_every);
        k += reqs.len();
        let done = {
            let _s = tracer.span("bench.serve_rung", op);
            drive(&mut w, &reqs, &mut updates)
        };
        let lat: Vec<f64> = done
            .iter()
            .filter(|d| d.kind == ReqKind::Score)
            .map(Done::latency_ms)
            .collect();
        let late: Vec<f64> = done.iter().map(Done::late_ms).collect();
        let grew = growth(&late).max(growth(&lat));
        let p99 = percentile(&lat, 99.0);
        let all_ok = done.iter().all(|d| reply_ok(d.reply.as_deref()));
        let pass = all_ok && p99 <= P99_LIMIT_MS && grew < GROWTH_MS;
        out.rungs.push((rate, p99, grew, pass));
        records.push(done);
        if !pass {
            break;
        }
        out.max_rps = rate;
    }
    // Stop the writes and wait for the outstanding ones.
    updates.set_rate(3, 0.0);
    let t_drain = Instant::now();
    while updates.outstanding() && t_drain.elapsed() < REPLY_TIMEOUT {
        updates.service();
        std::thread::sleep(UPDATE_POLL);
    }
    out.stats = request(server.addr(), "{\"op\":\"stats\"}").unwrap_or_default();

    // Accounting and latencies.
    for (phase, done) in records.iter().enumerate() {
        for d in done {
            let ok = reply_ok(d.reply.as_deref());
            ops.record(
                match d.kind {
                    ReqKind::Score => Kind::Score,
                    ReqKind::Tasks => Kind::Tasks,
                },
                ok,
            );
            if phase == 0 {
                out.late_ms.push(d.late_ms());
                match (ok, d.kind) {
                    (true, ReqKind::Score) => out.score_lat_ms.push(d.latency_ms()),
                    (true, ReqKind::Tasks) => out.tasks_lat_ms.push(d.latency_ms()),
                    _ => {}
                }
            }
        }
    }
    let mut applied: Vec<&Edit> = Vec::new();
    let mut versions_ok = true;
    for (i, edit) in all_edits.iter().enumerate().take(updates.sent.len()) {
        let reply = updates.replies.get(i);
        let ok = reply_ok(reply.map(|r| r.1.as_str()));
        ops.record(Kind::Update, ok);
        if let (true, Some((lat, text))) = (ok, reply) {
            if updates.sent[i].1 == 1 {
                out.update_lat_ms.push(*lat);
            }
            applied.push(edit);
            let v = serde_json::from_str_value(text)
                .ok()
                .and_then(|v| num_field(&v, "version"));
            versions_ok &= v == Some(applied.len() as f64);
        }
    }
    ops.check(
        versions_ok,
        "update_poi replies carry versions 1, 2, ... in send order",
    );
    check_replies(ops, fx, &records, &applied);
    out
}

/// Checks on the kept replies: score ranges, served scores bitwise equal
/// to a full recompute at sampled versions, tasks replies equal to the
/// heads run in-process on the same store.
fn check_replies(ops: &mut Ops, fx: &Fixture, records: &[Vec<Done>], applied: &[&Edit]) {
    let urg = fx.urg;
    // (version, tile, scores) of every kept score reply.
    let mut kept: Vec<(usize, (usize, usize), Vec<f64>)> = Vec::new();
    // (tile, classes, access) of every kept tasks reply.
    type TasksReply = ((usize, usize), Vec<f64>, Vec<f64>);
    let mut tasks_kept: Vec<TasksReply> = Vec::new();
    let mut parsed_ok = true;
    for d in records.iter().flatten() {
        let Some(reply) = &d.reply else { continue };
        if reply.len() < 16 || !reply.starts_with("{\"ok\":true") {
            continue;
        }
        let Ok(v) = serde_json::from_str_value(reply) else {
            parsed_ok = false;
            continue;
        };
        match d.kind {
            ReqKind::Score => match (num_field(&v, "version"), num_array(&v, "scores")) {
                (Some(ver), Some(s)) => kept.push((ver as usize, d.tile, s)),
                _ => parsed_ok = false,
            },
            ReqKind::Tasks => match (num_array(&v, "classes"), num_array(&v, "access")) {
                (Some(c), Some(a)) => tasks_kept.push((d.tile, c, a)),
                _ => parsed_ok = false,
            },
        }
    }
    ops.check(parsed_ok, "kept replies parse with the expected fields");
    ops.check(!kept.is_empty(), "score replies were kept for checking");
    ops.check(
        kept.iter()
            .all(|(_, _, s)| s.len() == TILE * TILE && s.iter().all(|p| (0.0..=1.0).contains(p))),
        "served scores: one per id, each in [0, 1]",
    );

    // Sampled versions: lowest, middle and highest seen.
    let mut versions: Vec<usize> = kept.iter().map(|k| k.0).collect();
    versions.sort_unstable();
    versions.dedup();
    let picks: Vec<usize> = if versions.len() <= VERSIONS_CHECKED {
        versions.clone()
    } else {
        vec![
            versions[0],
            versions[versions.len() / 2],
            versions[versions.len() - 1],
        ]
    };
    for &ver in &picks {
        if ver > applied.len() {
            ops.check(
                false,
                &format!("served version {ver} <= {} updates applied", applied.len()),
            );
            continue;
        }
        let mut urg_v = urg.clone();
        let edits_ok = applied[..ver]
            .iter()
            .all(|e| urg_v.update_poi(e.region, &e.poi).is_ok());
        let mut model = Cmsf::new(&urg_v, fx.cfg);
        let restored = model.restore_from_store(fx.store).is_ok();
        let full = model.predict_proba(&urg_v);
        let mut n = 0;
        let same = kept.iter().filter(|k| k.0 == ver).all(|(_, tile, s)| {
            n += 1;
            tile_ids(urg, *tile)
                .iter()
                .zip(s)
                .all(|(&id, &served)| (served as f32).to_bits() == full[id as usize].to_bits())
        });
        ops.check(
            edits_ok && restored && same,
            &format!("{n} served replies at version {ver} equal a full predict_proba bitwise"),
        );
    }

    if let Some(emb_store) = fx.embeddings {
        let emb: Option<&Matrix> = emb_store
            .names()
            .find(|n| n.starts_with(cmsf::EMBED_PREFIX))
            .and_then(|n| emb_store.get(n));
        let Some(emb) = emb else {
            ops.check(false, "embedding store holds an embedding");
            return;
        };
        let mut lu = LandUseHead::new(emb.cols(), &fx.head_cfg);
        let mut ac = AccessibilityHead::new(emb.cols(), &fx.head_cfg);
        let restored = lu.restore(emb_store).is_ok() && ac.restore(emb_store).is_ok();
        let classes = lu.predict(emb);
        let access = ac.predict(emb);
        ops.check(
            !tasks_kept.is_empty(),
            "tasks replies were kept for checking",
        );
        let same = tasks_kept.iter().all(|(tile, c, a)| {
            let ids = tile_ids(urg, *tile);
            c.len() == ids.len()
                && a.len() == ids.len()
                && ids.iter().zip(c.iter().zip(a)).all(|(&id, (&cl, &ac))| {
                    cl == f64::from(classes[id as usize])
                        && (ac as f32).to_bits() == access[id as usize].to_bits()
                })
        });
        ops.check(
            restored && same,
            &format!(
                "{} tasks replies equal LandUseHead/AccessibilityHead run in-process",
                tasks_kept.len()
            ),
        );
    }
}
