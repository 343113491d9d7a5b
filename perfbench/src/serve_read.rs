//! Phase `serve-read`: an in-process daemon (shipped defaults, TCP
//! loopback) with the store resident and the cache warmed for every
//! period of 28..=32 at 0.6, read by two closed-loop clients:
//!
//! * `client0` uses `FailoverClient`, one new connection per request, as
//!   `ppm query` does;
//! * `client1` keeps one persistent connection and speaks `protocol`
//!   frames itself, reconnecting when the daemon's per-connection
//!   request budget is spent.
//!
//! The two send 59 exact cache hits (0.6) to 40 anti-monotone derived
//! answers (0.7, 0.8 or 0.9), in a seeded order. The hit/derived split
//! and the uniform period and confidence choices are an assumption no
//! recorded traffic backs (see the README).
//!
//! The ~1% of cache-bypassing `no_cache` mines of the specified mix are
//! not sent with the rest: a miss takes over a hundred times as long as
//! a hit, so 1% of requests would take over half of `client0`'s time,
//! and `serve_qps` would count how many misses fell in a run. The mix
//! runs for half the budget; in the other half one client sends only
//! `no_cache` mines at the planted period on the wire-default engine, one
//! at a time with nothing else running, each timed by this process's
//! CPU time ([`cpu_ms`]: the client's and the daemon's together), scaled
//! to the nominal machine speed by a calibration pass before each
//! ([`calib`]), for `miss_cpu_ms`. A miss mines, so it is CPU-bound,
//! and CPU time leaves out the waits for a CPU that make a shared
//! machine's wall times drift.

use std::collections::HashMap;
use std::io::Cursor;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ppm_observe::Json;
use ppm_serve::protocol::{read_frame, write_frame};
use ppm_serve::{Bind, Endpoint, FailoverClient, RetryPolicy, ServeConfig};
use ppm_timeseries::columnar::ColumnarReader;

use crate::daemon::{is_result, num, Daemon};
use crate::setup::{MIN_CONF, PERIOD, PERIODS};
use crate::trace::{self, timed, timed_request, Tracer};
use crate::util::{cpu_ms, median, ms_since, peak_rss_mb, quantile, Outcome, Rng};
use crate::Ctx;
use crate::{calib, check};

const DERIVED_CONFS: [f64; 3] = [0.7, 0.8, 0.9];
/// Connects timed from outside in a traced run.
const CONNECT_PROBES: usize = 20;
/// Fewest misses timed alone, however short the budget.
const MIN_QUIET_MISSES: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Hit,
    Derived,
    Miss,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Hit => "serve.hit",
            Kind::Derived => "serve.derived",
            Kind::Miss => "serve.miss",
        }
    }
}

/// The seeded request mix: `(kind, period, min_conf)`.
struct Mix {
    rng: Rng,
    block: Vec<Kind>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng::new(seed),
            block: Vec::new(),
        }
    }

    fn next(&mut self) -> (Kind, usize, f64) {
        if self.block.is_empty() {
            self.block = [(Kind::Derived, 40), (Kind::Hit, 59)]
                .iter()
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
                .collect();
            self.rng.shuffle(&mut self.block);
        }
        let kind = self.block.pop().expect("refilled");
        let period = PERIODS[self.rng.below(PERIODS.len())];
        let min_conf = match kind {
            Kind::Hit => MIN_CONF,
            _ => DERIVED_CONFS[self.rng.below(DERIVED_CONFS.len())],
        };
        (kind, period, min_conf)
    }
}

struct Sample {
    kind: Kind,
    period: usize,
    min_conf: f64,
    ms: f64,
    reply: Result<Json, String>,
}

/// One client's closed loop until `deadline`.
fn drive(
    daemon: &Daemon,
    mut mix: Mix,
    deadline: Instant,
    mut send: impl FnMut(&Json) -> Result<Json, String>,
) -> Vec<Sample> {
    let mut out = Vec::new();
    while Instant::now() < deadline {
        let (kind, period, min_conf) = mix.next();
        let req = daemon.mine_req(period, min_conf, None, false);
        let (reply, ms, _) = timed_request(kind.span(), || send(&req));
        out.push(Sample {
            kind,
            period,
            min_conf,
            ms,
            reply,
        });
    }
    out
}

pub fn run(ctx: &Ctx, budget: Duration, tr: Option<&Tracer>) -> Outcome {
    let mut o = Outcome::default();
    let daemon = match Daemon::start(&ctx.inputs.store) {
        Ok(d) => d,
        Err(e) => {
            o.fail(format!("daemon failed to start: {e}"));
            return o;
        }
    };
    for p in PERIODS {
        let warm = daemon.once(&daemon.mine_req(p, MIN_CONF, None, false));
        if !warm.as_ref().is_ok_and(is_result) {
            o.fail(format!("warm-up mine at period {p} failed: {warm:?}"));
            return o;
        }
    }
    let hit_req = daemon.mine_req(PERIOD, MIN_CONF, None, false);
    let per_conn = ServeConfig::new(Bind::Tcp(String::new())).max_requests_per_conn;

    // The program's spans from here on come from the misses, the only
    // requests that mine.
    let mark = tr.map_or(0, |t| t.events().len());
    let started = Instant::now();
    let deadline = started + budget / 2;
    let obs = ppm_observe::current();
    let ((a, attempts), (b, connects)) = std::thread::scope(|s| {
        let obs_a = obs.clone();
        let a = s.spawn(|| {
            let _g = ppm_observe::attach(obs_a);
            let endpoint = Endpoint::Tcp(daemon.addr.to_string());
            let mut client = FailoverClient::new(vec![endpoint], RetryPolicy::default());
            let mix = Mix::new(ctx.seed);
            let samples = drive(&daemon, mix, deadline, |req| {
                client.request(req).map_err(|e| e.to_string())
            });
            (samples, client.stats().attempts)
        });
        let obs_b = obs.clone();
        let b = s.spawn(|| {
            let _g = ppm_observe::attach(obs_b);
            let mut conn: Option<(TcpStream, u64)> = None;
            let mut connects = Vec::new();
            let mix = Mix::new(ctx.seed ^ 0x5eed);
            let samples = drive(&daemon, mix, deadline, |req| {
                if conn.as_ref().is_none_or(|c| c.1 >= per_conn) {
                    let (s, ms) = timed("client.connect", || TcpStream::connect(daemon.addr));
                    connects.push(ms);
                    conn = Some((s.map_err(|e| e.to_string())?, 0));
                }
                let (s, served) = conn.as_mut().expect("connected");
                *served += 1;
                let reply = exchange(s, req);
                if reply.is_err() {
                    // A broken connection is replaced, not reused.
                    conn = None;
                }
                reply
            });
            (samples, connects)
        });
        (
            a.join().expect("client0 panicked"),
            b.join().expect("client1 panicked"),
        )
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let stats = daemon.once(&Daemon::op_req("stats"));

    let mut quiet = Vec::new();
    let (mut quiet_cpu, mut passes) = (Vec::new(), Vec::new());
    let miss_req = daemon.mine_req(PERIOD, MIN_CONF, None, true);
    while quiet.len() < MIN_QUIET_MISSES || started.elapsed() < budget {
        passes.push(calib::pass());
        let cpu_before = cpu_ms();
        let (reply, ms, _) = timed_request(Kind::Miss.span(), || daemon.once(&miss_req));
        quiet_cpu.push(cpu_ms() - cpu_before);
        quiet.push(Sample {
            kind: Kind::Miss,
            period: PERIOD,
            min_conf: MIN_CONF,
            ms,
            reply,
        });
    }
    let rss = peak_rss_mb();

    let mut connect_ms = connects;
    if tr.is_some() {
        for _ in 0..CONNECT_PROBES {
            if let (Ok(_), ms) = timed("client.connect", || TcpStream::connect(daemon.addr)) {
                connect_ms.push(ms);
            }
        }
    }
    if let Err(e) = daemon.stop() {
        o.fail(e);
    }

    // Checks: every reply equals a direct cold mine at its (period,
    // min_conf).
    let reader = ColumnarReader::open(&ctx.inputs.store).expect("store opens");
    let mut expected: HashMap<(usize, u64), String> = HashMap::new();
    for (client, samples) in [("client0", &a), ("client1", &b), ("misses", &quiet)] {
        for s in samples {
            o.attempted += 1;
            let want = expected
                .entry((s.period, s.min_conf.to_bits()))
                .or_insert_with(|| {
                    let r = check::reference(reader.view(), s.period, s.min_conf);
                    check::reply_digest(&r, reader.catalog())
                });
            match &s.reply {
                Err(e) => o.fail(format!("{client} request failed: {e}")),
                Ok(r) if !is_result(r) => o.fail(format!("{client} refused: {}", r.render())),
                Ok(r) if check::digest_of_reply(r) != *want => o.wrong(
                    1,
                    format!(
                        "{client} wrong answer at period {} conf {}",
                        s.period, s.min_conf
                    ),
                ),
                Ok(_) => {}
            }
        }
    }

    let ms_of = |samples: &[Sample], kind: Kind| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect()
    };
    let hits = ms_of(&a, Kind::Hit);
    let keepalive = ms_of(&b, Kind::Hit);
    let misses = ms_of(&quiet, Kind::Miss);
    let Some(t) = tr else {
        o.metric("hit_rtt_ms", median(&hits), "ms");
        o.metric("keepalive_rtt_ms", median(&keepalive), "ms");
        o.metric("keepalive_rtt_p90_ms", quantile(&keepalive, 0.9), "ms");
        let quiet_cpu = calib::normalize(&quiet_cpu, &passes);
        o.metric("miss_cpu_ms", median(&quiet_cpu), "ms");
        o.metric("serve_qps", (a.len() + b.len()) as f64 / elapsed_s, "1/s");
        o.metric("serve_rss_mb", rss, "MB");
        o.op_ms = vec![
            ("hit", median(&hits)),
            ("keepalive_hit", median(&keepalive)),
            ("miss", median(&misses)),
        ];
        return o;
    };

    // Traced: the daemon's own histograms, plus frame coding timed on
    // in-memory buffers of this workload's frames.
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            o.fail(format!("stats op failed: {e}"));
            return o;
        }
    };
    let us = |h: &str, q: &str| num(&stats, &["latency", h, q]).unwrap_or(f64::NAN);
    let cache = |k: &str| num(&stats, &["cache", k]).unwrap_or(f64::NAN);
    let (queue50, queue99) = (us("queue_wait", "p50_us"), us("queue_wait", "p99_us"));
    let (service50, service99) = (us("service", "p50_us"), us("service", "p99_us"));
    let frames: Vec<&Json> = [&a, &b]
        .iter()
        .flat_map(|v| v.iter().find(|s| s.kind == Kind::Hit))
        .filter_map(|s| s.reply.as_ref().ok())
        .collect();
    let (encode_us, decode_us) = match frames.first() {
        Some(reply) => frame_costs(&[&hit_req, reply]),
        None => (f64::NAN, f64::NAN),
    };
    let answered = cache("hits") + cache("derived");

    let events = t.events();
    let miss_layer = |name: &str| median(&trace::span_ms(&events[mark..], name));
    let hit = median(&hits);
    let ka = median(&keepalive);
    let miss = median(&misses);
    let connect = median(&connect_ms);
    let proto_ms = (encode_us + decode_us) / 1e3;
    o.breakdown = vec![
        (
            "hit",
            hit,
            vec![
                ("client.connect", connect),
                ("protocol.encode+decode", proto_ms),
                ("server.queue_wait", queue50 / 1e3),
                ("server.service", service50 / 1e3),
            ],
        ),
        (
            "keepalive_hit",
            ka,
            vec![
                ("protocol.encode+decode", proto_ms),
                ("server.service", service50 / 1e3),
            ],
        ),
        (
            "miss",
            miss,
            vec![
                ("hitset.scan1", miss_layer("hitset.scan1")),
                ("hitset.scan2", miss_layer("hitset.scan2")),
                ("hitset.derive", miss_layer("hitset.derive")),
            ],
        ),
    ];
    o.metric("cache.lookup_us", us("cache_lookup", "p50_us"), "us");
    o.metric(
        "cache.answer_ratio",
        answered / (answered + cache("misses")),
        "ratio",
    );
    o.metric("server.queue_wait_p50_us", queue50, "us");
    o.metric("server.queue_wait_p99_us", queue99, "us");
    o.metric("server.service_p50_us", service50, "us");
    o.metric("server.service_p99_us", service99, "us");
    o.metric("server.wire_ms", hit - (queue50 + service50) / 1e3, "ms");
    o.metric("server.wire_keepalive_ms", ka - service50 / 1e3, "ms");
    o.metric("protocol.encode_us", encode_us, "us");
    o.metric("protocol.decode_us", decode_us, "us");
    o.metric("client.connect_ms", connect, "ms");
    o.metric(
        "client.attempts_per_request",
        attempts as f64 / a.len() as f64,
        "count",
    );
    o
}

/// One request on the kept-alive connection, each frame in a span of its
/// own.
fn exchange(s: &mut TcpStream, req: &Json) -> Result<Json, String> {
    let (w, _) = timed("protocol.write_frame", || write_frame(s, req));
    w.map_err(|e| e.to_string())?;
    let (r, _) = timed("protocol.read_frame", || read_frame(s));
    r.map_err(|e| e.to_string())?
        .ok_or_else(|| "connection closed before a reply".to_owned())
}

/// Median µs to `write_frame` and to `read_frame` all of `frames` once,
/// on in-memory buffers.
fn frame_costs(frames: &[&Json]) -> (f64, f64) {
    const BATCH: usize = 50;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut buf = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        for _ in 0..BATCH {
            buf.clear();
            for f in frames {
                write_frame(&mut buf, f).expect("in-memory write");
            }
        }
        enc.push(ms_since(t) * 1e3 / BATCH as f64);
        let t = Instant::now();
        for _ in 0..BATCH {
            let mut cur = Cursor::new(&buf);
            for _ in frames {
                std::hint::black_box(read_frame(&mut cur).expect("in-memory read"));
            }
        }
        dec.push(ms_since(t) * 1e3 / BATCH as f64);
    }
    (median(&enc), median(&dec))
}
