//! Phase `ingest-append`: a fresh in-process daemon over a private copy
//! of the store and one closed-loop client (one connection per request,
//! as `ppm query` does):
//!
//! 1. an `incremental` mine at each period of 28..=32, which builds one
//!    live index per period (before that, 14 fresh daemons in turn
//!    each take one first `incremental` mine at period 30, for more
//!    samples; the appends go to the 15th);
//! 2. then, until the budget is spent, a durable `append` of one
//!    30-instant segment of the second generated series, followed by an
//!    `incremental` re-mine at every period of 28..=32.
//!
//! Only the planted period 30 has frequent letters, so only there does a
//! re-mine re-derive a lattice; at the other periods F1 is empty and a
//! re-mine is trivial or a cache hit. `first_incremental_cpu_ms` and
//! `remine_ms` therefore time period 30 alone; the other periods' mines
//! stay as load. Every append publishes with one fsync, as shipped.
//!
//! `first_incremental_cpu_ms` is the CPU time ([`cpu_ms`]) this process
//! spends over a first incremental mine: the client's and the daemon's,
//! the op's only client, together, scaled to the nominal machine speed
//! by a calibration pass before each ([`calib`]). An index build is
//! CPU-bound, and CPU time leaves out the waits for a CPU that make a
//! shared machine's wall times drift.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ppm_core::vertical::incremental::IncrementalVerticalIndex;
use ppm_core::MineConfig;
use ppm_observe::Json;
use ppm_timeseries::columnar::{ColumnarAppender, ColumnarReader};
use ppm_timeseries::{EncodedSeriesView, FeatureId};

use crate::daemon::{is_result, num, Daemon};
use crate::setup::{MIN_CONF, PERIOD, PERIODS};
use crate::trace::{self, timed, timed_request, Tracer};
use crate::util::{cpu_ms, median, peak_rss_mb, reset_peak_rss, Outcome};
use crate::Ctx;
use crate::{calib, check};

/// Every this-many appends, one re-mine that follows is checked.
const CHECK_EVERY: usize = 8;
/// Fewest append + re-mine rounds, however short the budget.
const MIN_APPENDS: usize = 3;
/// Fresh daemons, each taking one first `incremental` mine at the
/// planted period; the last builds the other periods' live indexes too,
/// and takes the appends.
const FIRST_ROUNDS: usize = 15;
/// Index builds and appends a traced run makes through the columnar and
/// incremental layers' public functions, outside the daemon.
const PROBE_BUILDS: usize = 3;
const PROBE_APPENDS: usize = 8;

/// One mine reply kept for checking: period, appends before it, reply.
type Kept = (usize, usize, Result<Json, String>);

fn incremental(daemon: &Daemon, period: usize) -> Result<Json, String> {
    daemon.once(&daemon.mine_req(period, MIN_CONF, Some("incremental"), false))
}

fn stop(daemon: Daemon, o: &mut Outcome) {
    if let Err(e) = daemon.stop() {
        o.fail(e);
    }
}

pub fn run(ctx: &Ctx, budget: Duration, tr: Option<&Tracer>) -> Outcome {
    let mut o = Outcome::default();
    let copy = ctx.inputs.dir.join(format!("ingest{}.ppmc", ctx.sub));
    std::fs::copy(&ctx.inputs.store, &copy).expect("store copies");
    let src = ColumnarReader::open(&ctx.inputs.append_src).expect("append source opens");
    let segments = segment_rows(&src);
    let mut kept: Vec<Kept> = Vec::new();
    let (mut first, mut first_cpu, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let mut live = None;
    for round in 0..FIRST_ROUNDS {
        if let Some(d) = live.take() {
            stop(d, &mut o);
        }
        let daemon = match Daemon::start(&copy) {
            Ok(d) => d,
            Err(e) => {
                o.fail(format!("daemon failed to start: {e}"));
                return o;
            }
        };
        let periods: &[usize] = if round + 1 == FIRST_ROUNDS {
            &PERIODS
        } else {
            &[PERIOD]
        };
        for &p in periods {
            if p == PERIOD {
                passes.push(calib::pass());
            }
            let cpu_before = cpu_ms();
            let (reply, ms, _) = timed_request("first_incremental", || incremental(&daemon, p));
            if p == PERIOD {
                first.push(ms);
                first_cpu.push(cpu_ms() - cpu_before);
            }
            kept.push((p, 0, reply));
        }
        live = Some(daemon);
    }
    let daemon = live.expect("at least one round");
    // `ingest_rss_mb` is the append loop's peak, with the five live
    // indexes resident; the earlier daemons' heaps, freed, would add
    // whatever the allocator kept of them.
    if let Err(e) = reset_peak_rss() {
        o.fail(format!("cannot reset the peak RSS: {e}"));
    }
    let append_req = |rows: &Json| {
        Json::Obj(vec![
            ("v".to_owned(), Json::from_u64(1)),
            ("op".to_owned(), Json::Str("append".into())),
            ("store".to_owned(), Json::Str(daemon.store.clone())),
            ("rows".to_owned(), rows.clone()),
        ])
    };

    let started = Instant::now();
    let (mut append_ms, mut remine_ms) = (Vec::new(), Vec::new());
    let mut appends = 0;
    while appends < MIN_APPENDS || started.elapsed() < budget {
        let rows = &segments[appends % segments.len()];
        let (reply, ms, _) = timed_request("append", || daemon.once(&append_req(rows)));
        o.attempted += 1;
        match reply {
            Ok(r) if !is_result(&r) => o.fail(format!("append {appends} refused: {}", r.render())),
            Ok(r) if num(&r, &["appended"]) != Ok(PERIOD as f64) => o.wrong(
                1,
                format!("append {appends} appended a wrong count: {}", r.render()),
            ),
            Ok(_) => append_ms.push(ms),
            Err(e) => o.fail(format!("append {appends} failed: {e}")),
        }
        appends += 1;
        // Every CHECK_EVERY-th append, one of its re-mines (the periods
        // take turns) is kept for checking.
        let checked =
            (appends % CHECK_EVERY == 0).then(|| PERIODS[(appends / CHECK_EVERY) % PERIODS.len()]);
        for p in PERIODS {
            let (reply, ms, _) = timed_request("remine", || incremental(&daemon, p));
            if p == PERIOD {
                remine_ms.push(ms);
            }
            if checked == Some(p) {
                kept.push((p, appends, reply));
            } else {
                o.attempted += 1;
                match reply {
                    Ok(r) if is_result(&r) => {}
                    other => o.fail(format!("re-mine after append {appends}: {other:?}")),
                }
            }
        }
    }
    let rss = peak_rss_mb();
    let stats = daemon.once(&Daemon::op_req("stats"));
    for p in PERIODS {
        kept.push((p, appends, incremental(&daemon, p)));
    }
    stop(daemon, &mut o);

    // Checks: each kept reply equals a cold vertical mine of the store as
    // it stood then, a prefix of the final file (appends only extend).
    let grown = ColumnarReader::open(&copy).expect("grown store opens");
    let wpi = grown.view().words_per_instant();
    let words: Vec<u64> = (0..grown.len())
        .flat_map(|t| grown.view().instant_words(t).to_vec())
        .collect();
    let base = grown.len() - appends * PERIOD;
    let mut expected = HashMap::new();
    for (p, k, reply) in &kept {
        o.attempted += 1;
        let want = expected.entry((*p, *k)).or_insert_with(|| {
            let n = base + k * PERIOD;
            let view = EncodedSeriesView::new(grown.width(), n, &words[..n * wpi]);
            check::reply_digest(&check::reference(view, *p, MIN_CONF), grown.catalog())
        });
        match reply {
            Ok(r) if !is_result(r) => o.fail(format!("incremental mine refused: {}", r.render())),
            Ok(r) if check::digest_of_reply(r) != *want => o.wrong(
                1,
                format!("incremental mine at period {p} after {k} appends is wrong: {r:?}"),
            ),
            Ok(_) => {}
            Err(e) => o.fail(format!("incremental mine at period {p} failed: {e}")),
        }
    }
    drop(words);
    std::fs::remove_file(&copy).ok();

    let Some(t) = tr else {
        o.metric("append_ms", median(&append_ms), "ms");
        o.metric("remine_ms", median(&remine_ms), "ms");
        let first_cpu = calib::normalize(&first_cpu, &passes);
        o.metric("first_incremental_cpu_ms", median(&first_cpu), "ms");
        o.metric("ingest_rss_mb", rss, "MB");
        o.op_ms = vec![
            ("append", median(&append_ms)),
            ("remine", median(&remine_ms)),
            ("first_incremental", median(&first)),
        ];
        return o;
    };

    let p = probe(ctx, t, &src);
    let index_bytes = stats
        .and_then(|s| num(&s, &["index_bytes"]))
        .unwrap_or(f64::NAN);
    o.breakdown = vec![
        (
            "append",
            median(&append_ms),
            vec![
                ("columnar.appender_open", median(&p.open)),
                ("columnar.publish", median(&p.publish)),
            ],
        ),
        (
            "remine",
            median(&remine_ms),
            vec![("incremental.append_rederive", median(&p.rederive))],
        ),
        (
            "first_incremental",
            median(&first),
            vec![
                ("incremental.build", median(&p.build)),
                ("incremental.first_derive", median(&p.first_derive)),
            ],
        ),
    ];
    o.metric("columnar.appender_open_ms", median(&p.open), "ms");
    o.metric("columnar.publish_ms", median(&p.publish), "ms");
    o.metric("columnar.write_amp", median(&p.write_amp), "count");
    o.metric("incremental.build_ms", median(&p.build), "ms");
    o.metric("incremental.rederive_ms", median(&p.rederive), "ms");
    o.metric("incremental.carried_ratio", p.carried_ratio, "ratio");
    o.metric("incremental.index_bytes", index_bytes, "bytes");
    o
}

/// Each 30-instant segment of `src` as an `append` op's `rows`.
fn segment_rows(src: &ColumnarReader) -> Vec<Json> {
    let view = src.view();
    let name = |f: FeatureId| Json::Str(src.catalog().name(f).expect("named feature").to_owned());
    (0..view.len() / PERIOD)
        .map(|s| {
            Json::Arr(
                (s * PERIOD..(s + 1) * PERIOD)
                    .map(|t| Json::Arr(view.features_at(t).map(name).collect()))
                    .collect(),
            )
        })
        .collect()
}

#[derive(Default)]
struct Probe {
    open: Vec<f64>,
    publish: Vec<f64>,
    write_amp: Vec<f64>,
    build: Vec<f64>,
    first_derive: Vec<f64>,
    rederive: Vec<f64>,
    carried_ratio: f64,
}

/// Builds, appends and re-mines at the planted period through the
/// layers' public functions, outside the daemon, on a copy of the store
/// of its own.
fn probe(ctx: &Ctx, t: &Tracer, src: &ColumnarReader) -> Probe {
    let mut p = Probe::default();
    let path = ctx.inputs.dir.join(format!("probe{}.ppmc", ctx.sub));
    std::fs::copy(&ctx.inputs.store, &path).expect("store copies");
    let config = MineConfig::new(MIN_CONF).expect("valid min_conf");
    let mut reader = ColumnarReader::open(&path).expect("probe store opens");
    let mut built = None;
    for _ in 0..PROBE_BUILDS {
        let _req = trace::request("probe.first_incremental");
        let (mut idx, ms) = timed("incremental.build", || {
            IncrementalVerticalIndex::from_view(reader.view(), PERIOD, None)
        });
        p.build.push(ms);
        let (_, ms) = timed("incremental.first_derive", || {
            idx.rederive_dirty(&config).expect("derive")
        });
        p.first_derive.push(ms);
        built = Some(idx);
    }
    let mut idx = built.expect("at least one build");
    let mark = t.events().len();
    let src_view = src.view();
    for k in 0..PROBE_APPENDS {
        let _req = trace::request("probe.append");
        let (appender, ms) = timed("columnar.appender_open", || {
            ColumnarAppender::open(&path).expect("appender opens")
        });
        p.open.push(ms);
        let mut appender = appender;
        for i in k * PERIOD..(k + 1) * PERIOD {
            let feats: Vec<FeatureId> = src_view
                .features_at(i)
                .map(|f| {
                    reader
                        .catalog()
                        .get(src.catalog().name(f).expect("named"))
                        .expect("known")
                })
                .collect();
            appender.append_instant(&feats).expect("row fits");
        }
        let (published, ms) = timed("columnar.publish", || {
            appender.finish_extending(&reader).expect("publishes")
        });
        p.publish.push(ms);
        let written = std::fs::metadata(&path).map_or(f64::NAN, |m| m.len() as f64);
        p.write_amp
            .push(written / (PERIOD * reader.view().words_per_instant() * 8) as f64);
        let grown = published.1;
        // Named apart from the program's own `incremental.rederive` span,
        // which nests inside it.
        let (_, ms) = timed("incremental.append_rederive", || {
            for seg in reader.len() / PERIOD..grown.len() / PERIOD {
                idx.append_from_view(grown.view(), seg);
            }
            idx.rederive_dirty(&config).expect("rederive")
        });
        p.rederive.push(ms);
        reader = grown;
    }
    let events = t.events();
    let gauge_sum = |name: &str| -> f64 { trace::gauge_values(&events[mark..], name).iter().sum() };
    let carried = gauge_sum("incremental.carried");
    p.carried_ratio = carried
        / (carried + gauge_sum("incremental.delta_counts") + gauge_sum("incremental.full_counts"));
    std::fs::remove_file(&path).ok();
    p
}
