//! Chaos soak: the failover client against replicas behind a seeded
//! chaos proxy, through a replica kill and a quarantined store.
//!
//! The invariants under test are the PR's acceptance bar: every client
//! query eventually succeeds with rows byte-identical to mining the
//! store directly, the surviving daemon's panic count stays zero, and
//! the bounded result cache never exceeds its entry cap.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Duration;

use ppm_observe::Json;
use ppm_serve::chaos::{fault_for, ChaosConfig, ChaosFault, ChaosProxy};
use ppm_serve::client::{normalized, Endpoint, FailoverClient, RetryPolicy};
use ppm_serve::protocol::{read_frame, write_frame, VERSION};
use ppm_serve::server::{Bind, BoundAddr, ServeConfig, Server};
use ppm_serve::StoreRegistry;
use ppm_timeseries::columnar::{write_columnar, ColumnarReader};
use ppm_timeseries::{FeatureCatalog, SeriesBuilder};

fn sample_series() -> (ppm_timeseries::FeatureSeries, FeatureCatalog) {
    let mut catalog = FeatureCatalog::new();
    let a = catalog.intern("alpha");
    let b = catalog.intern("beta");
    let mut builder = SeriesBuilder::new();
    for j in 0..30 {
        builder.push_instant([a]);
        builder.push_instant(if j % 3 != 0 { vec![b] } else { vec![] });
        builder.push_instant([]);
    }
    (builder.finish(), catalog)
}

fn sample_store(tag: &str) -> PathBuf {
    let (series, catalog) = sample_series();
    let path = std::env::temp_dir().join(format!("ppm-chaos-{}-{tag}.ppmc", std::process::id()));
    write_columnar(&path, &series, &catalog).unwrap();
    path
}

/// Writes the sample store under `dir` with a fixed file stem, so two
/// daemons can serve the *same store name* from *different files*.
fn replica_store(dir_tag: &str) -> PathBuf {
    let (series, catalog) = sample_series();
    let dir = std::env::temp_dir().join(format!("ppm-chaos-{}-{dir_tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replica.ppmc");
    write_columnar(&path, &series, &catalog).unwrap();
    path
}

struct Daemon {
    addr: std::net::SocketAddr,
    handle: Option<thread::JoinHandle<()>>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl Daemon {
    fn start(store: &PathBuf, tweak: impl FnOnce(&mut ServeConfig)) -> Daemon {
        let registry = StoreRegistry::open(&[store]).unwrap();
        let mut config = ServeConfig::new(Bind::Tcp("127.0.0.1:0".into()));
        tweak(&mut config);
        let server = Server::bind(registry, config).unwrap();
        let addr = match server.local_addr() {
            BoundAddr::Tcp(a) => *a,
            BoundAddr::Unix(_) => unreachable!("bound tcp"),
        };
        let stop = server.stop_handle();
        let handle = thread::spawn(move || server.run().unwrap());
        Daemon {
            addr,
            handle: Some(handle),
            stop,
        }
    }

    /// Hard stop: flip the flag and wait for the accept loop to exit.
    /// From the client's point of view the replica is simply gone.
    fn kill(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().unwrap();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn mine_req(store: &str, period: u64, conf: f64, engine: &str) -> Json {
    obj(vec![
        ("v", Json::from_u64(VERSION)),
        ("op", Json::Str("mine".into())),
        ("store", Json::Str(store.into())),
        ("period", Json::from_u64(period)),
        ("min_conf", Json::Num(conf)),
        ("engine", Json::Str(engine.into())),
        ("limit", Json::from_u64(100)),
    ])
}

fn raw_request(addr: std::net::SocketAddr, req: &Json) -> Json {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut conn, req).unwrap();
    read_frame(&mut conn).unwrap().expect("a response frame")
}

fn direct_rows(store: &PathBuf, period: usize, conf: f64, engine: &str) -> Vec<(String, u64)> {
    let reader = ColumnarReader::open(store).unwrap();
    let config = ppm_core::MineConfig::new(conf).unwrap();
    let result = match engine {
        "apriori" => ppm_core::apriori::mine_view(reader.view(), period, &config),
        "vertical" => ppm_core::vertical::mine_vertical_view(reader.view(), period, &config),
        _ => ppm_core::hitset::mine_view(reader.view(), period, &config),
    }
    .unwrap();
    let mut rows: Vec<_> = result.frequent.iter().collect();
    rows.sort_by(|a, b| {
        b.letters
            .len()
            .cmp(&a.letters.len())
            .then(b.count.cmp(&a.count))
    });
    rows.into_iter()
        .map(|fp| {
            (
                ppm_core::Pattern::from_letter_set(&result.alphabet, &fp.letters)
                    .display(reader.catalog())
                    .to_string(),
                fp.count,
            )
        })
        .collect()
}

fn response_rows(resp: &Json) -> Vec<(String, u64)> {
    resp.get("rows")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|row| {
            let cells = row.as_arr().unwrap();
            (
                cells[0].as_str().unwrap().to_owned(),
                cells[2].as_u64().unwrap(),
            )
        })
        .collect()
}

/// The headline soak: two replicas of one store, replica A reachable
/// only through a seeded chaos proxy, replica A killed mid-load — and
/// every single query still returns rows byte-identical to a direct
/// mine, with zero panics on the survivor and the cache under bound.
#[test]
fn failover_survives_chaos_and_a_replica_kill() {
    const CACHE_CAP: usize = 4;
    let store = sample_store("failover");
    let name = store.file_stem().unwrap().to_str().unwrap().to_owned();
    let mut a = Daemon::start(&store, |c| c.cache_limits.max_entries = CACHE_CAP);
    let b = Daemon::start(&store, |c| c.cache_limits.max_entries = CACHE_CAP);

    // Replica A is only reachable through the proxy; with fault-percent
    // 80 most connections to it are disturbed (delayed, truncated,
    // corrupted, duplicated, or severed) on a schedule fixed by the seed.
    let proxy = ChaosProxy::bind(
        "127.0.0.1:0",
        &a.addr.to_string(),
        ChaosConfig {
            seed: 0xC4405,
            fault_percent: 80,
            delay_ms: 20,
        },
    )
    .unwrap();
    let proxy_addr = proxy.local_addr();
    let proxy_stop = proxy.stop_handle();
    let proxy_thread = thread::spawn(move || proxy.run().unwrap());

    let mut client = FailoverClient::new(
        vec![
            Endpoint::Tcp(proxy_addr.to_string()),
            Endpoint::Tcp(b.addr.to_string()),
        ],
        RetryPolicy {
            retries: 6,
            backoff_ms: 5,
            backoff_max_ms: 50,
            io_timeout_ms: 2_000,
            hedge_after_ms: None,
            seed: 0x5eed,
        },
    );

    // More distinct (engine, period, conf) shapes than cache slots, so
    // eviction must actually run for the bound to hold.
    let mut shapes = Vec::new();
    for engine in ["hitset", "apriori", "vertical"] {
        for period in [2u64, 3, 5] {
            shapes.push((engine, period, 0.5f64));
        }
    }
    for (i, (engine, period, conf)) in shapes.iter().enumerate() {
        // Kill replica A mid-load: from here on only B answers, and the
        // client must carry every remaining query over to it.
        if i == shapes.len() / 2 {
            a.kill();
        }
        let resp = client
            .request(&mine_req(&name, *period, *conf, engine))
            .unwrap_or_else(|e| panic!("query {i} ({engine}/{period}) failed: {e}"));
        assert_eq!(
            resp.get("type").and_then(Json::as_str),
            Some("result"),
            "query {i}: {resp:?}"
        );
        assert_eq!(
            response_rows(&resp),
            direct_rows(&store, *period as usize, *conf, engine),
            "query {i} ({engine}/{period}) must be byte-identical to direct mining"
        );
    }
    assert!(
        client.stats().failovers >= 1,
        "the kill must have forced at least one failover: {:?}",
        client.stats()
    );

    // The survivor took the load without a single contained panic, and
    // its bounded cache held the line.
    let stats = raw_request(
        b.addr,
        &obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("stats".into())),
        ]),
    );
    assert_eq!(
        stats.get("panics").and_then(Json::as_u64),
        Some(0),
        "{stats:?}"
    );
    let cache = stats.get("cache").unwrap();
    let entries = cache.get("entries").and_then(Json::as_u64).unwrap() as usize;
    assert!(entries <= CACHE_CAP, "cache over bound: {cache:?}");
    assert!(
        cache.get("evictions").and_then(Json::as_u64).unwrap() >= 1,
        "more shapes than slots must evict: {cache:?}"
    );

    proxy_stop.store(true, Ordering::SeqCst);
    proxy_thread.join().unwrap();
    drop(b);
    std::fs::remove_file(store).ok();
}

/// A quarantined store is replica-local: the client routes around it to
/// a replica whose copy of the same store is healthy.
#[test]
fn quarantined_store_fails_over_to_a_healthy_replica() {
    let store_a = replica_store("qa");
    let store_b = replica_store("qb");
    let a = Daemon::start(&store_a, |c| c.verify_interval_ms = 0);
    let b = Daemon::start(&store_b, |c| c.verify_interval_ms = 0);

    // Rot replica A's file on disk, then force a recheck through the
    // health op: A must report degraded while B stays clean.
    let good = std::fs::read(&store_a).unwrap();
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xff;
    std::fs::write(&store_a, &bad).unwrap();
    let health = raw_request(
        a.addr,
        &obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("health".into())),
            ("recheck", Json::Bool(true)),
        ]),
    );
    assert_eq!(
        health.get("degraded"),
        Some(&Json::Bool(true)),
        "{health:?}"
    );
    assert_eq!(
        health.get("stores_quarantined").and_then(Json::as_u64),
        Some(1)
    );

    // Asking A directly gets the typed quarantine error with the
    // replica-local marker the client keys its failover on.
    let direct = raw_request(a.addr, &mine_req("replica", 3, 0.5, "hitset"));
    assert_eq!(direct.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(direct.get("code").and_then(Json::as_u64), Some(4));
    assert_eq!(
        direct.get("store_quarantined"),
        Some(&Json::Bool(true)),
        "{direct:?}"
    );

    // The failover client prefers A, eats the quarantine error, and
    // completes against B — byte-identical to a direct mine.
    let mut client = FailoverClient::new(
        vec![
            Endpoint::Tcp(a.addr.to_string()),
            Endpoint::Tcp(b.addr.to_string()),
        ],
        RetryPolicy {
            retries: 2,
            backoff_ms: 5,
            backoff_max_ms: 20,
            io_timeout_ms: 2_000,
            hedge_after_ms: None,
            seed: 11,
        },
    );
    let resp = client
        .request(&mine_req("replica", 3, 0.5, "hitset"))
        .unwrap();
    assert_eq!(
        resp.get("type").and_then(Json::as_str),
        Some("result"),
        "{resp:?}"
    );
    assert_eq!(
        response_rows(&resp),
        direct_rows(&store_b, 3, 0.5, "hitset")
    );
    assert!(client.stats().failovers >= 1, "{:?}", client.stats());

    // Healing: restore the file, recheck, and A serves again.
    std::fs::write(&store_a, &good).unwrap();
    let health = raw_request(
        a.addr,
        &obj(vec![
            ("v", Json::from_u64(VERSION)),
            ("op", Json::Str("health".into())),
            ("recheck", Json::Bool(true)),
        ]),
    );
    assert_eq!(
        health.get("degraded"),
        Some(&Json::Bool(false)),
        "{health:?}"
    );
    let resp = raw_request(a.addr, &mine_req("replica", 3, 0.5, "hitset"));
    assert_eq!(
        resp.get("type").and_then(Json::as_str),
        Some("result"),
        "{resp:?}"
    );

    drop(a);
    drop(b);
    std::fs::remove_file(&store_a).ok();
    std::fs::remove_file(&store_b).ok();
}

/// Hedged requests race two replicas and must agree byte-for-byte.
#[test]
fn hedging_races_replicas_and_answers_stay_identical() {
    let store = sample_store("hedge");
    let name = store.file_stem().unwrap().to_str().unwrap().to_owned();
    let a = Daemon::start(&store, |_| {});
    let b = Daemon::start(&store, |_| {});

    // Replica A sits behind a proxy that holds every response for 50ms,
    // far past the 1ms hedge threshold: the first request goes to A and
    // must hedge to B, however fast the daemons answer. Each request
    // opens at most one connection to A, so a seed whose schedule delays
    // the first eight connections delays all of them.
    let mut config = ChaosConfig {
        seed: 0,
        fault_percent: 100,
        delay_ms: 50,
    };
    while !(0..8).all(|i| fault_for(&config, i) == ChaosFault::Delay) {
        config.seed += 1;
    }
    let proxy = ChaosProxy::bind("127.0.0.1:0", &a.addr.to_string(), config).unwrap();
    let proxy_addr = proxy.local_addr();
    let proxy_stop = proxy.stop_handle();
    let proxy_thread = thread::spawn(move || proxy.run().unwrap());

    let mut client = FailoverClient::new(
        vec![
            Endpoint::Tcp(proxy_addr.to_string()),
            Endpoint::Tcp(b.addr.to_string()),
        ],
        RetryPolicy {
            retries: 3,
            backoff_ms: 5,
            backoff_max_ms: 20,
            io_timeout_ms: 2_000,
            hedge_after_ms: Some(1),
            seed: 99,
        },
    );
    let mut last = None;
    for i in 0..6 {
        let resp = client
            .request(&mine_req(&name, 3, 0.5, "vertical"))
            .unwrap_or_else(|e| panic!("hedged query {i} failed: {e}"));
        assert_eq!(
            resp.get("type").and_then(Json::as_str),
            Some("result"),
            "{resp:?}"
        );
        let norm = normalized(&resp);
        if let Some(prev) = &last {
            assert_eq!(&norm, prev, "hedged answers drifted between requests");
        }
        last = Some(norm);
    }
    assert_eq!(
        response_rows(&raw_request(a.addr, &mine_req(&name, 3, 0.5, "vertical"))),
        direct_rows(&store, 3, 0.5, "vertical"),
    );
    assert!(
        client.stats().hedges >= 1,
        "a 50ms replica behind a 1ms threshold must hedge: {:?}",
        client.stats()
    );

    proxy_stop.store(true, Ordering::SeqCst);
    proxy_thread.join().unwrap();
    drop(a);
    drop(b);
    std::fs::remove_file(store).ok();
}
