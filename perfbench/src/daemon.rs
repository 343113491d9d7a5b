//! An in-process `ppm serve` daemon with shipped defaults on TCP
//! loopback, and the request helpers the phases share.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ppm_observe::Json;
use ppm_serve::protocol::{read_frame, write_frame};
use ppm_serve::{Bind, BoundAddr, ServeConfig, Server, StoreRegistry};

pub struct Daemon {
    pub addr: SocketAddr,
    /// The store's query name (its file stem).
    pub store: String,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Daemon {
    /// Opens `store` and serves it until [`Daemon::stop`]. The daemon's
    /// threads inherit the caller's observability context.
    pub fn start(store: &Path) -> Result<Daemon, String> {
        let registry = StoreRegistry::open(&[store])?;
        let name = registry.iter().next().expect("one store").name.clone();
        let config = ServeConfig::new(Bind::Tcp("127.0.0.1:0".into()));
        let server = Server::bind(registry, config).map_err(|e| format!("bind: {e}"))?;
        let addr = match server.local_addr() {
            BoundAddr::Tcp(a) => *a,
            BoundAddr::Unix(_) => unreachable!("bound to TCP"),
        };
        let stop = server.stop_handle();
        let obs = ppm_observe::current();
        let thread = std::thread::spawn(move || {
            let _g = ppm_observe::attach(obs);
            server.run()
        });
        Ok(Daemon {
            addr,
            store: name,
            stop,
            thread: Some(thread),
        })
    }

    /// Requests shutdown and waits for the daemon to drain and exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon exited with {e}")),
            Some(Err(_)) => Err("daemon thread panicked".into()),
        }
    }

    /// A `mine` request for this daemon's store.
    pub fn mine_req(
        &self,
        period: usize,
        min_conf: f64,
        engine: Option<&str>,
        no_cache: bool,
    ) -> Json {
        let mut f = vec![
            ("v".to_owned(), Json::from_u64(1)),
            ("op".to_owned(), Json::Str("mine".into())),
            ("store".to_owned(), Json::Str(self.store.clone())),
            ("period".to_owned(), Json::from_usize(period)),
            ("min_conf".to_owned(), Json::Num(min_conf)),
        ];
        if let Some(e) = engine {
            f.push(("engine".to_owned(), Json::Str(e.into())));
        }
        if no_cache {
            f.push(("no_cache".to_owned(), Json::Bool(true)));
        }
        Json::Obj(f)
    }

    /// A bare op with no arguments (`stats`).
    pub fn op_req(op: &str) -> Json {
        Json::Obj(vec![
            ("v".to_owned(), Json::from_u64(1)),
            ("op".to_owned(), Json::Str(op.into())),
        ])
    }

    /// One request on a connection of its own.
    pub fn once(&self, req: &Json) -> Result<Json, String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        write_frame(&mut s, req).map_err(|e| format!("write: {e}"))?;
        match read_frame(&mut s) {
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err("connection closed before a reply".into()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Whether `resp` is a `result` frame.
pub fn is_result(resp: &Json) -> bool {
    resp.get("type").and_then(Json::as_str) == Some("result")
}

/// A number field of a response, or an error naming it.
pub fn num(resp: &Json, path: &[&str]) -> Result<f64, String> {
    let mut v = resp;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("response has no {}", path.join(".")))?;
    }
    v.as_f64()
        .ok_or_else(|| format!("{} is not a number", path.join(".")))
}
