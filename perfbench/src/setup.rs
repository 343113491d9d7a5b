//! Workload inputs and the measured set-up.
//!
//! Every input is a pure function of the workload name and `--seed`: the
//! store is `SyntheticSpec::table1` with the seed, and the rows later
//! appended come from a second series of the same spec and seed (so the
//! same planted letters at the same offsets) at a different length,
//! cut to continue the store's phase.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ppm_datagen::SyntheticSpec;
use ppm_timeseries::columnar::write_columnar;
use ppm_timeseries::SeriesBuilder;

use crate::daemon::Daemon;
use crate::util::median;

/// The planted period and the mining threshold that recovers the plant.
pub const PERIOD: usize = 30;
pub const MIN_CONF: f64 = 0.6;
/// The period range swept, warmed and re-mined.
pub const PERIODS: [usize; 5] = [28, 29, 30, 31, 32];
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The generator spec of a workload, or `None` for an unknown name.
/// `toy` is the self-test's size and is not a benchmark workload.
pub fn spec(workload: &str, seed: u64) -> Option<SyntheticSpec> {
    let mut s = match workload {
        "baseline" => SyntheticSpec::table1(1_600_000, PERIOD, 6, 24),
        "dense" => SyntheticSpec::table1(400_000, PERIOD, 10, 28),
        "toy" => SyntheticSpec::table1(12_000, PERIOD, 4, 8),
        _ => return None,
    };
    s.seed = seed;
    Some(s)
}

/// The files one run works on, all inside its work directory.
pub struct Inputs {
    pub dir: PathBuf,
    pub store: PathBuf,
    pub truth: PathBuf,
    pub append_src: PathBuf,
}

impl Inputs {
    pub fn in_dir(dir: &Path) -> Inputs {
        Inputs {
            dir: dir.to_path_buf(),
            store: dir.join("store.ppmc"),
            truth: dir.join("truth.txt"),
            append_src: dir.join("append-src.ppmc"),
        }
    }
}

/// The planted ground truth: `(offset, feature name)` letters.
pub struct Truth {
    pub backbone: Vec<(usize, String)>,
    pub extras: Vec<(usize, String)>,
}

impl Truth {
    pub fn load(path: &Path) -> Result<Truth, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("truth: {e}"))?;
        let mut t = Truth {
            backbone: Vec::new(),
            extras: Vec::new(),
        };
        for line in text.lines() {
            let mut f = line.split(' ');
            let (kind, off, name) = (f.next(), f.next(), f.next());
            let off: usize = off
                .and_then(|o| o.parse().ok())
                .ok_or_else(|| format!("bad truth line {line:?}"))?;
            let name = name
                .ok_or_else(|| format!("bad truth line {line:?}"))?
                .to_owned();
            match kind {
                Some("b") => t.backbone.push((off, name)),
                Some("e") => t.extras.push((off, name)),
                _ => return Err(format!("bad truth line {line:?}")),
            }
        }
        Ok(t)
    }
}

/// Writes the run's inputs and returns `setup_s`: the median over
/// [`SETUP_REPS`] repetitions of generating the series, writing it as a
/// `.ppmc`, starting a daemon on it and warming its cache for every
/// period of [`PERIODS`] at [`MIN_CONF`].
pub fn prepare(workload: &str, seed: u64, inputs: &Inputs) -> Result<f64, String> {
    let spec = spec(workload, seed).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let g = spec.generate();
        write_columnar(&inputs.store, &g.series, &g.catalog).map_err(|e| e.to_string())?;
        let daemon = Daemon::start(&inputs.store)?;
        for p in PERIODS {
            let resp = daemon.once(&daemon.mine_req(p, MIN_CONF, None, false))?;
            if !crate::daemon::is_result(&resp) {
                return Err(format!(
                    "warm-up mine at period {p} failed: {}",
                    resp.render()
                ));
            }
        }
        daemon.stop()?;
        times.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            let name = |id| {
                g.catalog
                    .name(id)
                    .expect("planted feature is named")
                    .to_owned()
            };
            let mut truth = String::new();
            for (kind, letters) in [("b", &g.backbone), ("e", &g.extras)] {
                for &(off, id) in letters {
                    truth.push_str(&format!("{kind} {off} {}\n", name(id)));
                }
            }
            std::fs::write(&inputs.truth, truth).map_err(|e| format!("truth: {e}"))?;
            // The appended rows continue the store's phase: the store ends
            // `skip` instants into a period, so the source starts there too.
            let skip = g.series.len() % PERIOD;
            let mut more = spec.clone();
            more.length = PERIOD * if workload == "toy" { 200 } else { 2_000 };
            let m = more.generate();
            let mut rows = SeriesBuilder::new();
            for t in skip..m.series.len() - (PERIOD - skip) % PERIOD {
                rows.push_instant(m.series.instant(t).iter().copied());
            }
            write_columnar(&inputs.append_src, &rows.finish(), &m.catalog)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(median(&times))
}
