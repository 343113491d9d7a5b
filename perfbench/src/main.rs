//! `perfbench`: the repository's offline end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload baseline --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run generates its inputs from `--seed`, measures the set-up, then
//! runs three phases, each in child processes of its own so that each
//! reports its own peak RSS (`mine-cold` in three slices spread over the
//! run):
//!
//! * `mine-cold`: `ppm mine` (default engine and `--engine vertical`) and
//!   `ppm sweep`, each opening the store from disk;
//! * `serve-read`: two closed-loop clients reading a warmed daemon;
//! * `ingest-append`: durable appends, each followed by an incremental
//!   re-mine, on a fresh daemon.
//!
//! It checks every answer outside the timed regions and prints, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`; per-layer with `--trace 1`,
//! which also prints the per-op layer table and writes the spans as JSON
//! lines under `perfbench/out/`). A wrong answer makes it exit 1.

mod calib;
mod check;
mod daemon;
mod ingest;
mod mine_cold;
mod serve_read;
mod setup;
mod trace;
mod util;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use ppm_observe::Json;

use setup::{Inputs, Truth};
use trace::{table_rows, Tracer};
use util::Outcome;

/// What a phase sees: the run's inputs and seed. `sub` tells apart the
/// untraced and traced halves of a traced run, which need files of
/// their own.
pub struct Ctx {
    pub inputs: Inputs,
    pub truth: Truth,
    pub seed: u64,
    pub sub: usize,
}

type Phase = fn(&Ctx, Duration, Option<&Tracer>) -> Outcome;

/// The phases, in run order, with their share of `--seconds`.
const PHASES: [(&str, f64, Phase); 3] = [
    ("mine-cold", 0.45, mine_cold::run),
    ("serve-read", 0.42, serve_read::run),
    ("ingest-append", 0.13, ingest::run),
];

/// An untraced run's child processes, in order. `mine-cold` runs in three
/// slices spread over the run, each with a third of its share; each of
/// its timings is the median of the slices' samples pooled, and its RSS
/// the median of the slices': on a shared machine the same CPU-bound op
/// drifts by up to ±20% within a minute, and slices sample the whole run
/// instead of one stretch of it. A traced run runs each phase once, in
/// `PHASES` order.
const SCHEDULE: [&str; 5] = [
    "mine-cold",
    "serve-read",
    "mine-cold",
    "ingest-append",
    "mine-cold",
];

const USAGE: &str = "usage: perfbench --workload baseline|dense --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set only in a phase's child process.
    phase: Option<String>,
    dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == key)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, key: &str| v.ok_or_else(|| format!("missing {key}"));
    let workload = need(get("--workload"), "--workload")?;
    if setup::spec(&workload, 0).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = need(get("--seed"), "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need(get("--seconds"), "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        phase: get("--phase"),
        dir: get("--dir").map(PathBuf::from),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &args.phase {
        Some(phase) => child(&args, phase),
        None => parent(&args),
    };
    std::process::exit(code);
}

/// Where runs keep their work files and traces.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory removed, with everything in it, when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The whole run: set-up, then each phase in a child process.
fn parent(args: &Args) -> i32 {
    let work = WorkDir(out_dir().join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: cannot create {}: {e}", work.0.display());
        return 1;
    }
    let inputs = Inputs::in_dir(&work.0);
    let setup_s = match setup::prepare(&args.workload, args.seed, &inputs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return 1;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut total = Outcome::default();
    if !args.trace {
        total.metric("setup_s", setup_s, "s");
    }
    let schedule: Vec<&str> = if args.trace {
        PHASES.iter().map(|p| p.0).collect()
    } else {
        SCHEDULE.to_vec()
    };
    let mut results: Vec<(&str, Json)> = Vec::new();
    for &phase in &schedule {
        let share = PHASES.iter().find(|p| p.0 == phase).map_or(0.0, |p| p.1);
        let slices = schedule.iter().filter(|&&p| p == phase).count() as f64;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds * share / slices).to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--phase", phase])
            .arg("--dir")
            .arg(&work.0)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: phase {phase} exited with {}", o.status);
                return 1;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run phase {phase}: {e}");
                return 1;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        match Json::parse(last) {
            Ok(j) => results.push((phase, j)),
            Err(e) => {
                eprintln!("perfbench: phase {phase} reported nothing usable: {e}");
                return 1;
            }
        }
    }
    for (phase, ..) in PHASES {
        let parts: Vec<&Json> = results
            .iter()
            .filter(|r| r.0 == phase)
            .map(|r| &r.1)
            .collect();
        if let Err(e) = merge(&mut total, &parts) {
            eprintln!("perfbench: phase {phase} reported nothing usable: {e}");
            return 1;
        }
    }
    for w in &total.wrong {
        eprintln!("perfbench: WRONG: {w}");
    }
    println!("{}", result_json(&total).render());
    i32::from(!total.wrong.is_empty())
}

/// Folds one phase's result lines, one per slice, into the run's: counts
/// add up, a metric with samples is the median of all slices' samples,
/// and any other the median of the slices' values.
fn merge(total: &mut Outcome, parts: &[&Json]) -> Result<(), String> {
    for j in parts {
        let n = |k| j.get(k).and_then(Json::as_u64).ok_or(format!("no {k}"));
        total.attempted += n("attempted")?;
        total.failed += n("failed")?;
        if let Some(Json::Arr(w)) = j.get("wrong") {
            total
                .wrong
                .extend(w.iter().filter_map(Json::as_str).map(str::to_owned));
        }
    }
    let Some(Json::Obj(metrics)) = parts.first().and_then(|j| j.get("metrics")) else {
        return Err("no metrics".into());
    };
    for (name, m) in metrics {
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .ok_or(format!("{name} has no unit"))?;
        let field = |key: &str| {
            parts
                .iter()
                .map(|j| {
                    j.get(key)
                        .and_then(|ms| ms.get(name))
                        .ok_or(format!("{name} has no {key}"))
                })
                .collect::<Result<Vec<&Json>, String>>()
        };
        let values: Vec<f64> = match field("samples") {
            Ok(per_slice) => per_slice
                .iter()
                .filter_map(|s| match s {
                    Json::Arr(v) => Some(v.iter().filter_map(Json::as_f64)),
                    _ => None,
                })
                .flatten()
                .collect(),
            Err(_) => field("metrics")?
                .iter()
                .map(|m| m.get("value").and_then(Json::as_f64))
                .collect::<Option<Vec<f64>>>()
                .ok_or(format!("{name} was not measured"))?,
        };
        total.metric(name, util::median(&values), unit);
    }
    Ok(())
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(o: &Outcome) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                Json::Num(*value)
            } else {
                Json::Null
            };
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".to_owned(), v),
                    ("unit".to_owned(), Json::Str(unit.clone())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(o.wrong.is_empty())),
        ("attempted".to_owned(), Json::from_u64(o.attempted)),
        ("failed".to_owned(), Json::from_u64(o.failed)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ])
}

/// One phase, in its own process. A traced run measures the phase
/// untraced for half its time, then traced (collector installed before
/// any work) for the other half; the difference is the tracing overhead.
fn child(args: &Args, phase: &str) -> i32 {
    let Some((_, _, run)) = PHASES.iter().find(|p| p.0 == phase) else {
        eprintln!("perfbench: unknown phase {phase:?}");
        return 2;
    };
    let Some(dir) = &args.dir else {
        eprintln!("perfbench: --phase needs --dir");
        return 2;
    };
    let inputs = Inputs::in_dir(dir);
    let truth = match Truth::load(&inputs.truth) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let mut ctx = Ctx {
        inputs,
        truth,
        seed: args.seed,
        sub: 0,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let o = if args.trace {
        let spans = out_dir().join(format!(
            "spans-{}-seed{}-{phase}.jsonl",
            args.workload, args.seed
        ));
        let (o, table) = traced(&mut ctx, *run, budget, &spans);
        let mut stdout = std::io::stdout().lock();
        for row in table {
            let _ = writeln!(stdout, "{row}");
        }
        o
    } else {
        run(&ctx, budget, None)
    };
    let mut line = result_json(&o);
    if let Json::Obj(fields) = &mut line {
        fields.push((
            "wrong".to_owned(),
            Json::Arr(o.wrong.iter().cloned().map(Json::Str).collect()),
        ));
        let samples = o.samples.iter().map(|(name, v)| {
            let v = v.iter().map(|&x| Json::Num(x)).collect();
            (name.clone(), Json::Arr(v))
        });
        fields.push(("samples".to_owned(), Json::Obj(samples.collect())));
    }
    println!("{}", line.render());
    0
}

/// Runs `run` untraced then traced; returns the traced outcome (with the
/// untraced half's counts folded in) and the layer-table rows.
fn traced(ctx: &mut Ctx, run: Phase, budget: Duration, spans: &Path) -> (Outcome, Vec<String>) {
    let base = run(ctx, budget / 2, None);
    ctx.sub = 1;
    let (tracer, guard) = Tracer::install();
    let mut o = run(ctx, budget / 2, Some(&tracer));
    drop(guard);
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| tracer.write_jsonl(spans)) {
        eprintln!("perfbench: cannot write spans to {}: {e}", spans.display());
    }
    let mut table = Vec::new();
    for (op, wall, layers) in &o.breakdown {
        let untraced = base
            .op_ms
            .iter()
            .find(|(name, _)| name == op)
            .map_or(f64::NAN, |b| b.1);
        table.extend(table_rows(op, *wall, untraced, layers));
    }
    o.attempted += base.attempted;
    o.failed += base.failed;
    o.wrong.extend(base.wrong);
    (o, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every phase, untraced and traced, on the toy store: all answers
    /// check out and every metric is measured.
    #[test]
    fn toy_run_of_every_phase_checks_out() {
        let dir = out_dir().join(format!("selftest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("work dir");
        let work = WorkDir(dir);
        let inputs = Inputs::in_dir(&work.0);
        let setup_s = setup::prepare("toy", 7, &inputs).expect("set-up");
        assert!(setup_s > 0.0);
        let mut ctx = Ctx {
            truth: Truth::load(&inputs.truth).expect("truth"),
            inputs,
            seed: 7,
            sub: 0,
        };
        let spans = work.0.join("spans.jsonl");
        for (phase, _, run) in PHASES {
            ctx.sub = 0;
            let (o, table) = traced(&mut ctx, run, Duration::from_millis(1500), &spans);
            assert!(o.wrong.is_empty(), "{phase}: {:?}", o.wrong);
            assert!(o.attempted > 0 && o.failed == 0, "{phase}");
            assert!(!table.is_empty(), "{phase}: no layer table");
            assert!(table.iter().any(|r| r.contains("unattributed")));
            for (name, value, _) in &o.metrics {
                assert!(value.is_finite(), "{phase}: {name} = {value}");
            }
            assert!(std::fs::metadata(&spans).is_ok_and(|m| m.len() > 0));
            let untraced = run(&ctx, Duration::from_millis(500), None);
            assert!(untraced.wrong.is_empty(), "{phase}: {:?}", untraced.wrong);
            for (name, value, _) in &untraced.metrics {
                assert!(
                    *value > 0.0 && value.is_finite(),
                    "{phase}: {name} = {value}"
                );
            }
        }
    }
}
