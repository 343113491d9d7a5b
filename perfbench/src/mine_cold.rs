//! Phase `mine-cold`: one closed-loop client running, in sequence, the
//! default-flag `ppm mine`, the same mine with `--engine vertical`, and
//! the default-flag `ppm sweep` over 28..=32 (Alg 3.4, shared scans).
//! Every op re-opens the store from disk through `ppm_cli::run`.
//!
//! The end-to-end metrics are each op's CPU time ([`cpu_ms`]), scaled to
//! the nominal machine speed by a calibration pass before each op
//! ([`calib`]): at default flags an op runs on the calling thread alone,
//! and this process runs nothing else, so on an idle machine its CPU time
//! is its wall time, while on a shared one it leaves out the time the op
//! waited for a CPU.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ppm_core::{scan_frequent_letters_view, MineConfig};
use ppm_timeseries::columnar::ColumnarReader;

use crate::setup::{MIN_CONF, PERIOD, PERIODS};
use crate::trace::{self, timed, timed_request, Tracer};
use crate::util::{cpu_ms, median, peak_rss_mb, Outcome};
use crate::Ctx;
use crate::{calib, check};

/// Op names, in loop order.
const OPS: [&str; 3] = ["mine_default", "mine_vertical", "sweep"];
/// The program's own scan-1/scan-2/derive spans inside each op.
const PHASE_SPANS: [[&str; 3]; 3] = [
    ["hitset.scan1", "hitset.scan2", "hitset.derive"],
    ["vertical.scan1", "vertical.scan2", "vertical.derive"],
    ["shared.scan1", "shared.scan2", "shared.derive"],
];
/// Fewest loop cycles, however short the budget.
const MIN_CYCLES: usize = 3;

pub fn run(ctx: &Ctx, budget: Duration, tr: Option<&Tracer>) -> Outcome {
    let store = ctx.inputs.store.to_string_lossy().into_owned();
    let (lo, hi) = (PERIODS[0], PERIODS[PERIODS.len() - 1]);
    let argv = [
        format!("mine --input {store} --period {PERIOD} --min-conf {MIN_CONF}"),
        format!("mine --input {store} --period {PERIOD} --min-conf {MIN_CONF} --engine vertical"),
        format!("sweep --input {store} --from {lo} --to {hi} --min-conf {MIN_CONF}"),
    ]
    .map(|line| line.split(' ').map(str::to_owned).collect::<Vec<_>>());

    let mut o = Outcome::default();
    let mut wall: [Vec<f64>; 3] = Default::default();
    let mut cpu: [Vec<f64>; 3] = Default::default();
    let mut passes = Vec::new();
    let mut roots: [Vec<u64>; 3] = Default::default();
    let mut outputs: HashMap<(usize, Vec<u8>), u64> = HashMap::new();
    let mut probes: [Vec<f64>; 3] = Default::default();
    let config = MineConfig::new(MIN_CONF).expect("valid min_conf");

    let started = Instant::now();
    let mut cycles = 0;
    while cycles < MIN_CYCLES || started.elapsed() < budget {
        for (k, args) in argv.iter().enumerate() {
            let mut out = Vec::new();
            passes.push(calib::pass());
            let cpu_before = cpu_ms();
            let (res, ms, root) = timed_request(OPS[k], || ppm_cli::run(args, &mut out));
            let cpu_used = cpu_ms() - cpu_before;
            o.attempted += 1;
            match res {
                Ok(()) => {
                    wall[k].push(ms);
                    cpu[k].push(cpu_used);
                    *outputs.entry((k, out)).or_default() += 1;
                    roots[k].extend(root);
                }
                Err(err) => o.fail(format!("{} failed: {err}", OPS[k])),
            }
        }
        if tr.is_some() {
            // The open and scan 1 the CLI does inside each op, timed from
            // outside through the layers' public functions.
            let _root = trace::request("probe.open_scan");
            let (bytes, read_ms) = timed("columnar.read", || {
                std::fs::read(&ctx.inputs.store).expect("store is readable")
            });
            let (reader, validate_ms) = timed("columnar.validate", || {
                ColumnarReader::from_bytes(&bytes).expect("store validates")
            });
            drop(bytes);
            let (_, scan_ms) = timed("scan.scan1", || {
                scan_frequent_letters_view(reader.view(), PERIOD, &config)
            });
            for (v, ms) in probes.iter_mut().zip([read_ms, validate_ms, scan_ms]) {
                v.push(ms);
            }
        }
        cycles += 1;
    }
    let rss = peak_rss_mb();

    // Checks, against a cold vertical mine of every swept period.
    let reader = ColumnarReader::open(&ctx.inputs.store).expect("store opens");
    let refs: Vec<_> = PERIODS
        .iter()
        .map(|&p| check::reference(reader.view(), p, MIN_CONF))
        .collect();
    let at_period = &refs[PERIODS
        .iter()
        .position(|&p| p == PERIOD)
        .expect("planted period swept")];
    if let Err(e) = check::planted(at_period, reader.catalog(), &ctx.truth) {
        o.wrong(0, format!("reference mine misses the plant: {e}"));
    }
    let mine_text = check::mine_text(at_period, reader.catalog(), MIN_CONF);
    let mut sweep_scans = None;
    for ((k, out), n) in &outputs {
        let text = String::from_utf8_lossy(out);
        let ok = match k {
            0 | 1 => text == mine_text,
            _ => {
                let scans = sweep_scans_of(&text);
                sweep_scans = sweep_scans.or(scans);
                scans.is_some_and(|s| text == check::sweep_text(&refs, MIN_CONF, s))
            }
        };
        if !ok {
            o.wrong(
                *n,
                format!("{} printed a wrong answer {n}x:\n{text}", OPS[*k]),
            );
        }
    }

    let Some(t) = tr else {
        let [default, vertical, sweep] = cpu.map(|v| calib::normalize(&v, &passes));
        o.median_metric("mine_default_cpu_ms", default, "ms");
        o.median_metric("mine_vertical_cpu_ms", vertical, "ms");
        o.median_metric("sweep_cpu_ms", sweep, "ms");
        o.metric("mine_rss_mb", rss, "MB");
        o.op_ms = OPS
            .iter()
            .zip(&wall)
            .map(|(op, w)| (*op, median(w)))
            .collect();
        return o;
    };

    // Traced: attribute the program's spans and gauges to the op whose
    // root span holds them.
    let events = t.events();
    let in_op = |k: usize, name: &str| -> Vec<f64> {
        roots[k]
            .iter()
            .map(|&id| {
                trace::span_ms(trace::within(&events, id, OPS[k]), name)
                    .iter()
                    .sum()
            })
            .collect()
    };
    let gauge_in_op = |k: usize, name: &str| -> f64 {
        let v: Vec<f64> = roots[k]
            .iter()
            .filter_map(|&id| {
                trace::gauge_values(trace::within(&events, id, OPS[k]), name)
                    .last()
                    .copied()
            })
            .collect();
        median(&v)
    };
    let [read, validate, scan1] = probes.each_ref().map(|v| median(v));
    let mut unattributed = Vec::new();
    for k in 0..3 {
        let per_phase: Vec<Vec<f64>> = PHASE_SPANS[k].iter().map(|n| in_op(k, n)).collect();
        if k < 2 {
            for (i, w) in wall[k].iter().enumerate() {
                let covered: f64 = per_phase.iter().map(|v| v[i]).sum();
                unattributed.push(w - read - validate - covered);
            }
        }
        let mut layers = vec![("columnar.read", read), ("columnar.validate", validate)];
        layers.extend(
            PHASE_SPANS[k]
                .iter()
                .zip(&per_phase)
                .map(|(n, v)| (*n, median(v))),
        );
        o.breakdown.push((OPS[k], median(&wall[k]), layers));
    }
    o.metric("columnar.read_ms", read, "ms");
    o.metric("columnar.validate_ms", validate, "ms");
    o.metric("scan.scan1_ms", scan1, "ms");
    o.metric("hitset.scan2_ms", median(&in_op(0, "hitset.scan2")), "ms");
    o.metric("hitset.derive_ms", median(&in_op(0, "hitset.derive")), "ms");
    o.metric("hitset.tree_nodes", gauge_in_op(0, "tree.nodes"), "count");
    o.metric(
        "vertical.scan2_ms",
        median(&in_op(1, "vertical.scan2")),
        "ms",
    );
    o.metric(
        "vertical.derive_ms",
        median(&in_op(1, "vertical.derive")),
        "ms",
    );
    o.metric(
        "vertical.and_ops",
        gauge_in_op(1, "vertical.and_ops"),
        "count",
    );
    o.metric("multi.sweep_ms", median(&in_op(2, "shared.mine")), "ms");
    o.metric(
        "multi.series_scans",
        sweep_scans.map_or(f64::NAN, |s| s as f64),
        "count",
    );
    o.metric("cli.unattributed_ms", median(&unattributed), "ms");
    o.metric("machine.calib_ms", median(&passes), "ms");
    o
}

/// The scan count a `ppm sweep` header reports.
fn sweep_scans_of(text: &str) -> Option<usize> {
    let head = text.lines().next()?;
    let before = head.split(" total series scans").next()?;
    before.rsplit(' ').next()?.parse().ok()
}
