//! Reference answers. Every check runs outside the timed regions and
//! compares the program's output with an independent cold vertical mine
//! (`mine_vertical_view`) and with the generator's planted letters.

use std::collections::BTreeSet;

use ppm_core::vertical::mine_vertical_view;
use ppm_core::{MineConfig, MiningResult, Pattern};
use ppm_observe::Json;
use ppm_timeseries::{EncodedSeriesView, FeatureCatalog};

use crate::setup::Truth;

/// The rows the CLI prints and the daemon returns by default.
pub const LIMIT: usize = 20;

/// A cold vertical mine at `(period, min_conf)`.
pub fn reference(view: EncodedSeriesView<'_>, period: usize, min_conf: f64) -> MiningResult {
    let config = MineConfig::new(min_conf).expect("valid min_conf");
    mine_vertical_view(view, period, &config).expect("reference mine cannot fail")
}

/// Patterns longest first, then by count: the order both the CLI and
/// the daemon print.
fn ordered(r: &MiningResult) -> Vec<&ppm_core::FrequentPattern> {
    let mut rows: Vec<_> = r.frequent.iter().collect();
    rows.sort_by(|a, b| {
        b.letters
            .len()
            .cmp(&a.letters.len())
            .then(b.count.cmp(&a.count))
    });
    rows
}

fn shown(r: &MiningResult, fp: &ppm_core::FrequentPattern, catalog: &FeatureCatalog) -> String {
    Pattern::from_letter_set(&r.alphabet, &fp.letters)
        .display(catalog)
        .to_string()
}

/// What `ppm mine` prints for `r` with default flags.
pub fn mine_text(r: &MiningResult, catalog: &FeatureCatalog, min_conf: f64) -> String {
    let mut out = format!(
        "{} frequent patterns (period {}, {} segments, min_conf {min_conf}, {} scans); \
         showing up to {LIMIT}, longest first:\n",
        r.len(),
        r.period,
        r.segment_count,
        r.stats.series_scans
    );
    for fp in ordered(r).into_iter().take(LIMIT) {
        out.push_str(&format!(
            "  {}  count={} conf={:.3}\n",
            shown(r, fp, catalog),
            fp.count,
            fp.count as f64 / r.segment_count as f64
        ));
    }
    out
}

/// What `ppm sweep` prints for per-period results `rs` when the whole
/// range is mined in `scans` series scans (Alg 3.4: two).
pub fn sweep_text(rs: &[MiningResult], min_conf: f64, scans: usize) -> String {
    let (from, to) = (rs[0].period, rs[rs.len() - 1].period);
    let mut out = format!(
        "periods {from}..={to}, min_conf {min_conf}, {scans} total series scans \
         (shared, Alg 3.4):\n{:>8} {:>10} {:>9} {:>14}\n",
        "period", "patterns", "|F1|", "max pattern"
    );
    for r in rs {
        out.push_str(&format!(
            "{:>8} {:>10} {:>9} {:>14}\n",
            r.period,
            r.len(),
            r.alphabet.len(),
            r.max_l_length()
        ));
    }
    if let Some(best) = rs.iter().max_by_key(|r| r.len()) {
        out.push_str(&format!("densest period: {}\n", best.period));
    }
    out
}

/// The `segments`, `patterns` and `rows` of a daemon `mine` reply for
/// `r`, rendered as JSON: the part of a reply that must equal a direct
/// mine (the rest is provenance: cache label, engine, scans).
pub fn reply_digest(r: &MiningResult, catalog: &FeatureCatalog) -> String {
    let rows = ordered(r)
        .into_iter()
        .take(LIMIT)
        .map(|fp| {
            Json::Arr(vec![
                Json::Str(shown(r, fp, catalog)),
                Json::from_usize(fp.letters.len()),
                Json::from_u64(fp.count),
            ])
        })
        .collect();
    digest(r.segment_count, r.len(), Json::Arr(rows))
}

/// The same digest taken from a daemon reply.
pub fn digest_of_reply(resp: &Json) -> String {
    let n = |k| resp.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX) as usize;
    let rows = resp.get("rows").cloned().unwrap_or(Json::Null);
    digest(n("segments"), n("patterns"), rows)
}

fn digest(segments: usize, patterns: usize, rows: Json) -> String {
    format!(
        "segments={segments} patterns={patterns} rows={}",
        rows.render()
    )
}

/// Checks that `r`, mined at the planted period and threshold, recovers
/// the plant: F1 is exactly the planted letters and the backbone is the
/// one maximal pattern.
pub fn planted(r: &MiningResult, catalog: &FeatureCatalog, truth: &Truth) -> Result<(), String> {
    let name = |off: usize, id| (off, catalog.name(id).unwrap_or("?").to_owned());
    let f1: BTreeSet<(usize, String)> = r
        .frequent
        .iter()
        .filter(|fp| fp.letters.len() == 1)
        .flat_map(|fp| fp.letters.iter())
        .map(|i| {
            let (off, id) = r.alphabet.letter(i);
            name(off, id)
        })
        .collect();
    let want: BTreeSet<(usize, String)> = truth
        .backbone
        .iter()
        .chain(&truth.extras)
        .cloned()
        .collect();
    if f1 != want {
        return Err(format!("F1 {f1:?} is not the planted letters {want:?}"));
    }
    let maximal: Vec<BTreeSet<(usize, String)>> = r
        .maximal()
        .into_iter()
        .filter(|fp| fp.letters.len() > 1)
        .map(|fp| {
            fp.letters
                .iter()
                .map(|i| {
                    let (off, id) = r.alphabet.letter(i);
                    name(off, id)
                })
                .collect()
        })
        .collect();
    let backbone: BTreeSet<(usize, String)> = truth.backbone.iter().cloned().collect();
    if maximal != [backbone.clone()] {
        return Err(format!(
            "maximal multi-letter patterns {maximal:?} are not the backbone {backbone:?}"
        ));
    }
    Ok(())
}
