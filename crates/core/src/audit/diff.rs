//! Cross-algorithm differential harness.
//!
//! The paper proves Algorithms 3.1 (Apriori) and 3.2 (max-subpattern hit
//! set) compute the *same* frequent set with the *same* counts; the
//! streaming engines are refactorings of the same algorithms over a
//! [`ppm_timeseries::SeriesSource`], and the vertical engine
//! ([`crate::vertical`]) recounts the same definition columnarly. Running
//! all of them on the same input and diffing the outputs is therefore a
//! free correctness oracle: any disagreement is a bug in at least one
//! engine, found without knowing which answer is right.

use std::collections::HashMap;

use ppm_timeseries::{
    EncodedSeries, EncodedSeriesView, FeatureCatalog, FeatureSeries, MemorySource,
};

use crate::letters::LetterSet;
use crate::pattern::Pattern;
use crate::result::MiningResult;
use crate::scan::MineConfig;
use crate::vertical::Kernel;

use super::{render, AuditReport, Violation};

/// Re-mines `period` of `view` on the forced-scalar and forced-sharded
/// vertical paths, so the oracle covers every counting substrate: the
/// scalar reference kernel, the wide kernel ([`Kernel::Auto`] resolves
/// wide in the plain vertical arm), and a sharded derive whose shard
/// floor is lowered to 1 word so even small audit inputs genuinely split.
fn vertical_kernel_arms(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
) -> crate::error::Result<(MiningResult, MiningResult)> {
    let scalar =
        crate::vertical::mine_vertical_view(view, period, &config.with_kernel(Kernel::Scalar))?;
    let executor = crate::vertical::ThreadedExecutor::with_min_shard_words(2, 1);
    let sharded = crate::vertical::mine_vertical_view_executor(
        view,
        period,
        &config.with_kernel(Kernel::Wide),
        &executor,
    )?;
    Ok((scalar, sharded))
}

/// The incremental engine arm: bulk-builds the index over the first half
/// of the segments, re-derives (discarded) so the final derive genuinely
/// exercises the carry/delta classification instead of full-counting
/// everything, appends the rest one segment at a time through the
/// feature-list path, then re-derives the full window. Bit-identity here
/// proves both append paths, and every incrementally maintained state,
/// equal a cold mine of the same window.
fn incremental_arm(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
) -> crate::error::Result<MiningResult> {
    use crate::vertical::incremental::IncrementalVerticalIndex;
    let m = view.len() / period;
    let mut index = IncrementalVerticalIndex::new(period, None);
    index.append_segments_from_view(view, 0..m / 2);
    if m >= 4 {
        let _ = index.rederive_dirty(config);
    }
    for segment in m / 2..m {
        index.append_segment(
            (segment * period..(segment + 1) * period)
                .map(|t| view.features_at(t).collect::<Vec<_>>()),
        );
    }
    index.rederive_dirty(config)
}

/// Mismatch detail lines reported per algorithm pair before truncating.
const DETAIL_LIMIT: usize = 12;

/// The outcome of one cross-algorithm diff.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// The engines that ran, in comparison order (index 0 is the baseline).
    pub algorithms: Vec<&'static str>,
    /// Patterns in the baseline result (the comparison breadth).
    pub compared: usize,
    /// Violations found — empty when every engine agrees exactly.
    pub report: AuditReport,
}

impl CrossCheck {
    /// Whether every engine produced an identical result.
    pub fn agreed(&self) -> bool {
        self.report.is_clean()
    }
}

/// Diffs one `(left, right)` result pair, appending
/// [`Violation::AlgorithmMismatch`]s to `report`.
fn diff_pair(
    left_name: &'static str,
    left: &MiningResult,
    right_name: &'static str,
    right: &MiningResult,
    catalog: &FeatureCatalog,
    report: &mut AuditReport,
) {
    let mismatch = |report: &mut AuditReport, detail: String| {
        report.push(Violation::AlgorithmMismatch {
            left: left_name,
            right: right_name,
            detail,
        });
    };
    report.checks += 3;
    if left.segment_count != right.segment_count || left.min_count != right.min_count {
        mismatch(
            report,
            format!(
                "run parameters differ: m {} vs {}, min_count {} vs {}",
                left.segment_count, right.segment_count, left.min_count, right.min_count
            ),
        );
        return;
    }
    if left.alphabet != right.alphabet {
        mismatch(
            report,
            format!(
                "alphabets differ: {} vs {} letters",
                left.alphabet.len(),
                right.alphabet.len()
            ),
        );
        return;
    }

    let text = |result: &MiningResult, set: &LetterSet| {
        render(&Pattern::from_letter_set(&result.alphabet, set), catalog)
    };
    let rights: HashMap<&LetterSet, u64> = right
        .frequent
        .iter()
        .map(|fp| (&fp.letters, fp.count))
        .collect();
    let mut details = 0usize;
    let mut emit = |report: &mut AuditReport, detail: String| {
        details += 1;
        if details <= DETAIL_LIMIT {
            mismatch(report, detail);
        }
    };
    for fp in &left.frequent {
        report.checks += 1;
        match rights.get(&fp.letters) {
            None => emit(
                report,
                format!(
                    "`{}` (count {}) only found by {left_name}",
                    text(left, &fp.letters),
                    fp.count
                ),
            ),
            Some(&count) if count != fp.count => emit(
                report,
                format!(
                    "`{}` counted {} by {left_name}, {} by {right_name}",
                    text(left, &fp.letters),
                    fp.count,
                    count
                ),
            ),
            Some(_) => {}
        }
    }
    let lefts: HashMap<&LetterSet, u64> = left
        .frequent
        .iter()
        .map(|fp| (&fp.letters, fp.count))
        .collect();
    for fp in &right.frequent {
        report.checks += 1;
        if !lefts.contains_key(&fp.letters) {
            emit(
                report,
                format!(
                    "`{}` (count {}) only found by {right_name}",
                    text(right, &fp.letters),
                    fp.count
                ),
            );
        }
    }
    if details > DETAIL_LIMIT {
        mismatch(
            report,
            format!("… and {} more differences", details - DETAIL_LIMIT),
        );
    }
}

/// Mines `series` with the hit-set, Apriori, streaming hit-set, and
/// vertical engines — the latter also on its forced-scalar kernel, on a
/// force-sharded derive, and on the segment-at-a-time incremental index —
/// and diffs the results pairwise against the hit-set baseline.
///
/// The vertical re-mine reuses one [`EncodedSeries`] cache, so the oracle
/// probes packed instant bitmaps instead of re-merge-walking raw feature
/// slices.
///
/// The miners canonicalize ordering before returning, so equal results
/// compare equal structurally; any difference in membership or counts
/// becomes a [`Violation::AlgorithmMismatch`] naming the engines and the
/// pattern.
pub fn cross_check(
    series: &FeatureSeries,
    period: usize,
    config: &MineConfig,
    catalog: &FeatureCatalog,
) -> crate::error::Result<CrossCheck> {
    let _span = ppm_observe::span("audit.diff");
    let baseline = crate::hitset::mine(series, period, config)?;
    let apriori = crate::apriori::mine(series, period, config)?;
    let streamed = {
        let mut src = MemorySource::new(series);
        crate::streaming::mine_hitset_streaming(&mut src, period, config)?
    };
    let encoded = EncodedSeries::encode(series);
    let vertical = crate::vertical::mine_vertical_encoded(series, &encoded, period, config)?;
    let (vertical_scalar, vertical_sharded) = vertical_kernel_arms(encoded.view(), period, config)?;
    let incremental = incremental_arm(encoded.view(), period, config)?;

    let mut report = AuditReport::new();
    diff_pair(
        "hitset",
        &baseline,
        "apriori",
        &apriori,
        catalog,
        &mut report,
    );
    diff_pair(
        "hitset",
        &baseline,
        "streaming-hitset",
        &streamed,
        catalog,
        &mut report,
    );
    diff_pair(
        "hitset",
        &baseline,
        "vertical",
        &vertical,
        catalog,
        &mut report,
    );
    diff_pair(
        "hitset",
        &baseline,
        "vertical-scalar",
        &vertical_scalar,
        catalog,
        &mut report,
    );
    diff_pair(
        "hitset",
        &baseline,
        "vertical-sharded",
        &vertical_sharded,
        catalog,
        &mut report,
    );
    diff_pair(
        "hitset",
        &baseline,
        "incremental-vertical",
        &incremental,
        catalog,
        &mut report,
    );
    let check = CrossCheck {
        algorithms: vec![
            "hitset",
            "apriori",
            "streaming-hitset",
            "vertical",
            "vertical-scalar",
            "vertical-sharded",
            "incremental-vertical",
        ],
        compared: baseline.len(),
        report,
    };
    ppm_observe::mark("audit.diff.verdict", || {
        if check.agreed() {
            format!(
                "{} engines agree on {} patterns",
                check.algorithms.len(),
                check.compared
            )
        } else {
            format!("{} mismatches", check.report.violations.len())
        }
    });
    Ok(check)
}

/// [`cross_check`] over a borrowed bitmap view (a columnar file load or an
/// [`EncodedSeries`] cache): mines with the view-backed hit-set, Apriori,
/// and vertical engines (plus the scalar-kernel, force-sharded, and
/// incremental vertical arms) and diffs pairwise against the hit-set
/// baseline.
///
/// The streaming engine is absent — it consumes a
/// [`ppm_timeseries::SeriesSource`], which a borrowed view does not
/// provide — so this oracle covers the engines that accept packed
/// rows directly, without ever materializing a [`FeatureSeries`].
pub fn cross_check_view(
    view: EncodedSeriesView<'_>,
    period: usize,
    config: &MineConfig,
    catalog: &FeatureCatalog,
) -> crate::error::Result<CrossCheck> {
    let _span = ppm_observe::span("audit.diff");
    let baseline = crate::hitset::mine_view(view, period, config)?;
    let apriori = crate::apriori::mine_view(view, period, config)?;
    let vertical = crate::vertical::mine_vertical_view(view, period, config)?;
    let (vertical_scalar, vertical_sharded) = vertical_kernel_arms(view, period, config)?;
    let incremental = incremental_arm(view, period, config)?;

    let mut report = AuditReport::new();
    diff_pair(
        "hitset",
        &baseline,
        "apriori",
        &apriori,
        catalog,
        &mut report,
    );
    diff_pair(
        "hitset",
        &baseline,
        "vertical",
        &vertical,
        catalog,
        &mut report,
    );
    diff_pair(
        "hitset",
        &baseline,
        "vertical-scalar",
        &vertical_scalar,
        catalog,
        &mut report,
    );
    diff_pair(
        "hitset",
        &baseline,
        "vertical-sharded",
        &vertical_sharded,
        catalog,
        &mut report,
    );
    diff_pair(
        "hitset",
        &baseline,
        "incremental-vertical",
        &incremental,
        catalog,
        &mut report,
    );
    let check = CrossCheck {
        algorithms: vec![
            "hitset",
            "apriori",
            "vertical",
            "vertical-scalar",
            "vertical-sharded",
            "incremental-vertical",
        ],
        compared: baseline.len(),
        report,
    };
    ppm_observe::mark("audit.diff.verdict", || {
        if check.agreed() {
            format!(
                "{} engines agree on {} patterns",
                check.algorithms.len(),
                check.compared
            )
        } else {
            format!("{} mismatches", check.report.violations.len())
        }
    });
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_timeseries::SeriesBuilder;

    fn sample() -> (FeatureSeries, FeatureCatalog) {
        let mut catalog = FeatureCatalog::new();
        let a = catalog.intern("alpha");
        let b = catalog.intern("beta");
        let mut builder = SeriesBuilder::new();
        for j in 0..20 {
            builder.push_instant([a]);
            builder.push_instant(if j % 4 != 0 { vec![b] } else { vec![] });
            builder.push_instant(if j % 2 == 0 { vec![a, b] } else { vec![] });
        }
        (builder.finish(), catalog)
    }

    #[test]
    fn engines_agree_on_a_real_mine() {
        let (series, catalog) = sample();
        let config = MineConfig::new(0.5).unwrap();
        let check = cross_check(&series, 3, &config, &catalog).unwrap();
        assert!(check.agreed(), "{:?}", check.report.violations);
        assert_eq!(check.algorithms.len(), 7);
        assert!(check.compared > 0);
    }

    #[test]
    fn view_engines_agree_on_a_real_mine() {
        let (series, catalog) = sample();
        let encoded = EncodedSeries::encode(&series);
        let config = MineConfig::new(0.5).unwrap();
        let check = cross_check_view(encoded.view(), 3, &config, &catalog).unwrap();
        assert!(check.agreed(), "{:?}", check.report.violations);
        assert_eq!(check.algorithms.len(), 6);
        let series_check = cross_check(&series, 3, &config, &catalog).unwrap();
        assert_eq!(check.compared, series_check.compared);
    }

    #[test]
    fn diff_pair_flags_membership_and_count_divergence() {
        let (series, catalog) = sample();
        let config = MineConfig::new(0.5).unwrap();
        let left = crate::hitset::mine(&series, 3, &config).unwrap();
        let mut right = left.clone();
        right.frequent[0].count += 2;
        let dropped = right.frequent.pop().unwrap();
        let mut report = AuditReport::new();
        diff_pair("hitset", &left, "tampered", &right, &catalog, &mut report);
        assert!(!report.is_clean());
        let details: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        assert!(details.iter().any(|d| d.contains("counted")), "{details:?}");
        assert!(
            details.iter().any(|d| d.contains("only found by hitset")),
            "{details:?}"
        );
        drop(dropped);
    }

    #[test]
    fn diff_pair_flags_parameter_divergence() {
        let (series, catalog) = sample();
        let config = MineConfig::new(0.5).unwrap();
        let left = crate::hitset::mine(&series, 3, &config).unwrap();
        let mut right = left.clone();
        right.min_count += 1;
        let mut report = AuditReport::new();
        diff_pair("hitset", &left, "tampered", &right, &catalog, &mut report);
        assert!(report
            .violations
            .iter()
            .any(|v| v.to_string().contains("run parameters differ")));
    }
}
