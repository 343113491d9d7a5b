//! Integration + property tests for the out-of-core path and closed
//! patterns: stream-format round trips, disk mining equivalence, and the
//! closed-set compression laws.

mod common;

use common::{cases, random_series};
use partial_periodic::closed::{closed_of, mine_closed};
use partial_periodic::datagen::rng::Rng;
use partial_periodic::streaming::{mine_apriori_streaming, mine_hitset_streaming};
use partial_periodic::timeseries::storage::stream::{FileSource, StreamWriter};
use partial_periodic::timeseries::SeriesSource;
use partial_periodic::{hitset, FeatureCatalog, MineConfig, SyntheticSpec};

fn temp(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ppm-int-stream-{}-{tag}-{}.ppmstream",
        std::process::id(),
        N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

/// Any series survives a .ppmstream round trip bit-for-bit.
#[test]
fn stream_format_round_trips() {
    let catalog = FeatureCatalog::with_synthetic_features(300);
    for (case, mut rng) in cases("stream_round_trip", 32) {
        let series = random_series(&mut rng, 300, 6, 0..120);
        let path = temp("prop");
        StreamWriter::create(&path, &catalog)
            .and_then(|w| w.write_series(&series))
            .unwrap();
        let src = FileSource::open(&path).unwrap();
        assert_eq!(src.instant_count(), series.len(), "case {case}");
        assert_eq!(src.materialize().unwrap(), series, "case {case}");
        std::fs::remove_file(path).ok();
    }
}

/// Disk mining equals in-memory mining; scan counts are physical.
#[test]
fn disk_mining_equals_memory() {
    for (case, mut rng) in cases("disk_mining", 32) {
        let series = random_series(&mut rng, 5, 4, 20..80);
        let period = rng.random_range(2..6usize);
        let config = MineConfig::new(0.4).unwrap();
        let expect = hitset::mine(&series, period, &config).unwrap();

        let path = temp("mine");
        StreamWriter::create(&path, &FeatureCatalog::new())
            .and_then(|w| w.write_series(&series))
            .unwrap();

        let mut src = FileSource::open(&path).unwrap();
        let got = mine_hitset_streaming(&mut src, period, &config).unwrap();
        assert_eq!(got.frequent, expect.frequent, "case {case}");
        assert_eq!(src.scans_performed(), 2, "case {case}");

        let mut src = FileSource::open(&path).unwrap();
        let ap = mine_apriori_streaming(&mut src, period, &config).unwrap();
        assert_eq!(ap.frequent, expect.frequent, "case {case}");
        assert_eq!(src.scans_performed(), ap.stats.series_scans, "case {case}");
        std::fs::remove_file(path).ok();
    }
}

/// Closed mining is a lossless compression: every frequent pattern's
/// count equals the count of its smallest closed superpattern.
#[test]
fn closed_set_recovers_all_counts() {
    for (case, mut rng) in cases("closed_recovers", 32) {
        let series = random_series(&mut rng, 5, 4, 20..70);
        let period = rng.random_range(2..6usize);
        let config = MineConfig::new(0.35).unwrap();
        let full = hitset::mine(&series, period, &config).unwrap();
        let closed = mine_closed(&series, period, &config).unwrap();

        // Direct mining equals filter-based reference.
        assert_eq!(closed.closed, closed_of(&full), "case {case}");

        // Lossless recovery: count(P) = max count over closed ⊇ P.
        for fp in &full.frequent {
            let recovered = closed
                .closed
                .iter()
                .filter(|cp| fp.letters.is_subset(&cp.letters))
                .map(|cp| cp.count)
                .max();
            assert_eq!(
                recovered,
                Some(fp.count),
                "case {case}: pattern {:?}",
                fp.letters
            );
        }

        // Sandwich: maximal ⊆ closed ⊆ frequent.
        assert!(closed.closed.len() <= full.len(), "case {case}");
        assert!(full.maximal().len() <= closed.closed.len(), "case {case}");
    }
}

/// The synthetic backbone compresses to a tiny closed set even as the
/// frequent set explodes.
#[test]
fn closed_compression_on_synthetic_data() {
    let spec = SyntheticSpec::figure2(30_000, 10);
    let data = spec.generate();
    let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
    let full = hitset::mine(&data.series, 50, &config).unwrap();
    let closed = mine_closed(&data.series, 50, &config).unwrap();
    assert!(
        full.len() >= 1000,
        "frequent set should explode: {}",
        full.len()
    );
    assert!(
        closed.closed.len() < 40,
        "closed set should stay small: {}",
        closed.closed.len()
    );
    assert_eq!(closed.stats.series_scans, 2);
}

/// Disk mining at scale: stream a synthetic file and match memory results.
#[test]
fn disk_mining_at_scale() {
    let spec = SyntheticSpec::table1(20_000, 25, 4, 8);
    let data = spec.generate();
    let config = MineConfig::new(spec.recommended_min_conf()).unwrap();
    let path = temp("scale");
    StreamWriter::create(&path, &data.catalog)
        .and_then(|w| w.write_series(&data.series))
        .unwrap();
    let mut src = FileSource::open(&path).unwrap();
    let disk = mine_hitset_streaming(&mut src, 25, &config).unwrap();
    let mem = hitset::mine(&data.series, 25, &config).unwrap();
    assert_eq!(disk.frequent, mem.frequent);
    assert_eq!(disk.stats.series_scans, 2);
    std::fs::remove_file(path).ok();
}
