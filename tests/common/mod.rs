//! Seeded case generation for the property tests: each property runs over
//! a fixed number of cases drawn from `ppm-datagen`'s SplitMix64, so every
//! run is reproducible and a failure names the case that broke it.

// Each test crate uses its own subset of these helpers.
#![allow(dead_code)]

use std::collections::BTreeSet;
use std::ops::Range;

use partial_periodic::datagen::rng::{Rng, SplitMix64};
use partial_periodic::{FeatureId, FeatureSeries, SeriesBuilder};

/// One seeded generator per case; the property's name salts the seed so
/// properties draw independent streams.
pub fn cases(name: &str, n: u64) -> impl Iterator<Item = (u64, SplitMix64)> {
    let salt = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    (0..n).map(move |case| (case, SplitMix64::seed_from_u64(salt ^ case)))
}

/// A set of `len` draws (duplicates collapse) from `values`.
pub fn set_of(rng: &mut SplitMix64, values: Range<usize>, len: Range<usize>) -> BTreeSet<usize> {
    let n = rng.random_range(len);
    (0..n).map(|_| rng.random_range(values.clone())).collect()
}

/// A uniform `f64` in `[lo, hi)`.
pub fn float_in(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.random::<f64>()
}

/// One of `choices`, uniformly.
pub fn pick<T: Copy>(rng: &mut SplitMix64, choices: &[T]) -> T {
    choices[rng.random_range(0..choices.len())]
}

/// `len` instants, each holding `0..max_features` draws (duplicates
/// allowed) from the feature ids below `features`.
pub fn instants(
    rng: &mut SplitMix64,
    features: u32,
    max_features: usize,
    len: Range<usize>,
) -> Vec<Vec<u32>> {
    let n = rng.random_range(len);
    (0..n)
        .map(|_| {
            let k = rng.random_range(0..max_features);
            (0..k).map(|_| rng.random_range(0..features)).collect()
        })
        .collect()
}

/// A series of generated instants.
pub fn build_series(instants: &[Vec<u32>]) -> FeatureSeries {
    let mut builder = SeriesBuilder::new();
    for inst in instants {
        builder.push_instant(inst.iter().map(|&f| FeatureId::from_raw(f)));
    }
    builder.finish()
}

/// [`instants`] straight into a series.
pub fn random_series(
    rng: &mut SplitMix64,
    features: u32,
    max_features: usize,
    len: Range<usize>,
) -> FeatureSeries {
    build_series(&instants(rng, features, max_features, len))
}
