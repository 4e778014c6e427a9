//! Order statistics over a handful of repetitions.

/// Median, extremes and count of one metric's samples. With 5–12
/// repetitions there are never ten samples beyond any percentile above the
/// median, so the median is the only percentile reported; min and max are
/// printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Summarize the samples of one metric.
#[must_use]
pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        samples: values.len(),
    }
}

/// A single value reported without repetitions (counts, exact metrics).
#[must_use]
pub fn single(value: f64) -> Summary {
    Summary {
        median: value,
        min: value,
        max: value,
        samples: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.samples), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.samples), (2.5, 1.0, 4.0, 4));
        assert_eq!(summarize(&[7.5]), single(7.5));
    }
}
