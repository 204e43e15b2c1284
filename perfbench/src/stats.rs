//! Order statistics over samples.

/// Rounds (or samples) a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of a sample that has at least
/// [`TAIL_BEYOND`] samples beyond it.
pub struct Tail {
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub pct: f64,
    pub n: usize,
}

/// `None` when there are too few samples for any such percentile.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    let k = n.checked_sub(TAIL_BEYOND + 1)?;
    Some(Tail {
        value: sorted(v)[k],
        pct: 100.0 * (k + 1) as f64 / n as f64,
        n,
    })
}

pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geometric mean of no samples");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        assert!(tail(&[1.0; 10]).is_none());
        let v: Vec<f64> = (0..12).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.n, 12);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().value, 89.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
