//! Pareto-front utilities for quality/performance trade-off analysis
//! (Figs. 5 and 6 of the paper).

/// One evaluated candidate: quality (higher better) and a primary cost
/// (lower better), with an arbitrary payload index into the caller's data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Quality, higher is better (accuracy, AUC, ...).
    pub quality: f64,
    /// Cost, lower is better (step time, latency, ...).
    pub cost: f64,
    /// Caller-side identifier.
    pub index: usize,
}

/// Extracts the non-dominated set: a point survives iff no other point has
/// `quality ≥` *and* `cost ≤` with at least one strict. Returned sorted by
/// increasing cost.
pub fn pareto_front(points: &[ParetoPoint]) -> Vec<ParetoPoint> {
    let mut front: Vec<ParetoPoint> = points
        .iter()
        .filter(|p| {
            !points.iter().any(|q| {
                q.quality >= p.quality
                    && q.cost <= p.cost
                    && (q.quality > p.quality || q.cost < p.cost)
            })
        })
        .cloned()
        .collect();
    front.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    front.dedup_by(|a, b| a.quality == b.quality && a.cost == b.cost);
    front
}

/// Buckets points by quality and averages the cost within each bucket —
/// the Fig. 5b presentation ("bucketized by quality and then averaged").
/// Returns `(bucket_midpoint_quality, mean_cost, count)` for non-empty
/// buckets, in ascending quality order.
pub fn bucketize_by_quality(points: &[ParetoPoint], num_buckets: usize) -> Vec<(f64, f64, usize)> {
    bucketize(points, num_buckets, |p| p.quality, |p| p.cost)
}

/// Buckets points by cost and averages the quality within each bucket —
/// the Fig. 5c presentation. Returns `(bucket_midpoint_cost, mean_quality,
/// count)` in ascending cost order.
pub fn bucketize_by_cost(points: &[ParetoPoint], num_buckets: usize) -> Vec<(f64, f64, usize)> {
    bucketize(points, num_buckets, |p| p.cost, |p| p.quality)
}

fn bucketize(
    points: &[ParetoPoint],
    num_buckets: usize,
    key: impl Fn(&ParetoPoint) -> f64,
    value: impl Fn(&ParetoPoint) -> f64,
) -> Vec<(f64, f64, usize)> {
    if points.is_empty() || num_buckets == 0 {
        return vec![];
    }
    let lo = points.iter().map(&key).fold(f64::INFINITY, f64::min);
    let hi = points.iter().map(&key).fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / num_buckets as f64).max(1e-12);
    let mut sums = vec![(0.0f64, 0usize); num_buckets];
    for p in points {
        let b = (((key(p) - lo) / width) as usize).min(num_buckets - 1);
        sums[b].0 += value(p);
        sums[b].1 += 1;
    }
    sums.into_iter()
        .enumerate()
        .filter(|(_, (_, n))| *n > 0)
        .map(|(b, (sum, n))| (lo + (b as f64 + 0.5) * width, sum / n as f64, n))
        .collect()
}

/// A scalar "how good is this front" measure: the area dominated by the
/// front relative to a reference point `(ref_cost, ref_quality_floor)`.
/// Larger is better. Used to compare ReLU vs absolute rewards (Fig. 5a).
pub fn dominated_area(front: &[ParetoPoint], ref_cost: f64, quality_floor: f64) -> f64 {
    let mut front = front.to_vec();
    front.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    let mut area = 0.0;
    let mut prev_cost: f64 = 0.0;
    let mut best_quality = quality_floor;
    for p in &front {
        if p.cost > ref_cost {
            break;
        }
        // Area accumulated at the best quality seen so far.
        area += (p.cost - prev_cost).max(0.0) * (best_quality - quality_floor).max(0.0);
        best_quality = best_quality.max(p.quality);
        prev_cost = p.cost.max(prev_cost);
    }
    area += (ref_cost - prev_cost).max(0.0) * (best_quality - quality_floor).max(0.0);
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(quality: f64, cost: f64, index: usize) -> ParetoPoint {
        ParetoPoint {
            quality,
            cost,
            index,
        }
    }

    #[test]
    fn front_removes_dominated_points() {
        let points = vec![p(1.0, 1.0, 0), p(2.0, 2.0, 1), p(0.5, 3.0, 2)];
        let front = pareto_front(&points);
        let indices: Vec<usize> = front.iter().map(|x| x.index).collect();
        assert_eq!(indices, vec![0, 1], "point 2 is dominated by both");
    }

    #[test]
    fn front_keeps_all_nondominated() {
        let points = vec![p(1.0, 1.0, 0), p(2.0, 2.0, 1), p(3.0, 3.0, 2)];
        assert_eq!(pareto_front(&points).len(), 3);
    }

    #[test]
    fn front_single_point() {
        let points = vec![p(1.0, 1.0, 0)];
        assert_eq!(pareto_front(&points).len(), 1);
    }

    #[test]
    fn duplicate_points_deduplicated() {
        let points = vec![p(1.0, 1.0, 0), p(1.0, 1.0, 1)];
        assert_eq!(pareto_front(&points).len(), 1);
    }

    #[test]
    fn bucketize_by_quality_orders_and_averages() {
        let points = vec![
            p(1.0, 10.0, 0),
            p(1.1, 20.0, 1),
            p(9.0, 5.0, 2),
            p(9.2, 7.0, 3),
        ];
        let buckets = bucketize_by_quality(&points, 2);
        assert_eq!(buckets.len(), 2);
        assert!((buckets[0].1 - 15.0).abs() < 1e-9);
        assert!((buckets[1].1 - 6.0).abs() < 1e-9);
        assert_eq!(buckets[0].2, 2);
    }

    #[test]
    fn bucketize_empty_is_empty() {
        assert!(bucketize_by_cost(&[], 4).is_empty());
    }

    #[test]
    fn dominated_area_prefers_better_fronts() {
        // Front A strictly dominates front B.
        let a = vec![p(2.0, 1.0, 0), p(3.0, 2.0, 1)];
        let b = vec![p(1.5, 1.5, 0), p(2.5, 2.5, 1)];
        assert!(dominated_area(&a, 4.0, 0.0) > dominated_area(&b, 4.0, 0.0));
    }

    #[test]
    fn dominated_area_zero_for_floor_quality() {
        let f = vec![p(0.0, 1.0, 0)];
        assert_eq!(dominated_area(&f, 2.0, 0.0), 0.0);
    }
}
