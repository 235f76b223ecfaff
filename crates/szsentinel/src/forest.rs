//! A seeded, deterministic isolation forest for anomaly scoring.
//!
//! Isolation forests (Liu, Ting & Zhou, ICDM 2008) score outliers by
//! how quickly random axis-aligned splits isolate a point: anomalies
//! sit in sparse regions and are separated in few splits, so their
//! expected path length is short. The score is
//! `2^(-E[h(x)] / c(ψ))` where `c(ψ)` is the average path length of
//! an unsuccessful BST search over the subsample size ψ — scores
//! near 1 are anomalous, near 0.5 or below are ordinary.
//!
//! Everything here is driven by one `SplitMix64` stream per tree
//! derived from the configured seed, and evaluation is sequential,
//! so scores are bit-identical across runs, machines with the same
//! float semantics, and thread counts. Scoring is *rank-based* at
//! the call sites: the sentinel surfaces the top-k scores per
//! benchmark rather than comparing against any threshold.

use sz_rng::{Rng, SplitMix64};

/// Forest parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub trees: usize,
    /// Subsample size ψ per tree (clamped to the data size).
    pub subsample: usize,
    /// Base seed; tree `t` uses an independent stream derived from
    /// `seed` and `t`.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> ForestConfig {
        ForestConfig {
            trees: 64,
            subsample: 32,
            seed: 0x5E27_14E1,
        }
    }
}

/// A tree node in a flat, preorder `Vec`: a split's left child is the
/// next node and its right child sits at `right`.
#[derive(Clone, Copy)]
enum Node {
    /// A leaf's whole path length: its depth plus `c(size)`.
    Leaf { path: f64 },
    Split {
        feature: usize,
        threshold: f64,
        right: usize,
    },
}

/// The cleaned rows of [`score_matrix`] in one row-major buffer.
struct Rows {
    values: Vec<f64>,
    dims: usize,
}

impl Rows {
    fn get(&self, row: usize, feature: usize) -> f64 {
        self.values[row * self.dims + feature]
    }

    fn row(&self, row: usize) -> &[f64] {
        &self.values[row * self.dims..(row + 1) * self.dims]
    }
}

/// Average path length of an unsuccessful search in a BST of `n`
/// nodes (the normalizer `c(n)` from the paper).
fn avg_path(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    if n == 2 {
        return 1.0;
    }
    let nf = n as f64;
    let harmonic = (nf - 1.0).ln() + 0.577_215_664_901_532_9;
    2.0 * harmonic - 2.0 * (nf - 1.0) / nf
}

/// Grows trees into one reused node buffer.
struct Grower<'a> {
    rows: &'a Rows,
    limit: usize,
    nodes: Vec<Node>,
    /// Scratch: the splittable features of a node, then the right half
    /// of its partition.
    spill: Vec<usize>,
}

impl Grower<'_> {
    /// Appends the subtree over `indices` in preorder. `indices` is
    /// partitioned in place and stably, so each child keeps its points
    /// in subsample order.
    fn grow(&mut self, indices: &mut [usize], depth: usize, rng: &mut SplitMix64) {
        let leaf = Node::Leaf {
            path: depth as f64 + avg_path(indices.len()),
        };
        if indices.len() <= 1 || depth >= self.limit {
            self.nodes.push(leaf);
            return;
        }
        let rows = self.rows;
        // Features where the subsample actually varies, ascending;
        // constants cannot split.
        self.spill.clear();
        self.spill.extend((0..rows.dims).filter(|&f| {
            let first = rows.get(indices[0], f);
            indices.iter().any(|&i| rows.get(i, f) != first)
        }));
        if self.spill.is_empty() {
            self.nodes.push(leaf);
            return;
        }
        let feature = self.spill[(rng.next_u64() % self.spill.len() as u64) as usize];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &i in indices.iter() {
            lo = lo.min(rows.get(i, feature));
            hi = hi.max(rows.get(i, feature));
        }
        let threshold = lo + rng.next_f64() * (hi - lo);
        self.spill.clear();
        let mut left = 0;
        for k in 0..indices.len() {
            let i = indices[k];
            if rows.get(i, feature) < threshold {
                indices[left] = i;
                left += 1;
            } else {
                self.spill.push(i);
            }
        }
        indices[left..].copy_from_slice(&self.spill);
        if left == 0 || left == indices.len() {
            self.nodes.push(leaf);
            return;
        }
        let at = self.nodes.len();
        self.nodes.push(leaf);
        let (left, right) = indices.split_at_mut(left);
        self.grow(left, depth + 1, rng);
        self.nodes[at] = Node::Split {
            feature,
            threshold,
            right: self.nodes.len(),
        };
        self.grow(right, depth + 1, rng);
    }
}

fn path_length(nodes: &[Node], point: &[f64]) -> f64 {
    let mut at = 0;
    loop {
        match nodes[at] {
            Node::Leaf { path } => return path,
            Node::Split {
                feature, threshold, ..
            } if point[feature] < threshold => at += 1,
            Node::Split { right, .. } => at = right,
        }
    }
}

/// Scores every row of `data` (rows are feature vectors of equal
/// length). Returns one score per row in input order; higher is more
/// anomalous. Empty input yields an empty vector; non-finite feature
/// values are clamped to 0 before scoring so a corrupt counter
/// cannot poison the forest.
///
/// # Panics
///
/// Panics if the rows differ in length.
pub fn score_matrix<R: AsRef<[f64]>>(data: &[R], config: &ForestConfig) -> Vec<f64> {
    if data.is_empty() {
        return Vec::new();
    }
    let n = data.len();
    let dims = data[0].as_ref().len();
    let mut values = Vec::with_capacity(n * dims);
    for row in data {
        let row = row.as_ref();
        assert_eq!(row.len(), dims, "feature rows differ in length");
        values.extend(row.iter().map(|v| if v.is_finite() { *v } else { 0.0 }));
    }
    let rows = Rows { values, dims };
    let psi = config.subsample.clamp(2, n.max(2)).min(n.max(1));
    let trees = config.trees.max(1);
    let mut grower = Grower {
        rows: &rows,
        limit: (psi.max(2) as f64).log2().ceil() as usize,
        nodes: Vec::new(),
        spill: Vec::new(),
    };
    let mut totals = vec![0.0f64; n];
    let mut pool: Vec<usize> = Vec::with_capacity(n);
    for t in 0..trees {
        let mut rng = SplitMix64::new(
            config
                .seed
                .wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        // Deterministic subsample without replacement: partial
        // Fisher–Yates over the index range.
        pool.clear();
        pool.extend(0..n);
        for i in 0..psi.min(n) {
            let j = i + (rng.next_u64() % (n - i) as u64) as usize;
            pool.swap(i, j);
        }
        grower.nodes.clear();
        grower.grow(&mut pool[..psi.min(n)], 0, &mut rng);
        for (i, total) in totals.iter_mut().enumerate() {
            *total += path_length(&grower.nodes, rows.row(i));
        }
    }
    let norm = avg_path(psi);
    totals
        .into_iter()
        .map(|total| {
            let mean_path = total / trees as f64;
            if norm > 0.0 {
                // Not `2f64.powf(..)`: optimized builds rewrite that to
                // `exp2` and unoptimized ones do not, and the two can
                // differ in the last bit.
                (-mean_path / norm).exp2()
            } else {
                0.5
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_with_outlier() -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(0xF0_4E57);
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                (0..4)
                    .map(|_| 1.0 + 0.05 * (rng.next_f64() - 0.5))
                    .collect()
            })
            .collect();
        rows.push(vec![8.0, 8.0, 8.0, 8.0]);
        rows
    }

    #[test]
    fn planted_outlier_scores_highest() {
        let rows = cluster_with_outlier();
        let scores = score_matrix(&rows, &ForestConfig::default());
        assert_eq!(scores.len(), rows.len());
        let (top, _) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .expect("non-empty");
        assert_eq!(top, rows.len() - 1, "the planted outlier ranks first");
        assert!(scores[top] > 0.6, "outlier score is high: {}", scores[top]);
    }

    #[test]
    fn scores_are_deterministic() {
        let rows = cluster_with_outlier();
        let a = score_matrix(&rows, &ForestConfig::default());
        let b = score_matrix(&rows, &ForestConfig::default());
        assert_eq!(a, b, "same seed, same data, bit-identical scores");
        let other_seed = ForestConfig {
            seed: 1,
            ..ForestConfig::default()
        };
        let c = score_matrix(&rows, &other_seed);
        assert_ne!(a, c, "the seed actually drives the forest");
    }

    /// `n` seeded rows near 1.0; every ninth row (from the fifth) is
    /// scaled 3× so each matrix holds outliers.
    fn seeded_rows(seed: u64, n: usize, dims: usize) -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let scale = if i % 9 == 4 { 3.0 } else { 1.0 };
                (0..dims)
                    .map(|_| scale * (1.0 + 0.05 * rng.next_f64()))
                    .collect()
            })
            .collect()
    }

    fn score_bits(rows: &[Vec<f64>]) -> Vec<u64> {
        score_matrix(rows, &ForestConfig::default())
            .iter()
            .map(|s| s.to_bits())
            .collect()
    }

    /// Exact score bits, recorded when each tree was a boxed node graph
    /// built from copied index lists. The golden file compares at 1e-9
    /// and cannot see low-bit drift; these can.
    #[test]
    fn scores_are_bit_pinned() {
        let mut constant_columns = seeded_rows(0xC0175, 20, 8);
        for row in &mut constant_columns {
            for f in [1, 4, 7] {
                row[f] = 2.5;
            }
        }
        assert_eq!(
            score_bits(&constant_columns),
            [
                0x3fde729f2d132796,
                0x3fdc13a7698e49bc,
                0x3fddabe6b6c41426,
                0x3fdb6cbd17096a69,
                0x3fe87085c606b757,
                0x3fdc4b01b646836e,
                0x3fdb35540fc41d00,
                0x3fe0cdcf0e3f414e,
                0x3fd9df7e550d13cf,
                0x3fdbca6c4d52e8f2,
                0x3fe01687b3e4962e,
                0x3fe1374e2fd7d1f9,
                0x3fdcf131fde47c80,
                0x3fe87db6032a4efc,
                0x3fdb35d005376e35,
                0x3fdc1a650bed4b78,
                0x3fddb82bb6ce5f8a,
                0x3fdce8f4277553e9,
                0x3fdd8cff6a1184aa,
                0x3fdae29ce80b1034,
            ]
        );

        let mut with_nan = seeded_rows(0x4A4E, 12, 4);
        with_nan[3][0] = f64::NAN;
        with_nan[7][2] = f64::NEG_INFINITY;
        assert_eq!(
            score_bits(&with_nan),
            [
                0x3fdbecc1953e1ba5,
                0x3fd834b225dff851,
                0x3fd8f06763ed18b7,
                0x3fe1902e44fa74b6,
                0x3fea21da370e22a5,
                0x3fd7db807cb8c68c,
                0x3fda5a0dd76bf250,
                0x3fdf6ce019aa9da2,
                0x3fd8629c77bd0d06,
                0x3fd93a5c4103aa63,
                0x3fdab8e54615d019,
                0x3fdb5f89238793da,
            ]
        );

        // Every prefix of one matrix, n = 1..=70 (below, at and above
        // the subsample size of 32), folded into one FNV-1a digest.
        let rows = seeded_rows(0x512E5, 70, 8);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for n in 1..=rows.len() {
            for bits in score_bits(&rows[..n]) {
                for byte in bits.to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(digest, 0x156346ba3ac29689);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert!(score_matrix::<Vec<f64>>(&[], &ForestConfig::default()).is_empty());
        let constant = vec![vec![1.0, 1.0]; 8];
        let scores = score_matrix(&constant, &ForestConfig::default());
        assert_eq!(scores.len(), 8);
        let with_nan = vec![vec![f64::NAN, 1.0], vec![0.5, 1.0], vec![0.4, 1.0]];
        let scores = score_matrix(&with_nan, &ForestConfig::default());
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}
