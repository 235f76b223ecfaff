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
//!
//! # Growing a tree over bit sets
//!
//! A tree depends on the *set* of rows in each node, never on their
//! order. A node draws from its tree's stream only when it splits:
//! once to pick a feature among those that vary in it, once for a
//! threshold between that feature's minimum and maximum over it. Which
//! features vary, the minimum, the maximum and the node's size are
//! functions of the set, and a split only sends each row to the side
//! `value < threshold` names. The draws happen in preorder, whose
//! shape the sets alone fix, and a row's path length is its leaf's
//! depth plus `c(leaf size)`. Every row adds one path per tree to its
//! own total, in tree order. Nothing order-dependent is left: min and
//! max of finite values differ by order only in the sign of a zero,
//! which `lo + r·(hi − lo)` cannot see, since a node that varies has
//! `hi > lo`.
//!
//! So a node is a bit set over the subsample's positions, ⌈ψ/64⌉
//! words wide. Each feature's distinct values (`==`, so `-0` and `+0`
//! are one) are numbered once per matrix, and each value class in the
//! subsample gets a bit set of its positions: "feature `f` varies in
//! this node" is one AND-NOT against the class of the node's first
//! member. The split compares the chosen column against the threshold
//! without a branch per row. Each subsampled row takes its path when
//! its leaf is made; only the rows left out of the subsample walk the
//! finished tree, so when every row is sampled no node array is built,
//! and one sample and its masks serve all trees. The masks take one
//! entry per value class: at most `dims · n` of them, ⌈ψ/64⌉ words
//! each.

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

    /// Numbers each feature's distinct values (`==`, so `-0` and `+0`
    /// share one) across the whole matrix: `ids[row * dims + f]`
    /// indexes one table of every feature's classes. Returns the ids
    /// and the table's length, at most `dims · n`.
    fn value_classes(&self, n: usize) -> (Vec<usize>, usize) {
        let mut ids = vec![0; self.values.len()];
        let mut order: Vec<usize> = (0..n).collect();
        let mut next = 0;
        for f in 0..self.dims {
            order.sort_unstable_by(|&a, &b| {
                self.get(a, f)
                    .partial_cmp(&self.get(b, f))
                    .expect("cleaned values are finite")
            });
            for (k, &row) in order.iter().enumerate() {
                if k == 0 || self.get(row, f) != self.get(order[k - 1], f) {
                    next += 1;
                }
                ids[row * self.dims + f] = next - 1;
            }
        }
        (ids, next)
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

/// One tree's subsample by position `0..ψ`, feature by feature, with
/// each value class present as a bit set of positions.
struct Sample {
    len: usize,
    /// Words per position set: ⌈ψ/64⌉.
    words: usize,
    /// `rows[p]`: the row at position `p`.
    rows: Vec<usize>,
    /// `columns[f * len + p]`: feature `f` of the row at position `p`.
    columns: Vec<f64>,
    dims: usize,
    /// `classes[p * dims + f]`: the class of feature `f` at position
    /// `p`, a mask index.
    classes: Vec<usize>,
    /// `masks[c * words..][..words]`: the positions in class `c`. Only
    /// the classes of the current rows are valid.
    masks: Vec<u64>,
}

impl Sample {
    fn new(dims: usize, len: usize, class_count: usize) -> Sample {
        let words = len.div_ceil(64);
        Sample {
            len,
            words,
            rows: Vec::with_capacity(len),
            columns: vec![0.0; dims * len],
            dims,
            classes: vec![0; dims * len],
            masks: vec![0; class_count * words],
        }
    }

    /// Loads `picked` (ψ rows) into positions `0..ψ`.
    fn fill(&mut self, data: &Rows, ids: &[usize], picked: &[usize]) {
        let (len, words, dims) = (self.len, self.words, self.dims);
        self.rows.clear();
        self.rows.extend_from_slice(picked);
        for (p, &row) in picked.iter().enumerate() {
            let classes = &ids[row * dims..][..dims];
            self.classes[p * dims..][..dims].copy_from_slice(classes);
            for (f, &class) in classes.iter().enumerate() {
                self.columns[f * len + p] = data.get(row, f);
                self.masks[class * words..][..words].fill(0);
            }
        }
        for p in 0..len {
            for &class in &self.classes[p * dims..][..dims] {
                self.masks[class * words + p / 64] |= 1 << (p % 64);
            }
        }
    }
}

/// Grows one tree at a time over a [`Sample`], adding each position's
/// leaf path to its row's total as the leaf is made.
struct Grower {
    limit: usize,
    /// `avg_paths[k]` = `avg_path(k)` for every node size `0..=ψ`.
    avg_paths: Vec<f64>,
    /// Node sets, `words` apiece: the root, then a left and a right
    /// child set for each depth below the limit.
    sets: Vec<u64>,
    /// Scratch: the features a node varies in, ascending.
    varying: Vec<usize>,
    /// The tree in preorder, for the rows outside the subsample;
    /// grown only when there are such rows.
    nodes: Option<Vec<Node>>,
    totals: Vec<f64>,
}

impl Grower {
    /// Grows one tree over every position of `sample`.
    fn tree(&mut self, sample: &Sample, rng: &mut SplitMix64) {
        for (k, word) in self.sets[..sample.words].iter_mut().enumerate() {
            *word = u64::MAX >> (64 - (sample.len - 64 * k).min(64));
        }
        if let Some(nodes) = &mut self.nodes {
            nodes.clear();
        }
        self.grow(sample, 0, 0, rng);
    }

    /// Grows the subtree over the position set at `self.sets[at..]`.
    /// The size and the varying test read a set's first word apart from
    /// the rest: it is the only one when ψ ≤ 64.
    fn grow(&mut self, sample: &Sample, at: usize, depth: usize, rng: &mut SplitMix64) {
        let words = sample.words;
        let node = &self.sets[at..at + words];
        let mut size = node[0].count_ones() as usize;
        for word in &node[1..] {
            size += word.count_ones() as usize;
        }
        let path = depth as f64 + self.avg_paths[size];
        if size <= 1 || depth >= self.limit {
            return self.leaf(sample, at, path);
        }
        // Features where the node actually varies: some member lies
        // outside the first member's value class. Constants cannot
        // split.
        let mut first = 0;
        while node[first / 64] == 0 {
            first += 64;
        }
        first += node[first / 64].trailing_zeros() as usize;
        let dims = sample.dims;
        let mut varying = 0;
        for (f, &class) in sample.classes[first * dims..][..dims].iter().enumerate() {
            let class = &sample.masks[class * words..][..words];
            let mut outside = node[0] & !class[0];
            for (member, same) in node[1..].iter().zip(&class[1..]) {
                outside |= member & !same;
            }
            self.varying[varying] = f;
            varying += usize::from(outside != 0);
        }
        if varying == 0 {
            return self.leaf(sample, at, path);
        }
        let feature = self.varying[(rng.next_u64() % varying as u64) as usize];
        let column = &sample.columns[feature * sample.len..][..sample.len];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (&word, values) in node.iter().zip(column.chunks(64)) {
            let mut rest = word;
            while rest != 0 {
                let v = values[rest.trailing_zeros() as usize];
                lo = if v < lo { v } else { lo };
                hi = if v > hi { v } else { hi };
                rest &= rest - 1;
            }
        }
        let threshold = lo + rng.next_f64() * (hi - lo);
        let child = words * (1 + 2 * depth);
        let (head, tail) = self.sets.split_at_mut(child);
        let node = &head[at..at + words];
        let (left, right) = tail[..2 * words].split_at_mut(words);
        let (mut moved, mut kept) = (0, 0);
        for (k, values) in column.chunks(64).enumerate() {
            let member = node[k];
            let mut below = 0u64;
            if member != 0 {
                for (bit, &v) in values.iter().enumerate() {
                    below |= u64::from(v < threshold) << bit;
                }
            }
            left[k] = member & below;
            right[k] = member & !below;
            moved |= member & below;
            kept |= member & !below;
        }
        if moved == 0 || kept == 0 {
            return self.leaf(sample, at, path);
        }
        let split = self.nodes.as_mut().map(|nodes| {
            nodes.push(Node::Leaf { path });
            nodes.len() - 1
        });
        self.grow(sample, child, depth + 1, rng);
        if let (Some(split), Some(nodes)) = (split, &mut self.nodes) {
            nodes[split] = Node::Split {
                feature,
                threshold,
                right: nodes.len(),
            };
        }
        self.grow(sample, child + words, depth + 1, rng);
    }

    fn leaf(&mut self, sample: &Sample, at: usize, path: f64) {
        if let Some(nodes) = &mut self.nodes {
            nodes.push(Node::Leaf { path });
        }
        for (k, &word) in self.sets[at..at + sample.words].iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                self.totals[sample.rows[64 * k + rest.trailing_zeros() as usize]] += path;
                rest &= rest - 1;
            }
        }
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
    let every_row = psi == n;
    let limit = (psi.max(2) as f64).log2().ceil() as usize;
    let (ids, class_count) = rows.value_classes(n);
    let mut sample = Sample::new(dims, psi, class_count);
    let mut pool: Vec<usize> = (0..n).collect();
    if every_row {
        // Each tree holds every row, so one sample serves them all.
        sample.fill(&rows, &ids, &pool);
    }
    let mut grower = Grower {
        limit,
        avg_paths: (0..=psi).map(avg_path).collect(),
        sets: vec![0; sample.words * (1 + 2 * limit)],
        varying: vec![0; dims],
        nodes: (!every_row).then(Vec::new),
        totals: vec![0.0; n],
    };
    for t in 0..trees {
        let mut rng = SplitMix64::new(
            config
                .seed
                .wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        // Deterministic subsample without replacement: partial
        // Fisher–Yates over the index range. When it takes every row
        // only its draws matter: they advance the stream the tree
        // grows from.
        if every_row {
            for _ in 0..n {
                rng.next_u64();
            }
        } else {
            pool.clear();
            pool.extend(0..n);
            for i in 0..psi {
                let j = i + (rng.next_u64() % (n - i) as u64) as usize;
                pool.swap(i, j);
            }
            sample.fill(&rows, &ids, &pool[..psi]);
        }
        grower.tree(&sample, &mut rng);
        if let Some(nodes) = &grower.nodes {
            for &row in &pool[psi..] {
                grower.totals[row] += path_length(nodes, rows.row(row));
            }
        }
    }
    let norm = avg_path(psi);
    grower
        .totals
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

    /// The grower before bit sets, kept as the oracle: each node is a
    /// list of row indices, partitioned in place and stably, and every
    /// row walks the finished tree.
    struct ListGrower<'a> {
        rows: &'a Rows,
        limit: usize,
        nodes: Vec<Node>,
        spill: Vec<usize>,
    }

    impl ListGrower<'_> {
        fn grow(&mut self, indices: &mut [usize], depth: usize, rng: &mut SplitMix64) {
            let leaf = Node::Leaf {
                path: depth as f64 + avg_path(indices.len()),
            };
            if indices.len() <= 1 || depth >= self.limit {
                self.nodes.push(leaf);
                return;
            }
            let rows = self.rows;
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

    fn oracle_scores(data: &[Vec<f64>], config: &ForestConfig) -> Vec<f64> {
        if data.is_empty() {
            return Vec::new();
        }
        let n = data.len();
        let dims = data[0].len();
        let values = data
            .iter()
            .flatten()
            .map(|v| if v.is_finite() { *v } else { 0.0 })
            .collect();
        let rows = Rows { values, dims };
        let psi = config.subsample.clamp(2, n.max(2)).min(n.max(1));
        let trees = config.trees.max(1);
        let mut grower = ListGrower {
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
                    (-mean_path / norm).exp2()
                } else {
                    0.5
                }
            })
            .collect()
    }

    /// A seeded matrix for the oracle: columns drawn from a few values
    /// (so nodes meet ties and constants), from a continuous range, or
    /// held constant, with `±0`, NaN, `±inf`, `±f64::MAX` (whose range
    /// overflows) and duplicated rows mixed in.
    fn oracle_matrix(rng: &mut SplitMix64, n: usize, dims: usize) -> Vec<Vec<f64>> {
        const ODD: [f64; 7] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -f64::MAX,
        ];
        let kinds: Vec<u64> = (0..dims).map(|_| rng.below(4)).collect();
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        for _ in 0..n {
            if !rows.is_empty() && rng.below(8) == 0 {
                let copy = rows[rng.below(rows.len() as u64) as usize].clone();
                rows.push(copy);
                continue;
            }
            let row = kinds
                .iter()
                .map(|&kind| match kind {
                    _ if rng.below(16) == 0 => ODD[rng.below(ODD.len() as u64) as usize],
                    0 => rng.below(3) as f64 - 1.0,
                    1 => 2.5,
                    _ => 1.0 + rng.next_f64(),
                })
                .collect();
            rows.push(row);
        }
        rows
    }

    /// The bit-set grower against the list grower, bit for bit, on
    /// 4,000 seeded matrices: n from 1 to 80, 1–9 features, ψ from 2
    /// to 70 (below, at and above n) and 1–70 trees.
    #[test]
    fn bit_sets_match_the_list_grower() {
        let mut rng = SplitMix64::new(0x00B1_75E7);
        let (mut every_row, mut some_rows) = (0, 0);
        for case in 0..4_000u64 {
            let n = 1 + rng.below(80) as usize;
            let dims = 1 + rng.below(9) as usize;
            let config = ForestConfig {
                trees: 1 + rng.below(70) as usize,
                subsample: 2 + rng.below(69) as usize,
                seed: rng.next_u64(),
            };
            let data = oracle_matrix(&mut rng, n, dims);
            let bits = |scores: Vec<f64>| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(score_matrix(&data, &config)),
                bits(oracle_scores(&data, &config)),
                "case {case}: n {n}, dims {dims}, {config:?}"
            );
            if config.subsample >= n {
                every_row += 1;
            } else {
                some_rows += 1;
            }
        }
        assert!(
            every_row > 1_000 && some_rows > 1_000,
            "{every_row}/{some_rows}"
        );
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
        let featureless = vec![Vec::new(); 5];
        assert_eq!(
            score_matrix(&featureless, &ForestConfig::default()),
            oracle_scores(&featureless, &ForestConfig::default())
        );
    }
}
