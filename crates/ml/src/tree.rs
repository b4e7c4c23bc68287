//! CART decision tree with Gini impurity — the base learner for the
//! Random Forest and (as stumps) AdaBoost.
//!
//! A fitted tree is one preorder arena of 16-byte nodes: a split's left
//! child is the node right after it and its right child is stored by
//! index, so every child index points forward. A prediction walks that
//! contiguous array and never allocates. Feature and class indices are
//! stored as `u16`, so a tree handles at most 65,536 of each (fitting
//! panics beyond that; decoding returns an error). The JSON form is the
//! nested
//! `{"Split":{"feature","threshold","left","right"}}` /
//! `{"Leaf":{"class"}}` tree, read and written straight from and to the
//! arena.
//!
//! Each tree level nests two JSON objects, and the reader refuses
//! nesting past [`serde::MAX_DEPTH`] (128). So a tree deeper than 62
//! levels on its own, or 60 inside a `ModelBundle`, serializes but does
//! not decode. Every model in this workspace is fitted at depth ≤ 20.

use crate::Classifier;
use serde::{Deserialize, Error, Reader, Serialize, Value};

/// One arena slot: a split when `right != 0`, else a leaf (the root, at
/// index 0, is never a child, so 0 is free to mark leaves).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct TreeNode {
    /// Split threshold: `x[feature] <= threshold` goes left.
    threshold: f64,
    /// Arena index of a split's right subtree.
    right: u32,
    /// Feature index tested by a split.
    feature: u16,
    /// Class predicted by a leaf.
    class: u16,
}

const _: () = assert!(std::mem::size_of::<TreeNode>() == 16);

impl TreeNode {
    fn is_leaf(&self) -> bool {
        self.right == 0
    }
}

fn arena_u32(i: usize) -> Result<u32, Error> {
    u32::try_from(i).map_err(|_| Error::msg(format!("tree index {i} exceeds u32")))
}

fn arena_u16(i: usize) -> Result<u16, Error> {
    u16::try_from(i).map_err(|_| Error::msg(format!("feature or class {i} exceeds u16")))
}

/// A fitted tree's nodes in preorder; empty until fitted (`null` in JSON).
#[derive(Debug, Clone, PartialEq, Default)]
struct NodeArena(Vec<TreeNode>);

/// CART classifier with gini impurity, depth-limited.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    max_depth: usize,
    min_samples_split: usize,
    root: NodeArena,
    /// When `Some(k)`, consider only `k` random features per split
    /// (used by the forest); the RNG state is owned by the caller.
    feature_subsample: Option<usize>,
    rng_state: u64,
}

impl DecisionTree {
    /// A tree limited to `max_depth` levels.
    pub fn new(max_depth: usize) -> Self {
        DecisionTree {
            max_depth,
            min_samples_split: 2,
            root: NodeArena::default(),
            feature_subsample: None,
            rng_state: 0x9e3779b97f4a7c15,
        }
    }

    /// Forest constructor: random feature subsampling per split.
    pub fn with_feature_subsample(max_depth: usize, k: usize, seed: u64) -> Self {
        DecisionTree {
            max_depth,
            min_samples_split: 2,
            root: NodeArena::default(),
            feature_subsample: Some(k.max(1)),
            rng_state: seed | 1,
        }
    }

    /// Fit with per-sample weights (AdaBoost). Weights must sum > 0.
    pub fn fit_weighted(&mut self, x: &[Vec<f64>], y: &[usize], w: &[f64], n_classes: usize) {
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), w.len());
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = lf_sparse::Pcg32::seed_from_u64(self.rng_state);
        let mut nodes = Vec::new();
        self.build(x, y, w, &idx, n_classes, 0, &mut rng, &mut nodes);
        self.root = NodeArena(nodes);
    }

    /// Append the subtree fitted on `idx` to `nodes` in preorder: the
    /// split, then its whole left subtree, then its right subtree.
    fn build(
        &self,
        x: &[Vec<f64>],
        y: &[usize],
        w: &[f64],
        idx: &[usize],
        n_classes: usize,
        depth: usize,
        rng: &mut lf_sparse::Pcg32,
        nodes: &mut Vec<TreeNode>,
    ) {
        let Some((feature, threshold, left_idx, right_idx)) =
            self.split(x, y, w, idx, n_classes, depth, rng)
        else {
            let class = weighted_majority(y, w, idx, n_classes);
            nodes.push(TreeNode {
                class: arena_u16(class).expect("class index fits u16"),
                ..TreeNode::default()
            });
            return;
        };
        let at = nodes.len();
        nodes.push(TreeNode {
            threshold,
            feature: arena_u16(feature).expect("feature index fits u16"),
            ..TreeNode::default()
        });
        self.build(x, y, w, &left_idx, n_classes, depth + 1, rng, nodes);
        nodes[at].right = arena_u32(nodes.len()).expect("tree size fits u32");
        self.build(x, y, w, &right_idx, n_classes, depth + 1, rng, nodes);
    }

    /// The split to make at a node fitted on `idx` — feature, threshold
    /// and the two sides' samples — or `None` for a leaf.
    fn split(
        &self,
        x: &[Vec<f64>],
        y: &[usize],
        w: &[f64],
        idx: &[usize],
        n_classes: usize,
        depth: usize,
        rng: &mut lf_sparse::Pcg32,
    ) -> Option<(usize, f64, Vec<usize>, Vec<usize>)> {
        if depth >= self.max_depth || idx.len() < self.min_samples_split || is_pure(y, idx) {
            return None;
        }
        let n_features = x[0].len();
        let candidate_features: Vec<usize> = match self.feature_subsample {
            Some(k) if k < n_features => rng.sample_distinct(n_features, k),
            _ => (0..n_features).collect(),
        };
        // XOR-like targets have zero first-split gain; for an impure node
        // with no gain anywhere, fall back to a median split so deeper
        // levels get a chance (mirrors sklearn's behaviour of always
        // splitting while impure and splittable).
        let (feature, threshold) = best_split(x, y, w, idx, &candidate_features, n_classes)
            .or_else(|| fallback_split(x, idx, &candidate_features))?;
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return None;
        }
        Some((feature, threshold, left_idx, right_idx))
    }

    /// Depth of the fitted tree (0 for a bare leaf / unfitted).
    pub fn depth(&self) -> usize {
        let nodes = &self.root.0;
        let mut depth = vec![0; nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            if !n.is_leaf() {
                depth[i + 1] = depth[i] + 1;
                depth[n.right as usize] = depth[i] + 1;
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Check a fitted tree before it is trusted to predict: it has
    /// nodes, every child index points forward and inside the arena,
    /// every split tests a feature below `n_features` and every leaf
    /// predicts a class below `n_classes`. A tree that passes can walk
    /// any `n_features`-long input without panicking, and every walk
    /// ends at a leaf.
    pub(crate) fn validate(&self, n_features: usize, n_classes: usize) -> Result<(), String> {
        let nodes = &self.root.0;
        if nodes.is_empty() {
            return Err("tree is not fitted".into());
        }
        for (i, n) in nodes.iter().enumerate() {
            if n.is_leaf() {
                if n.class as usize >= n_classes {
                    return Err(format!("node {i}: class {} >= {n_classes}", n.class));
                }
            } else {
                let right = n.right as usize;
                if right <= i + 1 || right >= nodes.len() {
                    return Err(format!(
                        "node {i}: right child {right} is not forward within {} nodes",
                        nodes.len()
                    ));
                }
                if n.feature as usize >= n_features {
                    return Err(format!("node {i}: feature {} >= {n_features}", n.feature));
                }
            }
        }
        Ok(())
    }
}

impl Serialize for NodeArena {
    fn to_value(&self) -> Value {
        if self.0.is_empty() {
            Value::Null
        } else {
            node_value(&self.0, 0)
        }
    }
}

/// The nested JSON form of the subtree at arena index `i`.
fn node_value(nodes: &[TreeNode], i: usize) -> Value {
    let n = nodes[i];
    let (tag, fields) = if n.is_leaf() {
        ("Leaf", vec![("class", n.class.to_value())])
    } else {
        (
            "Split",
            vec![
                ("feature", n.feature.to_value()),
                ("threshold", n.threshold.to_value()),
                ("left", node_value(nodes, i + 1)),
                ("right", node_value(nodes, n.right as usize)),
            ],
        )
    };
    let fields = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Value::Object(vec![(tag.to_string(), Value::Object(fields))])
}

impl Deserialize for NodeArena {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut nodes = Vec::new();
        if !r.read_null()? {
            read_node(r, &mut nodes)?;
        }
        Ok(NodeArena(nodes))
    }
}

/// Append the nested subtree at the reader to `nodes` in preorder.
fn read_node(r: &mut Reader<'_>, nodes: &mut Vec<TreeNode>) -> Result<(), Error> {
    r.begin_object()?;
    let Some(tag) = r.next_key()? else {
        return Err(r.error("expected `Split` or `Leaf`"));
    };
    match &*tag {
        "Leaf" => {
            let mut class: Option<usize> = None;
            r.begin_object()?;
            while let Some(key) = r.next_key()? {
                match &*key {
                    "class" => r.fill(&mut class, "class")?,
                    _ => r.skip_value()?,
                }
            }
            let class = class.ok_or_else(|| Error::missing("class"))?;
            nodes.push(TreeNode {
                class: arena_u16(class)?,
                ..TreeNode::default()
            });
        }
        "Split" => read_split(r, nodes)?,
        _ => return Err(r.error("expected `Split` or `Leaf`")),
    }
    if r.next_key()?.is_some() {
        return Err(r.error("more than one key for a tree node"));
    }
    Ok(())
}

/// Append a split's body (the object inside `{"Split":…}`) to `nodes`.
/// The children are decoded straight into the arena in the order their
/// keys arrive; if `right` came first, the two subtrees are swapped in
/// place afterwards so the arena stays in preorder.
fn read_split(r: &mut Reader<'_>, nodes: &mut Vec<TreeNode>) -> Result<(), Error> {
    let at = nodes.len();
    nodes.push(TreeNode::default());
    let (mut feature, mut threshold): (Option<usize>, Option<f64>) = (None, None);
    let (mut left, mut right): (Option<usize>, Option<usize>) = (None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        let child = match &*key {
            "feature" => {
                r.fill(&mut feature, "feature")?;
                continue;
            }
            "threshold" => {
                r.fill(&mut threshold, "threshold")?;
                continue;
            }
            "left" => &mut left,
            "right" => &mut right,
            _ => {
                r.skip_value()?;
                continue;
            }
        };
        if child.is_some() {
            return Err(r.error(format!("duplicate field `{key}`")));
        }
        *child = Some(nodes.len());
        read_node(r, nodes)?;
    }
    let left = left.ok_or_else(|| Error::missing("left"))?;
    let mut right = right.ok_or_else(|| Error::missing("right"))?;
    if right < left {
        // The arena holds [right subtree][left subtree]: rotate it to
        // [left][right], shifting each side's stored right indices.
        let end = nodes.len();
        let (right_len, left_len) = (left - right, end - left);
        for n in &mut nodes[right..left] {
            if !n.is_leaf() {
                n.right = arena_u32(n.right as usize + left_len)?;
            }
        }
        for n in &mut nodes[left..end] {
            if !n.is_leaf() {
                n.right = arena_u32(n.right as usize - right_len)?;
            }
        }
        nodes[right..end].rotate_left(right_len);
        right += left_len;
    }
    nodes[at] = TreeNode {
        threshold: threshold.ok_or_else(|| Error::missing("threshold"))?,
        feature: arena_u16(feature.ok_or_else(|| Error::missing("feature"))?)?,
        right: arena_u32(right)?,
        class: 0,
    };
    Ok(())
}

fn is_pure(y: &[usize], idx: &[usize]) -> bool {
    idx.windows(2).all(|w| y[w[0]] == y[w[1]])
}

fn weighted_majority(y: &[usize], w: &[f64], idx: &[usize], n_classes: usize) -> usize {
    let mut counts = vec![0.0; n_classes.max(1)];
    for &i in idx {
        counts[y[i]] += w[i];
    }
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(c, _)| c)
}

/// Exact weighted gini split search: sort by feature, scan prefix counts.
fn best_split(
    x: &[Vec<f64>],
    y: &[usize],
    w: &[f64],
    idx: &[usize],
    features: &[usize],
    n_classes: usize,
) -> Option<(usize, f64)> {
    let total_w: f64 = idx.iter().map(|&i| w[i]).sum();
    if total_w <= 0.0 {
        return None;
    }
    let mut total_counts = vec![0.0; n_classes];
    for &i in idx {
        total_counts[y[i]] += w[i];
    }
    let parent_gini = gini(&total_counts, total_w);

    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
    let mut order: Vec<usize> = idx.to_vec();
    for &f in features {
        order.sort_by(|&a, &b| {
            x[a][f]
                .partial_cmp(&x[b][f])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut left_counts = vec![0.0; n_classes];
        let mut left_w = 0.0;
        for k in 0..order.len() - 1 {
            let i = order[k];
            left_counts[y[i]] += w[i];
            left_w += w[i];
            let xv = x[i][f];
            let xn = x[order[k + 1]][f];
            if xv == xn {
                continue; // can't split between equal values
            }
            let right_w = total_w - left_w;
            let right_counts: Vec<f64> = total_counts
                .iter()
                .zip(&left_counts)
                .map(|(t, l)| t - l)
                .collect();
            let split_gini = (left_w / total_w) * gini(&left_counts, left_w)
                + (right_w / total_w) * gini(&right_counts, right_w);
            let gain = parent_gini - split_gini;
            if best.is_none_or(|(g, _, _)| gain > g) && gain > 1e-12 {
                best = Some((gain, f, (xv + xn) / 2.0));
            }
        }
    }
    best.map(|(_, f, t)| (f, t))
}

/// Median split on the first candidate feature with at least two distinct
/// values; `None` if every candidate feature is constant on `idx`.
fn fallback_split(x: &[Vec<f64>], idx: &[usize], features: &[usize]) -> Option<(usize, f64)> {
    for &f in features {
        let mut vals: Vec<f64> = idx.iter().map(|&i| x[i][f]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        vals.dedup();
        if vals.len() >= 2 {
            let mid = vals.len() / 2;
            return Some((f, (vals[mid - 1] + vals[mid]) / 2.0));
        }
    }
    None
}

fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c / total;
            p * p
        })
        .sum::<f64>()
}

impl Classifier for DecisionTree {
    fn name(&self) -> &'static str {
        "Decision Tree"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let w = vec![1.0; x.len()];
        self.fit_weighted(x, y, &w, n_classes);
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        let nodes = &self.root.0;
        assert!(!nodes.is_empty(), "fit before predict");
        let mut i = 0;
        loop {
            let n = &nodes[i];
            if n.is_leaf() {
                return n.class as usize;
            }
            i = if x[n.feature as usize] <= n.threshold {
                i + 1
            } else {
                n.right as usize
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_threshold_rule() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let mut t = DecisionTree::new(3);
        t.fit(&x, &y, 2);
        assert_eq!(t.predict_one(&[5.0]), 0);
        assert_eq!(t.predict_one(&[35.0]), 1);
        assert!(t.depth() >= 1);
    }

    #[test]
    fn xor_needs_depth_two() {
        let x = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = vec![0, 1, 1, 0];
        let mut shallow = DecisionTree::new(1);
        shallow.fit(&x, &y, 2);
        let acc1 = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| shallow.predict_one(xi) == yi)
            .count();
        let mut deep = DecisionTree::new(3);
        deep.fit(&x, &y, 2);
        let acc2 = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| deep.predict_one(xi) == yi)
            .count();
        assert_eq!(acc2, 4, "depth-3 tree must solve XOR");
        assert!(acc1 < 4, "a stump cannot solve XOR");
    }

    #[test]
    fn respects_sample_weights() {
        // Two conflicting samples at the same x; weight decides the leaf.
        let x = vec![vec![0.0], vec![0.0]];
        let y = vec![0, 1];
        let mut t = DecisionTree::new(2);
        t.fit_weighted(&x, &y, &[0.9, 0.1], 2);
        assert_eq!(t.predict_one(&[0.0]), 0);
        t.fit_weighted(&x, &y, &[0.1, 0.9], 2);
        assert_eq!(t.predict_one(&[0.0]), 1);
    }

    #[test]
    fn pure_node_is_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let mut t = DecisionTree::new(5);
        t.fit(&x, &y, 2);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict_one(&[99.0]), 1);
    }

    #[test]
    fn constant_features_dont_crash() {
        let x = vec![vec![5.0], vec![5.0], vec![5.0], vec![5.0]];
        let y = vec![0, 1, 0, 1];
        let mut t = DecisionTree::new(4);
        t.fit(&x, &y, 2);
        // No valid split exists; majority leaf.
        let p = t.predict_one(&[5.0]);
        assert!(p < 2);
    }

    fn stump_json(feature: usize, class: usize) -> String {
        format!(
            r#"{{"max_depth":3,"min_samples_split":2,"root":{{"Split":{{"feature":{feature},"threshold":0.5,"left":{{"Leaf":{{"class":0}}}},"right":{{"Leaf":{{"class":{class}}}}}}}}},"feature_subsample":null,"rng_state":1}}"#
        )
    }

    #[test]
    fn validate_rejects_out_of_range_features_and_classes() {
        let ok: DecisionTree = serde_json::from_str(&stump_json(1, 1)).unwrap();
        assert_eq!(ok.validate(2, 2), Ok(()));
        assert_eq!(
            (ok.predict_one(&[0.0, 0.0]), ok.predict_one(&[0.0, 1.0])),
            (0, 1)
        );
        let bad_feature: DecisionTree = serde_json::from_str(&stump_json(2, 1)).unwrap();
        assert!(bad_feature.validate(2, 2).is_err());
        let bad_class: DecisionTree = serde_json::from_str(&stump_json(1, 2)).unwrap();
        assert!(bad_class.validate(2, 2).is_err());
        assert!(DecisionTree::new(3).validate(2, 2).is_err(), "unfitted");
        for bad in [
            r#"{"Branch":{"class":0}}"#,
            r#"{"Leaf":{"klass":0}}"#,
            r#"{"Leaf":{"class":0},"Split":{}}"#,
            r#"{"Split":{"feature":0,"threshold":0.5,"left":{"Leaf":{"class":0}}}}"#,
        ] {
            let json = stump_json(0, 0).replace(
                r#"{"Split":{"feature":0,"threshold":0.5,"left":{"Leaf":{"class":0}},"right":{"Leaf":{"class":0}}}}"#,
                bad,
            );
            assert!(
                serde_json::from_str::<DecisionTree>(&json).is_err(),
                "{bad}"
            );
        }
    }

    /// Swap every split's `left` and `right` keys in the nested form.
    fn swap_children(v: &mut Value) {
        if let Value::Object(fields) = v {
            if let Some(i) = fields.iter().position(|(k, _)| k == "left") {
                let left = fields.remove(i);
                fields.push(left);
            }
            fields.iter_mut().for_each(|(_, x)| swap_children(x));
        }
    }

    #[test]
    fn children_in_either_key_order_decode_to_the_same_arena() {
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 7) as f64, (i * 13 % 11) as f64])
            .collect();
        let y: Vec<usize> = (0..60).map(|i| (i % 7 + i * 13 % 11) % 3).collect();
        let mut t = DecisionTree::new(6);
        t.fit(&x, &y, 3);
        assert!(t.depth() >= 3);
        let mut v = t.to_value();
        swap_children(&mut v);
        let json = serde_json::to_string(&v).unwrap();
        assert!(json.find(r#""right""#) < json.find(r#""left""#));
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.validate(2, 3), Ok(()));
    }

    /// A chain of `depth` splits, each with a leaf on its left.
    fn chain_tree(depth: usize) -> DecisionTree {
        let mut nodes = Vec::new();
        for k in 0..depth {
            let at = nodes.len() as u32;
            nodes.push(TreeNode {
                threshold: k as f64,
                right: at + 2,
                ..TreeNode::default()
            });
            nodes.push(TreeNode::default());
        }
        nodes.push(TreeNode {
            class: 1,
            ..TreeNode::default()
        });
        let mut t = DecisionTree::new(depth);
        t.root = NodeArena(nodes);
        t
    }

    #[test]
    fn deepest_tree_under_the_nesting_bound_round_trips() {
        let t = chain_tree(62);
        assert_eq!(t.depth(), 62);
        assert_eq!(t.validate(1, 2), Ok(()));
        let back: DecisionTree = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(back, t);
        let deeper = serde_json::to_string(&chain_tree(63)).unwrap();
        let err = serde_json::from_str::<DecisionTree>(&deeper).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn serde_round_trip() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (20 - i) as f64]).collect();
        let y: Vec<usize> = (0..20).map(|i| usize::from(i % 3 == 0)).collect();
        let mut t = DecisionTree::new(4);
        t.fit(&x, &y, 2);
        let json = serde_json::to_string(&t).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        for xi in &x {
            assert_eq!(t.predict_one(xi), back.predict_one(xi));
        }
    }
}
