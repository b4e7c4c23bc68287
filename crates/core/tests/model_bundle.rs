//! Golden tests for the model bundle's flat forests.
//!
//! The trees are decoded from the bundle's nested JSON straight into
//! preorder arenas, so these tests pin three things against independent
//! references:
//!
//! * every selector and predictor decision equals a plain walk of the
//!   bundle's parsed `Value` tree, on the GNN analogues, a point on each
//!   side of every split threshold, and (release builds) the training
//!   corpus;
//! * decoding and re-encoding the bundle reproduces its `Value` tree;
//! * training is unchanged: a small forest serializes to the JSON
//!   checked in under `fixtures/`, written before the arena layout.

use lf_cost::PARTITION_CANDIDATES;
use lf_data::{Scale, GNN_GRAPHS};
use lf_ml::{Classifier, DecisionTree, RandomForest};
use lf_sparse::{CsrMatrix, FormatFeatures, PartitionFeatures, Pcg32};
use liteform_core::ModelBundle;
use serde::{Serialize, Value};

const BUNDLE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/liteform-models.json"
);

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("bundle value has no `{key}`"))
}

fn int(v: &Value) -> usize {
    v.as_int().expect("integer") as usize
}

/// Reference tree walk over the nested `{"Split":…}` / `{"Leaf":…}` form.
fn walk(mut node: &Value, x: &[f64]) -> usize {
    loop {
        if let Some(leaf) = node.get("Leaf") {
            return int(field(leaf, "class"));
        }
        let split = field(node, "Split");
        let feature = int(field(split, "feature"));
        let threshold = field(split, "threshold").as_f64().expect("threshold");
        node = field(
            split,
            if x[feature] <= threshold {
                "left"
            } else {
                "right"
            },
        );
    }
}

/// Reference forest vote: the most-voted class, ties going to the
/// highest class index.
fn vote(forest: &Value, x: &[f64]) -> usize {
    let mut votes = vec![0usize; int(field(forest, "n_classes")).max(1)];
    for tree in field(forest, "trees").as_array().expect("trees") {
        votes[walk(field(tree, "root"), x)] += 1;
    }
    let best = *votes.iter().max().expect("at least one class");
    votes
        .iter()
        .rposition(|&v| v == best)
        .expect("a best class")
}

/// Every `(feature, threshold)` split in a forest value.
fn splits(forest: &Value) -> Vec<(usize, f64)> {
    fn visit(node: &Value, out: &mut Vec<(usize, f64)>) {
        if let Some(split) = node.get("Split") {
            let threshold = field(split, "threshold").as_f64().expect("threshold");
            out.push((int(field(split, "feature")), threshold));
            visit(field(split, "left"), out);
            visit(field(split, "right"), out);
        }
    }
    let mut out = Vec::new();
    for tree in field(forest, "trees").as_array().expect("trees") {
        visit(field(tree, "root"), &mut out);
    }
    out
}

fn format_features(x: &[f64]) -> FormatFeatures {
    let f = FormatFeatures {
        rows: x[0],
        cols: x[1],
        nnz: x[2],
        avg_nnz_per_row: x[3],
        min_nnz_per_row: x[4],
        max_nnz_per_row: x[5],
        std_nnz_per_row: x[6],
    };
    assert_eq!(f.to_array(), x, "field order drifted from to_array");
    f
}

fn partition_features(x: &[f64]) -> PartitionFeatures {
    let f = PartitionFeatures {
        rows: x[0],
        cols: x[1],
        nnz: x[2],
        avg_density_per_row: x[3],
        min_density_per_row: x[4],
        max_density_per_row: x[5],
        std_density_per_row: x[6],
        j_product: x[7],
    };
    assert_eq!(f.to_array(), x, "field order drifted from to_array");
    f
}

/// Table 2 and Table 3 feature vectors of `matrices`, the latter at
/// each of the dense widths `js`.
fn features<'a>(
    matrices: impl IntoIterator<Item = &'a CsrMatrix<f32>>,
    js: &[usize],
) -> (Vec<[f64; 7]>, Vec<[f64; 8]>) {
    let (mut table2, mut table3) = (Vec::new(), Vec::new());
    for csr in matrices {
        table2.push(FormatFeatures::from_csr(csr).to_array());
        for &j in js {
            table3.push(PartitionFeatures::from_csr(csr, j).to_array());
        }
    }
    (table2, table3)
}

/// `x` with feature `f` set exactly on `t` (goes left) and just above
/// it (goes right).
fn straddle<const N: usize>(x: [f64; N], f: usize, t: f64) -> [[f64; N]; 2] {
    let (mut lo, mut hi) = (x, x);
    lo[f] = t;
    hi[f] = t.next_up();
    [lo, hi]
}

/// Assert that the loaded bundle's selector and predictor decide every
/// probe exactly as the reference walk of the bundle's `Value` tree.
fn assert_decisions_match(tree: &Value, probes2: &[[f64; 7]], probes3: &[[f64; 8]]) {
    let bundle = ModelBundle::load(BUNDLE).expect("bundle loads");
    let sel_forest = field(field(tree, "selector"), "forest");
    let part_forest = field(field(tree, "predictor"), "forest");

    let mut cell = 0;
    for x in probes2 {
        let want = vote(sel_forest, x) == 1;
        assert_eq!(bundle.selector.predict(&format_features(x)), want, "{x:?}");
        cell += usize::from(want);
    }
    // Both verdicts occur, so the comparison is not vacuous.
    assert!(cell > 0 && cell < probes2.len(), "{cell}/{}", probes2.len());

    let mut seen = [false; PARTITION_CANDIDATES.len()];
    for x in probes3 {
        let class = vote(part_forest, x);
        seen[class] = true;
        let p = bundle.predictor.predict(&partition_features(x));
        assert_eq!(p, PARTITION_CANDIDATES[class], "{x:?}");
    }
    assert!(seen.iter().filter(|&&s| s).count() >= 2);
}

fn bundle_value() -> Value {
    let text = std::fs::read_to_string(BUNDLE).expect("bundle is checked in");
    serde_json::from_str(&text).expect("bundle parses as a Value")
}

/// The GNN analogues at J ∈ {2, 32, 128}, plus, from the first of
/// them, a point on each side of every split threshold in both forests.
#[test]
fn flat_forests_match_the_value_tree_on_gnn_keys_and_every_threshold() {
    let graphs: Vec<CsrMatrix<f32>> = GNN_GRAPHS.iter().map(|g| g.build(Scale::Small)).collect();
    let (mut probes2, mut probes3) = features(&graphs, &[2, 32, 128]);
    let tree = bundle_value();
    let (base2, base3) = (probes2[0], probes3[0]);
    for (f, t) in splits(field(field(&tree, "selector"), "forest")) {
        probes2.extend(straddle(base2, f, t));
    }
    for (f, t) in splits(field(field(&tree, "predictor"), "forest")) {
        probes3.extend(straddle(base3, f, t));
    }
    assert!(probes2.len() > 500 && probes3.len() > 10_000);
    assert_decisions_match(&tree, &probes2, &probes3);
}

/// The training corpus: the spec `lf_bench::BenchEnv::training_corpus_spec`
/// builds at the default seed, plus its citation-like extension, at the
/// training dense widths. Generating its 65M nonzeros takes minutes in a
/// debug build, so this runs in release (`scripts/verify.sh --stress`).
#[cfg(not(debug_assertions))]
#[test]
fn flat_forests_match_the_value_tree_on_the_training_corpus() {
    use lf_data::{Corpus, CorpusSpec};
    use liteform_core::TrainingConfig;
    let seed = 0x5eed_c0de_u64;
    let mut corpus: Corpus<f32> = Corpus::generate(CorpusSpec {
        n_matrices: 144,
        max_rows: 120_000,
        max_nnz: 1_200_000,
        seed: seed ^ 0x7ea1,
        ..Default::default()
    });
    corpus.extend_citation_like(corpus.len() / 3, seed ^ 0xc17a);
    assert_eq!(corpus.len(), 192, "the bundle was trained on 192 matrices");
    let (probes2, probes3) = features(
        corpus.matrices.iter().map(|m| &m.csr),
        &TrainingConfig::default().dense_widths,
    );
    assert_decisions_match(&bundle_value(), &probes2, &probes3);
}

#[test]
fn bundle_re_encodes_to_its_own_value_tree() {
    let bundle = ModelBundle::load(BUNDLE).expect("bundle loads");
    assert!(
        bundle.to_value() == bundle_value(),
        "decode + encode changed the bundle"
    );
}

/// The exact data the fixture forest was trained on.
fn small_forest_data() -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = Pcg32::seed_from_u64(0x601D);
    let mut x = Vec::new();
    let mut y = Vec::new();
    for _ in 0..150 {
        let row: Vec<f64> = (0..7).map(|_| rng.normal()).collect();
        let label = if row[0] + 0.5 * row[3] > 0.3 {
            2
        } else if row[5] + 0.3 * rng.normal() > 0.0 {
            1
        } else {
            0
        };
        x.push(row);
        y.push(label);
    }
    (x, y)
}

#[test]
fn training_serializes_to_the_checked_in_fixture() {
    let fixture = include_str!("fixtures/small_forest.json");
    let (x, y) = small_forest_data();
    let mut forest = RandomForest::new(5, 6, 0x5EED);
    forest.fit(&x, &y, 3);
    let mut tree = DecisionTree::new(4);
    tree.fit(&x, &y, 3);
    let unfitted = DecisionTree::new(3);
    let models = (forest, tree, unfitted);
    assert_eq!(serde_json::to_string(&models).unwrap(), fixture);

    let back: (RandomForest, DecisionTree, DecisionTree) =
        serde_json::from_str(fixture).expect("fixture decodes");
    assert_eq!(serde_json::to_string(&back).unwrap(), fixture);
    for xi in &x {
        assert_eq!(back.0.predict_one(xi), models.0.predict_one(xi));
        assert_eq!(back.1.predict_one(xi), models.1.predict_one(xi));
    }
}
