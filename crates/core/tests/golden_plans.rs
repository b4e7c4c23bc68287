//! Golden plans: the checked-in model bundle composes the 14 serving
//! keys (the seven GNN analogues at `Scale::Small`, J ∈ {32, 128}) to
//! pinned `(p, widths)`.
//!
//! The partition count comes from the bundle's predictor and every width
//! from the Algorithm-3 search over `PartitionSketch`, so a change to the
//! sketch extraction, the Eq. 7 pricing or the search that moves any
//! plan fails here. The table was recorded before the sketch became a
//! parallel tally sweep.

use lf_data::{GraphSpec, Scale};
use lf_sparse::CsrMatrix;
use liteform_core::{ModelBundle, PlanKind};

const BUNDLE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/liteform-models.json"
);

/// `(graph, J, p, widths)` for every key.
const GOLDEN: [(&str, usize, usize, &[usize]); 14] = [
    (
        "cora",
        32,
        16,
        &[4, 4, 4, 4, 4, 8, 4, 8, 4, 4, 4, 8, 4, 4, 4, 4],
    ),
    ("cora", 128, 1, &[16]),
    ("citeseer", 32, 1, &[8]),
    ("citeseer", 128, 1, &[8]),
    ("pubmed", 32, 1, &[16]),
    ("pubmed", 128, 2, &[16, 16]),
    ("ppi", 32, 1, &[32]),
    ("ppi", 128, 4, &[64, 32, 32, 16]),
    ("arxiv", 32, 4, &[32, 32, 32, 32]),
    (
        "arxiv",
        128,
        16,
        &[
            32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 16, 32, 32, 32, 32,
        ],
    ),
    ("proteins", 32, 1, &[128]),
    ("proteins", 128, 2, &[64, 32]),
    ("reddit", 32, 1, &[128]),
    ("reddit", 128, 2, &[64, 32]),
];

#[test]
fn serving_keys_compose_to_their_golden_plans() {
    let pipeline = ModelBundle::load(BUNDLE)
        .expect("checked-in model bundle loads")
        .into_liteform();
    let mut graph: Option<(&str, CsrMatrix<f32>)> = None;
    for (name, j, p, widths) in GOLDEN {
        if graph.as_ref().is_none_or(|(g, _)| *g != name) {
            let spec = GraphSpec::by_name(name).expect("a GNN analogue");
            graph = Some((name, spec.build(Scale::Small)));
        }
        let (_, csr) = graph.as_ref().expect("graph built");
        match pipeline.compose(csr, j).kind {
            PlanKind::Cell { config, .. } => {
                assert_eq!(config.num_partitions, p, "{name}@J{j}: partitions");
                assert_eq!(
                    config.max_widths.as_deref(),
                    Some(widths),
                    "{name}@J{j}: widths"
                );
            }
            PlanKind::FixedCsr => panic!("{name}@J{j}: expected a CELL plan"),
        }
    }
}
