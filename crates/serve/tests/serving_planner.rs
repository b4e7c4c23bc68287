//! The serving planner (`impl Planner for LiteForm`): the trained
//! selector decides between fixed CSR and CELL, and on a CELL verdict a
//! CPU cost chooses between CSR and CELL at one partition. These suites
//! hold what must follow: no serving plan is CELL at `p > 1`; every
//! plan's output is bitwise the reference, solo and fused; a
//! selector-CSR miss pays no width search and no build; and the GNN
//! analogues keep the decisions measured to matter.

use lf_serve::Planner;
use lf_sparse::gen::{mixed_regions, PatternFamily};
use lf_sparse::{CsrMatrix, DenseMatrix, Pcg32};
use liteform_core::{LiteForm, ModelBundle, PreparedPlan, StageStats};

/// The dense widths every family is planned at.
const WIDTHS: [usize; 6] = [1, 2, 4, 16, 32, 128];

/// The checked-in trained pipeline, the production planner.
fn pipeline() -> LiteForm {
    ModelBundle::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/liteform-models.json"
    ))
    .expect("checked-in model bundle must load")
    .into_liteform()
}

fn bits(m: &DenseMatrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One matrix per pattern family, square, about 8 non-zeros per row.
fn family_matrices() -> Vec<(PatternFamily, CsrMatrix<f32>)> {
    PatternFamily::ALL
        .iter()
        .enumerate()
        .map(|(i, &family)| {
            let mut rng = Pcg32::seed_from_u64(0x5E7 + i as u64);
            (
                family,
                CsrMatrix::from_coo(&family.generate(1_200, 1_200, 9_600, &mut rng)),
            )
        })
        .collect()
}

/// Run `plan` over `csr` on each operand as one group and compare every
/// output bitwise against `spmm_reference`.
fn assert_exact(
    plan: &PreparedPlan<f32>,
    csr: &CsrMatrix<f32>,
    bs: &[&DenseMatrix<f32>],
    ctx: &str,
) {
    let outs = plan.run_batched_on(csr, bs).expect("plan runs");
    assert_eq!(outs.len(), bs.len(), "{ctx}");
    for (out, b) in outs.iter().zip(bs) {
        let want = csr.spmm_reference(b).unwrap();
        assert_eq!(bits(out), bits(&want), "{ctx}");
    }
}

#[test]
fn every_serving_plan_is_a_csr_verdict_or_single_partition_cell() {
    let lf = pipeline();
    let (mut verdicts, mut cells) = (0, 0);
    for (family, csr) in family_matrices() {
        let mut rng = Pcg32::seed_from_u64(0xB0 + csr.nnz() as u64);
        for j in WIDTHS {
            let ctx = format!("{} at J={j}", family.name());
            let plan = Planner::<f32>::prepare(&lf, &csr, j).unwrap();
            assert_eq!(plan.tuned_j, j, "{ctx}");
            assert!(!plan.degraded, "{ctx}");
            match plan.cell_config() {
                Some(config) => {
                    assert_eq!(config.num_partitions, 1, "{ctx}: CELL is served at p = 1");
                    let caps = config.max_widths.as_deref().expect("a searched cap");
                    assert!(caps.len() == 1 && caps[0].is_power_of_two(), "{ctx}");
                    cells += 1;
                }
                None => {
                    assert!(plan.is_verdict(), "{ctx}: CSR is served as a verdict");
                    verdicts += 1;
                }
            }
            // No plan at the paper's predicted `p` is consulted, so the
            // partition predictor never runs.
            assert_eq!(
                plan.profile.partition_inference,
                StageStats::default(),
                "{ctx}"
            );
            let b = DenseMatrix::random(csr.cols(), j, &mut rng);
            assert_exact(&plan, &csr, &[&b], &ctx);
            if j == 4 {
                // A fused group of two 2-column members on the J=4 plan.
                let b1 = DenseMatrix::random(csr.cols(), 2, &mut rng);
                let b2 = DenseMatrix::random(csr.cols(), 2, &mut rng);
                assert_exact(&plan, &csr, &[&b1, &b2], &format!("{ctx}, fused 2 + 2"));
            }
        }
    }
    assert!(
        verdicts > 0 && cells > 0,
        "the sweep must serve both candidates: {verdicts} verdicts, {cells} CELL plans"
    );
}

#[test]
fn a_selector_csr_miss_pays_no_width_search_and_no_build() {
    const J: usize = 8;
    let lf = pipeline();
    let csr = (0..64u64)
        .map(|seed| {
            let mut rng = Pcg32::seed_from_u64(0x5E1 + seed);
            CsrMatrix::<f32>::from_coo(&mixed_regions(200, 200, 3000, 4, &mut rng))
        })
        .find(|m| !lf.compose(m, J).uses_cell())
        .expect("the selector keeps some mixed-region matrix on CSR");
    let plan = Planner::<f32>::prepare(&lf, &csr, J).unwrap();
    assert!(plan.is_verdict());
    let none = StageStats::default();
    assert_eq!(plan.profile.partition_inference, none);
    assert_eq!(plan.profile.width_search, none);
    assert_eq!(plan.profile.build, none);
}

#[test]
fn a_cell_verdict_prices_once_and_builds_only_cell() {
    // On a CELL verdict the one sketch and its width search always run;
    // the build runs exactly when CELL is what comes back.
    let lf = pipeline();
    let mut priced = 0;
    for (family, csr) in family_matrices() {
        for j in WIDTHS {
            if !lf.compose(&csr, j).uses_cell() {
                continue;
            }
            priced += 1;
            let plan = Planner::<f32>::prepare(&lf, &csr, j).unwrap();
            let ctx = format!("{} at J={j}", family.name());
            assert!(plan.profile.width_search.alloc_calls >= 1, "{ctx}");
            if plan.uses_cell() {
                assert!(plan.profile.build.alloc_bytes > 0, "{ctx}");
            } else {
                assert_eq!(plan.profile.build, StageStats::default(), "{ctx}");
            }
        }
    }
    assert!(priced > 0, "some family must get a CELL verdict");
}

/// The GNN analogues (`Scale::Small`) on which one candidate ran at
/// least 15% faster than the other in every `planner_regret` run made
/// when the planner was tuned (four runs on a 2-vCPU Xeon; CSR was
/// 18–28% faster on proteins@J32 and 16–18% on reddit@J32), with the
/// faster one: `true` for CELL at one partition, `false` for CSR. Keys
/// closer than that are left to the cost, whose ranking of them moves
/// with the host's calibration.
#[cfg(not(debug_assertions))]
const GNN_DECISIONS: [(&str, usize, bool); 2] = [("proteins", 32, false), ("reddit", 32, false)];

#[cfg(not(debug_assertions))]
#[test]
fn gnn_analogues_get_the_decisions_that_matter() {
    use lf_data::{GraphSpec, Scale};
    let lf = pipeline();
    for (name, j, cell) in GNN_DECISIONS {
        let spec = GraphSpec::by_name(name).expect("a GNN analogue");
        let csr: CsrMatrix<f32> = spec.build(Scale::Small);
        let plan = Planner::<f32>::prepare(&lf, &csr, j).unwrap();
        assert_eq!(plan.uses_cell(), cell, "{name}@J{j}");
    }
}
