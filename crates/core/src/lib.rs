#![warn(missing_docs)]

//! # liteform-core
//!
//! The LiteForm pipeline (Figure 2 of the paper): given a sparse matrix
//! and a dense-operand width `J`,
//!
//! 1. a pre-trained **format selector** ([`FormatSelector`], §5.1)
//!    predicts from seven cheap features whether composing the CELL
//!    format will beat the fixed formats (CSR / BCSR) by the paper's
//!    1.1× margin;
//! 2. a pre-trained **partition predictor** ([`PartitionPredictor`],
//!    §5.2) picks the number of column partitions from density features;
//! 3. the **cost-model width search** (Algorithm 3, re-exported from
//!    `lf-cost`) chooses each partition's maximum bucket width;
//! 4. [`LiteForm::compose`] assembles the CELL matrix and reports the
//!    construction overhead; [`LiteForm::spmm`] runs the chosen kernel.
//!
//! Training of the two models ([`training`]) runs kernels on a corpus —
//! the one-off cost §5.1 argues is amortized; the result can be saved and
//! shipped as a [`ModelBundle`].

pub mod codec;
pub mod composer;
pub mod error;
pub mod predictor;
pub mod pretrained;
pub mod profile;
pub mod selector;
pub mod training;

pub use codec::{decode_plan, encode_plan, CodecError};
pub use composer::{
    build_cell_at, compose_cell_at, CompositionPlan, LiteForm, OverheadBreakdown, PlanKind,
    PreparedPlan,
};
pub use error::{panic_detail, LfError, LfResult};
pub use predictor::PartitionPredictor;
pub use pretrained::ModelBundle;
pub use profile::{PreprocessProfile, StageStats};
pub use selector::FormatSelector;
pub use training::{
    label_format_selection, label_partitions, FormatSelectionSample, PartitionSample,
    TrainingConfig,
};
