//! Preprocessing observability: per-stage wall clock and allocation
//! counters for the composition pipeline.
//!
//! [`PreprocessProfile`] is the instrumented sibling of
//! [`crate::OverheadBreakdown`]: the same five Figure-2 stages, but each
//! carries a [`StageStats`] with real allocation counts (from
//! `lf-sim`'s counting global allocator) alongside the wall time. The
//! `fig8_overhead` and `fig9_overhead_corpus` harnesses report it next
//! to the baseline comparisons.

use crate::composer::OverheadBreakdown;
use lf_sim::alloc as alloc_counters;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One measured pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageStats {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Heap allocation calls during the stage (all threads).
    pub alloc_calls: u64,
    /// Bytes requested during the stage (reallocs count growth only).
    pub alloc_bytes: u64,
}

impl StageStats {
    /// Run `f`, measuring its wall time and allocation activity.
    ///
    /// The counters are process-wide: when other threads allocate
    /// concurrently their activity is attributed to this stage too, so
    /// drive measured stages from a single thread (worker threads
    /// *spawned by the stage* are exactly what should be counted).
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, StageStats) {
        let before = alloc_counters::snapshot();
        // lf-lint: allow(determinism): stage timing is observability-only — plan selection reads structural features, never wall time
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let delta = alloc_counters::since(before);
        (
            out,
            StageStats {
                wall_s,
                alloc_calls: delta.calls,
                alloc_bytes: delta.bytes,
            },
        )
    }

    /// Fold another measurement into this one (corpus aggregation).
    pub fn accumulate(&mut self, other: &StageStats) {
        self.wall_s += other.wall_s;
        self.alloc_calls += other.alloc_calls;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// Where preprocessing time *and memory traffic* went, stage by stage.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PreprocessProfile {
    /// Feature extraction: both feature tables in the paper pipeline,
    /// the format table alone in the serving planner.
    pub feature_extraction: StageStats,
    /// Format-selection inference.
    pub selection_inference: StageStats,
    /// Partition-count inference.
    pub partition_inference: StageStats,
    /// Algorithm-3 bucket-width search.
    pub width_search: StageStats,
    /// CELL materialization.
    pub build: StageStats,
}

impl PreprocessProfile {
    /// Sum of all five stages.
    pub fn total(&self) -> StageStats {
        let mut t = StageStats::default();
        for s in self.stages() {
            t.accumulate(s);
        }
        t
    }

    /// The five stages in pipeline order, with display names.
    pub fn named_stages(&self) -> [(&'static str, &StageStats); 5] {
        [
            ("feature_extraction", &self.feature_extraction),
            ("selection_inference", &self.selection_inference),
            ("partition_inference", &self.partition_inference),
            ("width_search", &self.width_search),
            ("build", &self.build),
        ]
    }

    fn stages(&self) -> [&StageStats; 5] {
        [
            &self.feature_extraction,
            &self.selection_inference,
            &self.partition_inference,
            &self.width_search,
            &self.build,
        ]
    }

    /// Fold another profile into this one (corpus aggregation).
    pub fn accumulate(&mut self, other: &PreprocessProfile) {
        self.feature_extraction
            .accumulate(&other.feature_extraction);
        self.selection_inference
            .accumulate(&other.selection_inference);
        self.partition_inference
            .accumulate(&other.partition_inference);
        self.width_search.accumulate(&other.width_search);
        self.build.accumulate(&other.build);
    }

    /// The wall-clock-only view (the quantity Figures 8–9 compare).
    pub fn overhead(&self) -> OverheadBreakdown {
        OverheadBreakdown {
            feature_extraction_s: self.feature_extraction.wall_s,
            selection_inference_s: self.selection_inference.wall_s,
            partition_inference_s: self.partition_inference.wall_s,
            width_search_s: self.width_search.wall_s,
            build_s: self.build.wall_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_time_and_allocations() {
        let (len, stats) = StageStats::measure(|| {
            // black_box keeps the optimizer from eliding the allocation
            // in release builds.
            let v: Vec<u64> = std::hint::black_box((0..50_000).collect());
            v.len()
        });
        assert_eq!(len, 50_000);
        assert!(stats.wall_s >= 0.0);
        assert!(stats.alloc_calls >= 1);
        assert!(stats.alloc_bytes >= 50_000 * 8);
    }

    #[test]
    fn totals_and_overhead_agree() {
        let p = PreprocessProfile {
            width_search: StageStats {
                wall_s: 0.25,
                alloc_calls: 10,
                alloc_bytes: 1000,
            },
            build: StageStats {
                wall_s: 0.75,
                alloc_calls: 30,
                alloc_bytes: 3000,
            },
            ..Default::default()
        };
        let t = p.total();
        assert!((t.wall_s - 1.0).abs() < 1e-12);
        assert_eq!(t.alloc_calls, 40);
        assert_eq!(t.alloc_bytes, 4000);
        assert!((p.overhead().total_s() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate_sums_stage_wise() {
        let one = PreprocessProfile {
            feature_extraction: StageStats {
                wall_s: 0.1,
                alloc_calls: 1,
                alloc_bytes: 10,
            },
            ..Default::default()
        };
        let mut agg = PreprocessProfile::default();
        agg.accumulate(&one);
        agg.accumulate(&one);
        assert_eq!(agg.feature_extraction.alloc_calls, 2);
        assert!((agg.feature_extraction.wall_s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn profile_serializes_to_json() {
        let p = PreprocessProfile::default();
        let s = serde_json::to_string(&p).unwrap();
        let back: PreprocessProfile = serde_json::from_str(&s).unwrap();
        assert_eq!(back, p);
    }
}
