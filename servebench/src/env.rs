//! The environment block printed with every run.

use crate::gen;
use crate::workloads::Report;
use std::path::Path;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the highest-level cache of CPU 0, as sysfs reports it.
fn llc() -> String {
    let mut best = (0u32, "unknown".to_string());
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        if let Ok(level) = level.trim().parse::<u32>() {
            if level >= best.0 {
                best = (level, format!("L{level} {}", size.trim()));
            }
        }
    }
    best.1
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in the mount table).
fn fs_type(path: &Path) -> String {
    let path = path.to_string_lossy();
    read("/proc/self/mounts")
        .and_then(|m| {
            m.lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, mnt, ty) = (f.next()?, f.next()?, f.next()?);
                    path.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
                })
                .max()
                .map(|(_, ty)| ty)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head,
    };
    match commit.trim() {
        "" => "unknown (not a git work tree)".into(),
        c => c.to_string(),
    }
}

/// `(key, value)` lines of the environment block.
pub fn block(rep: &Report) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cal = lf_sim::calibration();
    vec![
        ("cpu", cpu_model()),
        ("nproc", nproc.to_string()),
        ("pool_workers", lf_sim::pool::global().threads().to_string()),
        (
            "simd_lanes",
            format!("{:?}", lf_kernels::Lanes::Auto.resolve::<f32>()),
        ),
        ("calibration", format!("{cal:?}")),
        ("llc", llc()),
        (
            "roofline_note",
            "the last-level cache above can hold most working sets here, so \
             kernels.*.roofline_frac is computed bytes over the calibrated copy rate, \
             not a DRAM-bandwidth claim"
                .into(),
        ),
        ("working_set_bytes", rep.extra.working_set_bytes.to_string()),
        ("plan_bytes", rep.extra.plan_bytes.to_string()),
        ("ram_budget_bytes", rep.extra.ram_budget.to_string()),
        (
            "plan_bytes_over_ram_budget",
            format!(
                "{:.4}",
                rep.extra.plan_bytes as f64 / rep.extra.ram_budget.max(1) as f64
            ),
        ),
        (
            "store_fs",
            rep.extra
                .store_dir
                .as_deref()
                .map_or_else(|| "none (no disk tier)".into(), fs_type),
        ),
        ("git_commit", git_commit()),
        ("seed", rep.args.seed.to_string()),
        (
            "op_stream_digest",
            format!(
                "{:016x}",
                gen::op_stream_digest(rep.args.workload, rep.args.seed, rep.extra.keys, 1_000)
            ),
        ),
    ]
}
