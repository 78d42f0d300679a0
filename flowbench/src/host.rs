//! The host and build a run was measured on, recorded with every
//! result.

use tdals_bench::json::Json;
use tdals_sim::SimdWidth;

/// Host and build facts.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// CPUs this process may run on.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Widest vector extension the CPU reports at run time.
    pub vector_unit: &'static str,
    /// Vector extensions the build was compiled to assume.
    pub compiled_features: Vec<&'static str>,
    /// SIMD block width the simulation kernels run at.
    pub simd_width: SimdWidth,
    /// Cargo profile, optimization level and debug-info setting.
    pub profile: String,
    /// Whether debug assertions are compiled in.
    pub debug_assertions: bool,
    /// Target triple.
    pub target: &'static str,
}

impl Host {
    /// Reads the host and build facts of this process.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let mut compiled_features = Vec::new();
        if cfg!(target_feature = "sse4.2") {
            compiled_features.push("sse4.2");
        }
        if cfg!(target_feature = "avx2") {
            compiled_features.push("avx2");
        }
        if cfg!(target_feature = "avx512f") {
            compiled_features.push("avx512f");
        }
        if cfg!(target_feature = "neon") {
            compiled_features.push("neon");
        }
        Host {
            nproc: tdals_core::par::available_threads(),
            cpu_model,
            vector_unit: vector_unit(),
            compiled_features,
            simd_width: SimdWidth::auto(),
            profile: format!(
                "{} opt-level={} debug={}",
                env!("FLOWBENCH_PROFILE"),
                env!("FLOWBENCH_OPT_LEVEL"),
                env!("FLOWBENCH_DEBUG")
            ),
            debug_assertions: cfg!(debug_assertions),
            target: env!("FLOWBENCH_TARGET"),
        }
    }

    /// The record as JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            ("vector_unit".into(), Json::Str(self.vector_unit.into())),
            (
                "compiled_features".into(),
                Json::Arr(
                    self.compiled_features
                        .iter()
                        .map(|f| Json::Str((*f).into()))
                        .collect(),
                ),
            ),
            (
                "simd_width".into(),
                Json::Str(self.simd_width.cli_name().into()),
            ),
            ("profile".into(), Json::Str(self.profile.clone())),
            ("debug_assertions".into(), Json::Bool(self.debug_assertions)),
            ("target".into(), Json::Str(self.target.into())),
        ])
    }
}

#[cfg(target_arch = "x86_64")]
fn vector_unit() -> &'static str {
    if std::arch::is_x86_feature_detected!("avx512f") {
        "avx512f"
    } else if std::arch::is_x86_feature_detected!("avx2") {
        "avx2"
    } else if std::arch::is_x86_feature_detected!("sse4.2") {
        "sse4.2"
    } else {
        "sse2"
    }
}

#[cfg(target_arch = "aarch64")]
fn vector_unit() -> &'static str {
    "neon"
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn vector_unit() -> &'static str {
    "unknown"
}
