//! Reads phase, iteration and worker-pool times out of the spans a
//! traced flow records.

use tdals_obs::trace::cat;
use tdals_obs::SpanRecord;

/// What one flow's spans say about where its time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTimes {
    /// Seconds in the `optimize` phase.
    pub optimize_s: f64,
    /// Seconds in the `post-opt` phase.
    pub postopt_s: f64,
    /// Milliseconds of each optimizer iteration.
    pub iteration_ms: Vec<f64>,
    /// `par_map` fan-outs.
    pub par_calls: u64,
    /// Seconds inside `par_map` fan-outs.
    pub par_s: f64,
}

impl SpanTimes {
    /// Summarizes the spans of one or more flows.
    pub fn from_spans(spans: &[SpanRecord]) -> SpanTimes {
        let mut times = SpanTimes::default();
        for span in spans {
            let secs = span.dur_us as f64 * 1e-6;
            match (span.cat, span.name.as_str()) {
                (cat::PHASE, "optimize") => times.optimize_s += secs,
                (cat::PHASE, "post-opt") => times.postopt_s += secs,
                (cat::ITERATION, _) => times.iteration_ms.push(secs * 1e3),
                (cat::PAR, _) => {
                    times.par_calls += 1;
                    times.par_s += secs;
                }
                _ => {}
            }
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, name: &str, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            cat,
            ts_us: 0,
            dur_us,
            tid: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn spans_sum_by_category() {
        let times = SpanTimes::from_spans(&[
            span(cat::FLOW, "DCGWO", 9_000),
            span(cat::PHASE, "setup", 10),
            span(cat::PHASE, "optimize", 8_000),
            span(cat::ITERATION, "iter-0", 3_000),
            span(cat::ITERATION, "iter-1", 4_000),
            span(cat::PAR, "par_map", 500),
            span(cat::PAR, "par_map", 1_500),
            span(cat::PHASE, "post-opt", 900),
        ]);
        assert!((times.optimize_s - 0.008).abs() < 1e-12);
        assert!((times.postopt_s - 0.0009).abs() < 1e-12);
        assert_eq!(times.iteration_ms, vec![3.0, 4.0]);
        assert_eq!(times.par_calls, 2);
        assert!((times.par_s - 0.002).abs() < 1e-12);
    }
}
