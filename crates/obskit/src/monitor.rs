//! Declarative SLO and drift monitors evaluated over metric
//! [`Snapshot`]s.
//!
//! A [`MonitorSet`] is a list of named [`Rule`]s, each wrapping one
//! [`Condition`]:
//!
//! * [`Condition::HistQuantileAbove`] — an SLO ceiling on a histogram
//!   quantile (p99 request latency), read from the log₂ buckets;
//! * [`Condition::RatioAbove`] — a rate ceiling on the ratio of two
//!   counters **over the deltas since the previous evaluation**
//!   (429s per request), so an old burst does not alert forever;
//! * [`Condition::FloatGaugeRegression`] — drift detection: the gauge
//!   value against a rolling baseline of its own recent history
//!   (refit holdout MAE regressing the way PAPER.md §VI's
//!   cross-generation transfer decay predicts).
//!
//! Evaluation is pull-based: callers (the serve `/healthz` handler,
//! stream refit tests) call [`MonitorSet::evaluate`] with a fresh
//! snapshot whenever they want a verdict. Every firing rule returns
//! an [`Alert`] and leaves three write-only telemetry footprints: the
//! `obs.monitor_fires` counter, a `monitor.fired` instant event, and
//! a [`FlightKind::MonitorFired`] flight-recorder record — so a 3 a.m.
//! page comes with its own post-mortem buffer already annotated.
//!
//! Like all of obskit, monitors are observers: nothing they compute
//! feeds back into training, prediction, or serving decisions.

use crate::metrics::{self, HistSnapshot, Metric, Snapshot};
use crate::ring::{self, FlightKind};
use crate::span;
use std::collections::VecDeque;

/// One monitored predicate over a metric snapshot.
#[derive(Debug, Clone)]
pub enum Condition {
    /// Fires when a histogram quantile exceeds `ceiling`. The
    /// quantile is resolved to a log₂ bucket upper bound, so the
    /// observed value is conservative (an upper bound on the true
    /// quantile within one power of two).
    HistQuantileAbove {
        /// Histogram export name (e.g. `"serve.request_ns"`).
        hist: &'static str,
        /// Quantile in `(0, 1]`, e.g. `0.99`.
        quantile: f64,
        /// Ceiling in the histogram's native unit.
        ceiling: u64,
        /// Minimum observations before the rule can fire.
        min_count: u64,
    },
    /// Fires when `numerator_delta / denominator_delta` since the
    /// previous evaluation exceeds `max_ratio`.
    RatioAbove {
        /// Numerator counter export name (e.g. `"serve.rejected_busy"`).
        numerator: &'static str,
        /// Denominator counter export name (e.g. `"serve.requests"`).
        denominator: &'static str,
        /// Ratio ceiling in `[0, 1]`-ish space (not clamped).
        max_ratio: f64,
        /// Minimum denominator delta before the rule can fire.
        min_denominator: u64,
    },
    /// Fires when a float gauge exceeds the mean of its own rolling
    /// baseline by more than `rel_margin` (0.5 = 50% worse). Each
    /// evaluation appends the current value to the baseline after
    /// comparing, so the baseline tracks slow change and alerts on
    /// abrupt regression.
    FloatGaugeRegression {
        /// Float-gauge export name (e.g. `"stream.refit_holdout_mae"`).
        gauge: &'static str,
        /// Rolling-baseline length (older samples fall off).
        window: usize,
        /// Minimum baseline samples before the rule can fire.
        min_samples: usize,
        /// Relative margin over the baseline mean.
        rel_margin: f64,
    },
}

/// A named monitor rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Stable rule name, surfaced in alerts, `/healthz`, and the
    /// flight recorder.
    pub name: &'static str,
    /// The predicate.
    pub condition: Condition,
}

/// One firing rule from an evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The rule's name.
    pub rule: &'static str,
    /// The observed value that crossed the threshold.
    pub value: f64,
    /// The effective threshold at evaluation time.
    pub threshold: f64,
}

/// Per-rule evaluation state (counter deltas, rolling baselines).
#[derive(Debug, Clone, Default)]
struct RuleState {
    last_numerator: u64,
    last_denominator: u64,
    baseline: VecDeque<f64>,
}

/// A set of rules plus their evaluation state.
#[derive(Debug, Default)]
pub struct MonitorSet {
    rules: Vec<(Rule, RuleState)>,
}

/// The value at `quantile` of a histogram snapshot, as the inclusive
/// upper bound of the bucket containing that rank; `None` for empty
/// histograms.
fn hist_quantile(hist: &HistSnapshot, quantile: f64) -> Option<u64> {
    if hist.count == 0 {
        return None;
    }
    let rank = ((quantile * hist.count as f64).ceil() as u64).clamp(1, hist.count);
    let mut seen = 0;
    for &(bound, count) in &hist.buckets {
        seen += count;
        if seen >= rank {
            return Some(bound);
        }
    }
    hist.buckets.last().map(|&(bound, _)| bound)
}

impl MonitorSet {
    /// An empty set: evaluation is a no-op returning no alerts.
    pub fn new() -> MonitorSet {
        MonitorSet::default()
    }

    /// A set with the given rules.
    pub fn with_rules(rules: Vec<Rule>) -> MonitorSet {
        MonitorSet {
            rules: rules
                .into_iter()
                .map(|r| (r, RuleState::default()))
                .collect(),
        }
    }

    /// The default serving SLO rules: p99 request latency under
    /// `p99_ceiling_ms`, and 429s under 50% of requests between
    /// evaluations.
    pub fn standard_serve(p99_ceiling_ms: u64) -> MonitorSet {
        MonitorSet::with_rules(vec![
            Rule {
                name: "serve-p99-request-latency",
                condition: Condition::HistQuantileAbove {
                    hist: "serve.request_ns",
                    quantile: 0.99,
                    ceiling: p99_ceiling_ms.saturating_mul(1_000_000),
                    min_count: 100,
                },
            },
            Rule {
                name: "serve-429-rate",
                condition: Condition::RatioAbove {
                    numerator: "serve.rejected_busy",
                    denominator: "serve.requests",
                    max_ratio: 0.5,
                    min_denominator: 100,
                },
            },
        ])
    }

    /// The default drift rule over stream refit holdout MAE: fires
    /// when a window's MAE exceeds the rolling baseline mean by
    /// `rel_margin`.
    pub fn refit_drift(window: usize, min_samples: usize, rel_margin: f64) -> MonitorSet {
        MonitorSet::with_rules(vec![Rule {
            name: "stream-refit-mae-drift",
            condition: Condition::FloatGaugeRegression {
                gauge: "stream.refit_holdout_mae",
                window,
                min_samples,
                rel_margin,
            },
        }])
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the set has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates every rule against `snap`, returning the firing
    /// alerts. Each alert also increments `obs.monitor_fires`, emits
    /// a `monitor.fired` instant event, and records a flight-recorder
    /// entry.
    pub fn evaluate(&mut self, snap: &Snapshot) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for (index, (rule, state)) in self.rules.iter_mut().enumerate() {
            let fired = match &rule.condition {
                Condition::HistQuantileAbove {
                    hist,
                    quantile,
                    ceiling,
                    min_count,
                } => snap
                    .hists
                    .iter()
                    .find(|h| h.name == *hist)
                    .filter(|h| h.count >= *min_count)
                    .and_then(|h| hist_quantile(h, *quantile))
                    .filter(|&q| q > *ceiling)
                    .map(|q| Alert {
                        rule: rule.name,
                        value: q as f64,
                        threshold: *ceiling as f64,
                    }),
                Condition::RatioAbove {
                    numerator,
                    denominator,
                    max_ratio,
                    min_denominator,
                } => {
                    let num = snap.get(numerator).unwrap_or(0);
                    let den = snap.get(denominator).unwrap_or(0);
                    let num_delta = num.saturating_sub(state.last_numerator);
                    let den_delta = den.saturating_sub(state.last_denominator);
                    state.last_numerator = num;
                    state.last_denominator = den;
                    if den_delta >= *min_denominator {
                        let ratio = num_delta as f64 / den_delta as f64;
                        (ratio > *max_ratio).then_some(Alert {
                            rule: rule.name,
                            value: ratio,
                            threshold: *max_ratio,
                        })
                    } else {
                        None
                    }
                }
                Condition::FloatGaugeRegression {
                    gauge,
                    window,
                    min_samples,
                    rel_margin,
                } => {
                    let alert = snap.get_f64(gauge).filter(|v| v.is_finite()).and_then(|v| {
                        let n = state.baseline.len();
                        if n < *min_samples || n == 0 {
                            None
                        } else {
                            let mean = state.baseline.iter().sum::<f64>() / n as f64;
                            let threshold = mean * (1.0 + rel_margin);
                            (mean > 0.0 && v > threshold).then_some(Alert {
                                rule: rule.name,
                                value: v,
                                threshold,
                            })
                        }
                    });
                    if let Some(v) = snap.get_f64(gauge).filter(|v| v.is_finite()) {
                        state.baseline.push_back(v);
                        while state.baseline.len() > (*window).max(1) {
                            state.baseline.pop_front();
                        }
                    }
                    alert
                }
            };
            if let Some(alert) = fired {
                metrics::incr(Metric::ObsMonitorFires);
                ring::record(
                    FlightKind::MonitorFired,
                    index as u64,
                    alert.value.to_bits(),
                    alert.threshold.to_bits(),
                );
                span::emit(
                    "monitor",
                    "monitor.fired",
                    &[
                        ("rule", &alert.rule),
                        ("value", &alert.value),
                        ("threshold", &alert.threshold),
                    ],
                    false,
                );
                alerts.push(alert);
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistSnapshot;

    fn hist(name: &'static str, buckets: Vec<(u64, u64)>) -> HistSnapshot {
        let count = buckets.iter().map(|&(_, c)| c).sum();
        HistSnapshot {
            name,
            count,
            sum: 0,
            buckets,
        }
    }

    #[test]
    fn quantile_walks_cumulative_buckets() {
        let h = hist("h", vec![(1, 50), (3, 40), (1023, 10)]);
        assert_eq!(hist_quantile(&h, 0.5), Some(1));
        assert_eq!(hist_quantile(&h, 0.90), Some(3));
        assert_eq!(hist_quantile(&h, 0.99), Some(1023));
        assert_eq!(hist_quantile(&h, 1.0), Some(1023));
        assert_eq!(hist_quantile(&hist("h", vec![]), 0.99), None);
    }

    #[test]
    fn p99_rule_fires_only_past_ceiling_and_min_count() {
        let mut set = MonitorSet::with_rules(vec![Rule {
            name: "p99",
            condition: Condition::HistQuantileAbove {
                hist: "serve.request_ns",
                quantile: 0.99,
                ceiling: 1000,
                min_count: 10,
            },
        }]);
        let mut snap = Snapshot {
            hists: vec![hist("serve.request_ns", vec![(511, 98), (4095, 2)])],
            ..Snapshot::default()
        };
        let alerts = set.evaluate(&snap);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "p99");
        assert_eq!(alerts[0].value, 4095.0);
        // Under the count floor: silent.
        snap.hists = vec![hist("serve.request_ns", vec![(4095, 5)])];
        assert!(set.evaluate(&snap).is_empty());
        // Under the ceiling: silent.
        snap.hists = vec![hist("serve.request_ns", vec![(511, 100)])];
        assert!(set.evaluate(&snap).is_empty());
    }

    #[test]
    fn ratio_rule_uses_deltas_between_evaluations() {
        let mut set = MonitorSet::with_rules(vec![Rule {
            name: "429s",
            condition: Condition::RatioAbove {
                numerator: "serve.rejected_busy",
                denominator: "serve.requests",
                max_ratio: 0.5,
                min_denominator: 100,
            },
        }]);
        let mut snap = Snapshot {
            counters: vec![("serve.rejected_busy", 90), ("serve.requests", 100)],
            ..Snapshot::default()
        };
        // First evaluation: 90/100 fires.
        assert_eq!(set.evaluate(&snap).len(), 1);
        // No new traffic since: deltas are 0/0, silent even though the
        // absolute ratio is still high.
        assert!(set.evaluate(&snap).is_empty());
        // New healthy traffic: 10 rejections in 1000 requests.
        snap.counters = vec![("serve.rejected_busy", 100), ("serve.requests", 1100)];
        assert!(set.evaluate(&snap).is_empty());
    }

    #[test]
    fn drift_rule_fires_on_regression_over_rolling_baseline() {
        let mut set = MonitorSet::refit_drift(8, 3, 0.5);
        let mut snap = Snapshot {
            float_gauges: vec![("stream.refit_holdout_mae", 0.0)],
            ..Snapshot::default()
        };
        for mae in [0.050, 0.048, 0.052, 0.049] {
            snap.float_gauges = vec![("stream.refit_holdout_mae", mae)];
            assert!(set.evaluate(&snap).is_empty(), "baseline MAE {mae} fired");
        }
        // The paper's cross-generation decay: 0.049 → 0.123.
        snap.float_gauges = vec![("stream.refit_holdout_mae", 0.123)];
        let alerts = set.evaluate(&snap);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "stream-refit-mae-drift");
        assert!(alerts[0].value > alerts[0].threshold);
    }

    #[test]
    fn drift_rule_needs_min_samples() {
        let mut set = MonitorSet::refit_drift(8, 3, 0.5);
        let mut snap = Snapshot {
            float_gauges: vec![("stream.refit_holdout_mae", 0.05)],
            ..Snapshot::default()
        };
        assert!(set.evaluate(&snap).is_empty());
        snap.float_gauges = vec![("stream.refit_holdout_mae", 9.0)];
        // Only one baseline sample — below min_samples, silent.
        assert!(set.evaluate(&snap).is_empty());
    }
}
