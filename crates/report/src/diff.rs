//! Manifest regression diff: the `fare-report diff` CI gate.
//!
//! Compares every counter, timer, epoch record, heatmap total and bench
//! number of two [`RunManifest`]s under a relative tolerance. A value
//! present on only one side is compared against 0 (counters that never
//! fired are omitted from manifests by design, so "missing" and "zero"
//! are the same event count). Run/seed/config mismatches are reported
//! as notes, not regressions — diffing two different seeds is a
//! legitimate exploratory use; the CI gate passes identical configs.

use fare_obs::RunManifest;
use std::collections::BTreeMap;

/// Diff configuration.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative tolerance: a line passes when both sides are equal
    /// (NaN on both sides included: a diverged loss diffs clean
    /// against itself) or `|candidate - baseline| <= tolerance *
    /// |baseline|` (so `0.0` demands exact equality, and any change
    /// away from a zero baseline beyond exact equality fails).
    pub tolerance: f64,
    /// Skip `timer.ns` lines (wall-clock runs make them incomparable;
    /// fixed-clock runs keep them exact).
    pub ignore_timer_ns: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance: 0.0,
            ignore_timer_ns: false,
        }
    }
}

/// One compared quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    /// Quantity kind: `counter`, `timer.count`, `timer.ns`,
    /// `epoch.loss`, `epoch.train_accuracy`, `epoch.test_accuracy`,
    /// `epoch.count`, `heatmap.<metric>`, `bench`.
    pub kind: String,
    /// Quantity name (counter name, timer name, `epoch[3]`, …).
    pub name: String,
    pub baseline: f64,
    pub candidate: f64,
    /// Within tolerance?
    pub within: bool,
}

impl DiffLine {
    fn check(kind: &str, name: &str, baseline: f64, candidate: f64, tol: f64) -> DiffLine {
        let within =
            same(baseline, candidate) || (candidate - baseline).abs() <= tol * baseline.abs();
        DiffLine {
            kind: kind.to_string(),
            name: name.to_string(),
            baseline,
            candidate,
            within,
        }
    }

    /// `candidate` relative to `baseline`, as a percentage; `None` when
    /// the baseline is zero (the zero-baseline percentage edge case).
    pub fn rel_pct(&self) -> Option<f64> {
        if self.baseline == 0.0 {
            None
        } else {
            Some((self.candidate - self.baseline) / self.baseline.abs() * 100.0)
        }
    }
}

/// The full diff outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Every compared quantity, manifest order.
    pub lines: Vec<DiffLine>,
    /// Identity mismatches (run name, seed, config) — informational.
    pub notes: Vec<String>,
}

impl DiffReport {
    /// Lines beyond tolerance, in either direction.
    pub fn beyond_tolerance(&self) -> usize {
        self.lines.iter().filter(|l| !l.within).count()
    }

    /// True when every line is within tolerance — the gate condition.
    pub fn ok(&self) -> bool {
        self.beyond_tolerance() == 0
    }

    /// Markdown table; `only_changed` drops lines whose sides are equal
    /// (or both NaN). A line beyond tolerance reads `CHANGED` whichever
    /// way it moved: the gate cannot tell a better value from a worse
    /// one.
    pub fn to_markdown(&self, only_changed: bool) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("> note: {note}\n"));
        }
        if !self.notes.is_empty() {
            out.push('\n');
        }
        out.push_str("| quantity | baseline | candidate | delta | status |\n");
        out.push_str("|---|---:|---:|---:|---|\n");
        let mut shown = 0usize;
        for l in &self.lines {
            let delta = l.candidate - l.baseline;
            if only_changed && same(l.baseline, l.candidate) {
                continue;
            }
            shown += 1;
            let delta_text = match l.rel_pct() {
                Some(pct) => format!("{delta:+.6} ({pct:+.2}%)"),
                None if delta == 0.0 => "0".to_string(),
                None => format!("{delta:+.6} (new)"),
            };
            out.push_str(&format!(
                "| {} `{}` | {} | {} | {} | {} |\n",
                l.kind,
                l.name,
                trim_float(l.baseline),
                trim_float(l.candidate),
                delta_text,
                if l.within { "ok" } else { "CHANGED" }
            ));
        }
        if shown == 0 {
            out.push_str("| *(no differences)* | | | | |\n");
        }
        out.push_str(&format!(
            "\n{} quantities compared, {} beyond tolerance\n",
            self.lines.len(),
            self.beyond_tolerance()
        ));
        out
    }
}

/// Equal, or the same bits (NaN on both sides).
fn same(a: f64, b: f64) -> bool {
    a == b || a.to_bits() == b.to_bits()
}

fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Union of names from two `(name, value)` lists, baseline order first,
/// candidate-only names after (missing side reads as 0).
fn union_names(a: &[(String, f64)], b: &[(String, f64)]) -> Vec<(String, f64, f64)> {
    let bmap: BTreeMap<&str, f64> = b.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let amap: BTreeMap<&str, f64> = a.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let mut out: Vec<(String, f64, f64)> = a
        .iter()
        .map(|(n, v)| (n.clone(), *v, bmap.get(n.as_str()).copied().unwrap_or(0.0)))
        .collect();
    for (n, v) in b {
        if !amap.contains_key(n.as_str()) {
            out.push((n.clone(), 0.0, *v));
        }
    }
    out
}

/// Diff `candidate` against `baseline`.
pub fn diff(baseline: &RunManifest, candidate: &RunManifest, opts: &DiffOptions) -> DiffReport {
    let tol = opts.tolerance;
    let mut lines = Vec::new();
    let mut notes = Vec::new();

    if baseline.run != candidate.run {
        notes.push(format!("run: {:?} vs {:?}", baseline.run, candidate.run));
    }
    if baseline.seed != candidate.seed {
        notes.push(format!("seed: {} vs {}", baseline.seed, candidate.seed));
    }
    if baseline.config != candidate.config {
        notes.push("config differs".to_string());
    }

    let a: Vec<(String, f64)> = baseline
        .counters
        .iter()
        .map(|c| (c.name.clone(), c.value as f64))
        .collect();
    let b: Vec<(String, f64)> = candidate
        .counters
        .iter()
        .map(|c| (c.name.clone(), c.value as f64))
        .collect();
    for (name, base, cand) in union_names(&a, &b) {
        lines.push(DiffLine::check("counter", &name, base, cand, tol));
    }

    let a: Vec<(String, f64)> = baseline
        .timers
        .iter()
        .map(|t| (t.name.clone(), t.count as f64))
        .collect();
    let b: Vec<(String, f64)> = candidate
        .timers
        .iter()
        .map(|t| (t.name.clone(), t.count as f64))
        .collect();
    for (name, base, cand) in union_names(&a, &b) {
        lines.push(DiffLine::check("timer.count", &name, base, cand, tol));
    }
    if !opts.ignore_timer_ns {
        let a: Vec<(String, f64)> = baseline
            .timers
            .iter()
            .map(|t| (t.name.clone(), t.total_ns as f64))
            .collect();
        let b: Vec<(String, f64)> = candidate
            .timers
            .iter()
            .map(|t| (t.name.clone(), t.total_ns as f64))
            .collect();
        for (name, base, cand) in union_names(&a, &b) {
            lines.push(DiffLine::check("timer.ns", &name, base, cand, tol));
        }
    }

    lines.push(DiffLine::check(
        "epoch.count",
        "epochs",
        baseline.epochs.len() as f64,
        candidate.epochs.len() as f64,
        tol,
    ));
    for (i, (be, ce)) in baseline.epochs.iter().zip(&candidate.epochs).enumerate() {
        let name = format!("epoch[{i}]");
        lines.push(DiffLine::check("epoch.loss", &name, be.loss, ce.loss, tol));
        lines.push(DiffLine::check(
            "epoch.train_accuracy",
            &name,
            be.train_accuracy,
            ce.train_accuracy,
            tol,
        ));
        lines.push(DiffLine::check(
            "epoch.test_accuracy",
            &name,
            be.test_accuracy,
            ce.test_accuracy,
            tol,
        ));
    }

    // Heatmaps: compare per-grid metric totals (cell-exact comparison
    // would drown the report; totals catch any systematic movement and
    // exact-tolerance gates still catch single-cell changes via totals
    // plus the counter lines).
    let metric_totals = |m: &RunManifest| -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for g in &m.heatmaps {
            out.push((format!("{}.cells", g.name), g.cells() as f64));
            for metric in fare_obs::HeatmapGrid::metric_names() {
                let total: f64 = g.metric(metric).unwrap_or_default().iter().sum();
                out.push((format!("{}.{metric}", g.name), total));
            }
        }
        out
    };
    for (name, base, cand) in union_names(&metric_totals(baseline), &metric_totals(candidate)) {
        lines.push(DiffLine::check("heatmap", &name, base, cand, tol));
    }

    let a: Vec<(String, f64)> = baseline
        .bench
        .iter()
        .map(|e| (e.name.clone(), e.value))
        .collect();
    let b: Vec<(String, f64)> = candidate
        .bench
        .iter()
        .map(|e| (e.name.clone(), e.value))
        .collect();
    for (name, base, cand) in union_names(&a, &b) {
        lines.push(DiffLine::check("bench", &name, base, cand, tol));
    }

    DiffReport { lines, notes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fare_obs::{BenchEntry, CounterEntry, EpochRecord};

    fn manifest(counters: &[(&str, u64)]) -> RunManifest {
        RunManifest {
            run: "t".into(),
            seed: 1,
            config: "{}".into(),
            counters: counters
                .iter()
                .map(|&(n, v)| CounterEntry {
                    name: n.into(),
                    value: v,
                })
                .collect(),
            timers: Vec::new(),
            epochs: Vec::new(),
            heatmaps: Vec::new(),
            bench: Vec::new(),
        }
    }

    #[test]
    fn identical_manifests_diff_clean() {
        let m = manifest(&[("a.b.c", 10), ("d.e.f", 0)]);
        let report = diff(&m, &m, &DiffOptions::default());
        assert!(report.ok());
        assert_eq!(report.beyond_tolerance(), 0);
        assert!(report.notes.is_empty());
        assert!(report.to_markdown(true).contains("no differences"));
    }

    #[test]
    fn counter_missing_on_one_side_reads_as_zero() {
        let a = manifest(&[("a.b.c", 10)]);
        let b = manifest(&[("a.b.c", 10), ("x.y.z", 3)]);
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(!report.ok());
        let line = report.lines.iter().find(|l| l.name == "x.y.z").unwrap();
        assert_eq!(line.baseline, 0.0);
        assert_eq!(line.candidate, 3.0);
        assert!(!line.within, "a new counter is a change");
        // And the zero-baseline percentage has no defined value.
        assert_eq!(line.rel_pct(), None);
        assert!(report.to_markdown(true).contains("(new)"));

        // Symmetric: dropped counter.
        let report = diff(&b, &a, &DiffOptions::default());
        let line = report.lines.iter().find(|l| l.name == "x.y.z").unwrap();
        assert_eq!((line.baseline, line.candidate), (3.0, 0.0));
        assert!(!line.within);
    }

    #[test]
    fn tolerance_boundary_is_inclusive() {
        let a = manifest(&[("a.b.c", 100)]);
        let b = manifest(&[("a.b.c", 110)]);
        // 10% change: exactly at tolerance passes…
        assert!(diff(
            &a,
            &b,
            &DiffOptions {
                tolerance: 0.10,
                ..DiffOptions::default()
            }
        )
        .ok());
        // …just below fails.
        assert!(!diff(
            &a,
            &b,
            &DiffOptions {
                tolerance: 0.0999,
                ..DiffOptions::default()
            }
        )
        .ok());
        // Zero tolerance demands exact equality.
        assert!(!diff(&a, &b, &DiffOptions::default()).ok());
        assert!(diff(&a, &a, &DiffOptions::default()).ok());
    }

    #[test]
    fn zero_baseline_fails_any_change_at_finite_tolerance() {
        let a = manifest(&[]);
        let b = manifest(&[("x.y.z", 1)]);
        let report = diff(
            &a,
            &b,
            &DiffOptions {
                tolerance: 1e9,
                ..DiffOptions::default()
            },
        );
        // |1 - 0| <= 1e9 * 0 is false: a zero baseline tolerates nothing.
        assert!(!report.ok());
    }

    #[test]
    fn epoch_curves_and_counts_are_compared() {
        let mut a = manifest(&[]);
        a.epochs.push(EpochRecord {
            epoch: 0,
            loss: 1.0,
            train_accuracy: 0.5,
            test_accuracy: 0.4,
        });
        let mut b = a.clone();
        b.epochs[0].test_accuracy = 0.41;
        let report = diff(&a, &b, &DiffOptions::default());
        assert_eq!(report.beyond_tolerance(), 1);
        assert!(diff(
            &a,
            &b,
            &DiffOptions {
                tolerance: 0.05,
                ..DiffOptions::default()
            }
        )
        .ok());

        // Epoch-count mismatch is itself a regression.
        b.epochs.clear();
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(report
            .lines
            .iter()
            .any(|l| l.kind == "epoch.count" && !l.within));
    }

    #[test]
    fn nan_on_both_sides_is_within_tolerance() {
        let mut a = manifest(&[]);
        a.epochs.push(EpochRecord {
            epoch: 0,
            loss: f64::NAN,
            train_accuracy: 0.5,
            test_accuracy: 0.4,
        });
        a.bench.push(BenchEntry {
            name: "loss".into(),
            value: f64::NAN,
        });
        let report = diff(&a, &a, &DiffOptions::default());
        assert!(report.ok(), "{}", report.to_markdown(false));
        assert!(report.to_markdown(true).contains("no differences"));
        // A NaN against a number is still a change.
        let mut b = a.clone();
        b.epochs[0].loss = 1.0;
        assert_eq!(diff(&a, &b, &DiffOptions::default()).beyond_tolerance(), 1);
    }

    #[test]
    fn changes_are_labelled_the_same_in_either_direction() {
        let a = manifest(&[("x.y.z", 100)]);
        let b = manifest(&[("x.y.z", 80)]);
        for (base, cand) in [(&a, &b), (&b, &a)] {
            let text = diff(base, cand, &DiffOptions::default()).to_markdown(true);
            assert!(text.contains("| CHANGED |"), "{text}");
            assert!(!text.contains("REGRESSION"), "{text}");
        }
    }

    #[test]
    fn meta_mismatches_are_notes_not_regressions() {
        let a = manifest(&[]);
        let mut b = a.clone();
        b.seed = 2;
        b.run = "other".into();
        let report = diff(&a, &b, &DiffOptions::default());
        assert!(report.ok());
        assert_eq!(report.notes.len(), 2);
    }

    #[test]
    fn bench_values_are_compared_with_tolerance() {
        let mut a = manifest(&[]);
        a.bench.push(BenchEntry {
            name: "ns_per_iter".into(),
            value: 100.0,
        });
        let mut b = a.clone();
        b.bench[0].value = 104.0;
        assert!(!diff(&a, &b, &DiffOptions::default()).ok());
        assert!(diff(
            &a,
            &b,
            &DiffOptions {
                tolerance: 0.05,
                ..DiffOptions::default()
            }
        )
        .ok());
    }
}
