//! Fig5-style epoch-curve figures: one SVG line chart over the
//! per-epoch metric curves of one or more manifests (e.g. the three
//! seeds of the paper-claims tests), rendered with the in-repo
//! [`svg`](crate::svg) writer.

use crate::svg::{SvgDoc, PALETTE};
use fare_obs::RunManifest;

/// Which epoch-curve metric to plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveMetric {
    Loss,
    TrainAccuracy,
    TestAccuracy,
}

impl CurveMetric {
    /// Parse a CLI name (`loss`, `train_accuracy`, `test_accuracy`).
    pub fn parse(name: &str) -> Option<CurveMetric> {
        match name {
            "loss" => Some(CurveMetric::Loss),
            "train_accuracy" => Some(CurveMetric::TrainAccuracy),
            "test_accuracy" => Some(CurveMetric::TestAccuracy),
            _ => None,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            CurveMetric::Loss => "loss",
            CurveMetric::TrainAccuracy => "train accuracy",
            CurveMetric::TestAccuracy => "test accuracy",
        }
    }

    fn value(&self, e: &fare_obs::EpochRecord) -> f64 {
        match self {
            CurveMetric::Loss => e.loss,
            CurveMetric::TrainAccuracy => e.train_accuracy,
            CurveMetric::TestAccuracy => e.test_accuracy,
        }
    }
}

const W: f64 = 640.0;
const H: f64 = 400.0;
const ML: f64 = 60.0; // left margin (y labels)
const MR: f64 = 20.0;
const MT: f64 = 30.0;
const MB: f64 = 70.0; // bottom margin (x labels + legend)

/// Render the epoch curves of `manifests` as one SVG line chart.
///
/// Accuracy metrics use a fixed `[0, 1]` y-range (the paper's Fig. 5
/// convention, making charts comparable across runs); loss auto-scales
/// from the data. Errors if no manifest has any epochs.
pub fn epoch_curves(manifests: &[RunManifest], metric: CurveMetric) -> Result<String, String> {
    let max_epochs = manifests.iter().map(|m| m.epochs.len()).max().unwrap_or(0);
    if max_epochs == 0 {
        return Err("no epoch records in any manifest".to_string());
    }

    let (y_min, y_max) = match metric {
        CurveMetric::Loss => {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for m in manifests {
                for e in &m.epochs {
                    lo = lo.min(metric.value(e));
                    hi = hi.max(metric.value(e));
                }
            }
            let pad = ((hi - lo) * 0.05).max(1e-9);
            (0.0f64.min(lo - pad), hi + pad)
        }
        _ => (0.0, 1.0),
    };

    let x_span = (max_epochs - 1).max(1) as f64;
    let px = |epoch: f64| ML + (W - ML - MR) * (epoch / x_span);
    let py = |v: f64| MT + (H - MT - MB) * (1.0 - (v - y_min) / (y_max - y_min));

    let mut doc = SvgDoc::new(W, H);
    doc.text(
        W / 2.0,
        18.0,
        13.0,
        "middle",
        &format!("{} per epoch", metric.label()),
    );

    // Axes.
    doc.line(ML, MT, ML, H - MB, "#333333", 1.0);
    doc.line(ML, H - MB, W - MR, H - MB, "#333333", 1.0);
    // Y ticks: 5 divisions.
    for i in 0..=5 {
        let v = y_min + (y_max - y_min) * (i as f64) / 5.0;
        let y = py(v);
        doc.line(ML - 4.0, y, ML, y, "#333333", 1.0);
        doc.line(ML, y, W - MR, y, "#dddddd", 0.5);
        doc.text(ML - 8.0, y + 3.5, 10.0, "end", &format!("{v:.2}"));
    }
    // X ticks: at most 10.
    let step = (max_epochs / 10).max(1);
    for e in (0..max_epochs).step_by(step) {
        let x = px(e as f64);
        doc.line(x, H - MB, x, H - MB + 4.0, "#333333", 1.0);
        doc.text(x, H - MB + 16.0, 10.0, "middle", &format!("{e}"));
    }
    doc.text(W / 2.0, H - MB + 32.0, 11.0, "middle", "epoch");

    // Curves + legend.
    for (i, m) in manifests.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let points: Vec<(f64, f64)> = m
            .epochs
            .iter()
            .map(|e| (px(e.epoch as f64), py(metric.value(e))))
            .collect();
        if points.len() == 1 {
            let (x, y) = points[0];
            doc.rect(x - 1.5, y - 1.5, 3.0, 3.0, color);
        } else if !points.is_empty() {
            doc.polyline(&points, color, 1.8);
        }
        let lx = ML + 10.0 + (i as f64 % 3.0) * 190.0;
        let ly = H - 28.0 + (i as f64 / 3.0).floor() * 14.0;
        doc.line(lx, ly - 4.0, lx + 18.0, ly - 4.0, color, 2.0);
        let label = format!("{} (seed {})", m.run, m.seed);
        doc.text(lx + 24.0, ly, 10.0, "start", &label);
    }

    Ok(doc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fare_obs::EpochRecord;

    fn manifest(run: &str, seed: u64, accs: &[f64]) -> RunManifest {
        RunManifest {
            run: run.into(),
            seed,
            config: "{}".into(),
            counters: Vec::new(),
            timers: Vec::new(),
            epochs: accs
                .iter()
                .enumerate()
                .map(|(i, &a)| EpochRecord {
                    epoch: i,
                    loss: 2.0 - a,
                    train_accuracy: a,
                    test_accuracy: a * 0.9,
                })
                .collect(),
            heatmaps: Vec::new(),
            bench: Vec::new(),
        }
    }

    #[test]
    fn renders_three_seed_fig5_curves_deterministically() {
        let ms = vec![
            manifest("fare", 7, &[0.2, 0.5, 0.7, 0.8]),
            manifest("fare", 11, &[0.25, 0.45, 0.65, 0.78]),
            manifest("fare", 13, &[0.22, 0.48, 0.69, 0.81]),
        ];
        let one = epoch_curves(&ms, CurveMetric::TestAccuracy).unwrap();
        let two = epoch_curves(&ms, CurveMetric::TestAccuracy).unwrap();
        assert_eq!(one, two);
        assert_eq!(one.matches("<polyline").count(), 3);
        assert!(one.contains("seed 11"));
        assert!(one.contains("test accuracy per epoch"));
    }

    #[test]
    fn loss_autoscales_and_accuracy_is_unit_range() {
        let ms = vec![manifest("r", 1, &[0.1, 0.9])];
        let loss = epoch_curves(&ms, CurveMetric::Loss).unwrap();
        let acc = epoch_curves(&ms, CurveMetric::TrainAccuracy).unwrap();
        assert!(acc.contains(">1.00<"), "accuracy axis pins 1.0");
        assert!(loss.contains("loss per epoch"));
    }

    #[test]
    fn empty_inputs_error() {
        assert!(epoch_curves(&[], CurveMetric::Loss).is_err());
        let m = manifest("r", 1, &[]);
        assert!(epoch_curves(&[m], CurveMetric::Loss).is_err());
    }

    #[test]
    fn metric_names_parse() {
        assert_eq!(CurveMetric::parse("loss"), Some(CurveMetric::Loss));
        assert_eq!(
            CurveMetric::parse("test_accuracy"),
            Some(CurveMetric::TestAccuracy)
        );
        assert_eq!(CurveMetric::parse("volts"), None);
    }
}
