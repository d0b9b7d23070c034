//! Crossbar heatmap renderers: a [`HeatmapGrid`] metric as an ASCII
//! shade grid (terminal) or an SVG cell grid (reports).

use crate::svg::{heat_color, SvgDoc};
use fare_obs::HeatmapGrid;

/// ASCII shade ramp, cold → hot.
const RAMP: &[u8] = b" .:-=+*#%@";

fn normalise(values: &[f64]) -> (Vec<f64>, f64, f64) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    let norm = values
        .iter()
        .map(|&v| if span > 0.0 { (v - lo) / span } else { 0.0 })
        .collect();
    (norm, lo, hi)
}

/// `grid`'s `metric` values.
fn values(grid: &HeatmapGrid, metric: &str) -> Result<Vec<f64>, String> {
    grid.check()?;
    let values = grid.metric(metric).ok_or_else(|| bad_metric(metric))?;
    if values.is_empty() {
        return Err("empty heatmap grid".to_string());
    }
    Ok(values)
}

/// Render `grid`'s `metric` as an ASCII shade grid with a scale legend.
/// Errors on an inconsistent grid (see [`HeatmapGrid::check`]), an
/// unknown metric name or an empty grid.
pub fn ascii(grid: &HeatmapGrid, metric: &str) -> Result<String, String> {
    let values = values(grid, metric)?;
    let (norm, lo, hi) = normalise(&values);
    let cols = grid.cols as usize;
    let mut out = format!(
        "{} · {} ({} crossbars, {}x{})\n",
        grid.name,
        metric,
        values.len(),
        grid.rows,
        grid.cols
    );
    for (i, t) in norm.iter().enumerate() {
        if i > 0 && i % cols == 0 {
            out.push('\n');
        }
        let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
        out.push(RAMP[idx] as char);
        out.push(RAMP[idx] as char); // double width ≈ square cells
    }
    out.push('\n');
    out.push_str(&format!(
        "scale: '{}' = {:.3}  '{}' = {:.3}\n",
        RAMP[0] as char,
        lo,
        RAMP[RAMP.len() - 1] as char,
        hi
    ));
    Ok(out)
}

/// Render `grid`'s `metric` as an SVG cell grid with a colour bar.
/// Errors as [`ascii`] does.
pub fn svg(grid: &HeatmapGrid, metric: &str) -> Result<String, String> {
    let values = values(grid, metric)?;
    let (norm, lo, hi) = normalise(&values);
    let cols = grid.cols as usize;
    let rows = grid.rows as usize;
    let cell = 16.0;
    let ml = 10.0;
    let mt = 30.0;
    let w = ml + cols as f64 * cell + 120.0;
    let h = mt + rows as f64 * cell + 20.0;
    let mut doc = SvgDoc::new(w, h);
    doc.text(
        ml,
        18.0,
        12.0,
        "start",
        &format!("{} · {} per crossbar", grid.name, metric),
    );
    for (i, t) in norm.iter().enumerate() {
        let r = i / cols;
        let c = i % cols;
        doc.rect(
            ml + c as f64 * cell,
            mt + r as f64 * cell,
            cell - 1.0,
            cell - 1.0,
            &heat_color(*t),
        );
    }
    // Colour bar.
    let bx = ml + cols as f64 * cell + 20.0;
    for i in 0..10 {
        let t = 1.0 - (i as f64 + 0.5) / 10.0;
        doc.rect(bx, mt + i as f64 * 10.0, 14.0, 10.0, &heat_color(t));
    }
    doc.text(bx + 20.0, mt + 8.0, 9.0, "start", &format!("{hi:.3}"));
    doc.text(bx + 20.0, mt + 100.0, 9.0, "start", &format!("{lo:.3}"));
    Ok(doc.finish())
}

fn bad_metric(metric: &str) -> String {
    format!(
        "unknown metric {:?}; valid: {}",
        metric,
        HeatmapGrid::metric_names().join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> HeatmapGrid {
        let mut g = HeatmapGrid::zeros("adjacency_crossbars", 6);
        g.sa0 = vec![0, 1, 2, 3, 4, 5];
        g.sa1 = vec![5, 4, 3, 2, 1, 0];
        g.energy_nj = vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0];
        g
    }

    #[test]
    fn ascii_renders_shape_and_scale() {
        let g = grid();
        let text = ascii(&g, "sa0").unwrap();
        // 2 rows × 3 cols (grid_shape(6) = (2,3)), doubled width.
        let rows: Vec<&str> = text.lines().skip(1).take(2).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.chars().count() == 6));
        assert!(text.contains("scale:"));
        // Cold first cell, hot last cell.
        assert!(rows[0].starts_with("  "));
        assert!(rows[1].ends_with("@@"));
    }

    #[test]
    fn uniform_grids_render_cold() {
        let g = HeatmapGrid::zeros("x", 4);
        let text = ascii(&g, "faults").unwrap();
        assert!(text.lines().skip(1).take(2).all(|r| r.trim().is_empty()));
    }

    #[test]
    fn svg_renders_one_rect_per_cell() {
        let g = grid();
        let one = svg(&g, "energy").unwrap();
        assert_eq!(one, svg(&g, "energy").unwrap());
        // 6 cells + 10 colour-bar segments + white background.
        assert_eq!(one.matches("<rect").count(), 17);
    }

    #[test]
    fn unknown_metric_and_empty_grid_error() {
        assert!(ascii(&grid(), "volts").unwrap_err().contains("valid:"));
        let empty = HeatmapGrid::zeros("x", 0);
        assert!(ascii(&empty, "sa0").is_err());
        assert!(svg(&empty, "sa0").is_err());
    }

    #[test]
    fn inconsistent_grids_error_instead_of_panicking() {
        let mut no_cols = grid();
        no_cols.cols = 0;
        let mut overflow = grid();
        overflow.sa0[0] = u64::MAX;
        let mut ragged = grid();
        ragged.mvms.pop();
        for g in [no_cols, overflow, ragged] {
            assert!(ascii(&g, "faults").is_err());
            assert!(svg(&g, "faults").is_err());
        }
    }
}
