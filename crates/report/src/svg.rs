//! A tiny deterministic SVG writer — just enough shapes for the
//! heatmap and figure renderers, so the workspace needs no plotting
//! dependency. All coordinates are formatted with fixed precision, so
//! the same input always renders byte-identical output.

/// Fixed-precision coordinate formatting (2 decimals).
fn c(v: f64) -> String {
    format!("{v:.2}")
}

/// Minimal XML text escaping.
pub fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// An SVG document under construction.
pub struct SvgDoc {
    width: f64,
    height: f64,
    body: String,
}

impl SvgDoc {
    pub fn new(width: f64, height: f64) -> SvgDoc {
        SvgDoc {
            width,
            height,
            body: String::new(),
        }
    }

    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str) -> &mut Self {
        self.body.push_str(&format!(
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{}\"/>\n",
            c(x),
            c(y),
            c(w),
            c(h),
            fill
        ));
        self
    }

    pub fn line(
        &mut self,
        x1: f64,
        y1: f64,
        x2: f64,
        y2: f64,
        stroke: &str,
        width: f64,
    ) -> &mut Self {
        self.body.push_str(&format!(
            "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"{}\" stroke-width=\"{}\"/>\n",
            c(x1),
            c(y1),
            c(x2),
            c(y2),
            stroke,
            c(width)
        ));
        self
    }

    /// Polyline through `points`, no fill.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64) -> &mut Self {
        let pts: Vec<String> = points
            .iter()
            .map(|&(x, y)| format!("{},{}", c(x), c(y)))
            .collect();
        self.body.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{}\" stroke-width=\"{}\"/>\n",
            pts.join(" "),
            stroke,
            c(width)
        ));
        self
    }

    /// Text anchored per `anchor` (`start`/`middle`/`end`).
    pub fn text(&mut self, x: f64, y: f64, size: f64, anchor: &str, content: &str) -> &mut Self {
        self.body.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" font-size=\"{}\" font-family=\"sans-serif\" text-anchor=\"{}\">{}</text>\n",
            c(x),
            c(y),
            c(size),
            anchor,
            escape(content)
        ));
        self
    }

    /// Finish the document.
    pub fn finish(self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
             viewBox=\"0 0 {} {}\">\n<rect width=\"{}\" height=\"{}\" fill=\"white\"/>\n{}</svg>\n",
            c(self.width),
            c(self.height),
            c(self.width),
            c(self.height),
            c(self.width),
            c(self.height),
            self.body
        )
    }
}

/// The line-chart palette (stable order; cycles past the end).
pub const PALETTE: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
];

/// A blue→red heat colour for `t ∈ [0, 1]`.
pub fn heat_color(t: f64) -> String {
    let t = t.clamp(0.0, 1.0);
    let r = (255.0 * t) as u8;
    let g = (64.0 * (1.0 - t)) as u8;
    let b = (255.0 * (1.0 - t)) as u8;
    format!("#{r:02x}{g:02x}{b:02x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_deterministic_well_formed_svg() {
        let render = || {
            let mut doc = SvgDoc::new(100.0, 50.0);
            doc.rect(0.0, 0.0, 10.0, 10.0, "#ff0000")
                .line(0.0, 0.0, 100.0, 50.0, "black", 1.0)
                .polyline(&[(0.0, 0.0), (5.0, 5.0)], PALETTE[0], 1.5)
                .text(50.0, 25.0, 10.0, "middle", "a<b & c");
            doc.finish()
        };
        let one = render();
        assert_eq!(one, render());
        assert!(one.starts_with("<svg "));
        assert!(one.ends_with("</svg>\n"));
        assert!(one.contains("a&lt;b &amp; c"));
        assert_eq!(one.matches('<').count(), one.matches('>').count());
    }

    #[test]
    fn heat_color_spans_blue_to_red() {
        assert_eq!(heat_color(0.0), "#0040ff");
        assert_eq!(heat_color(1.0), "#ff0000");
        assert!(heat_color(2.0) == heat_color(1.0));
    }
}
