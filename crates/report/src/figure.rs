//! Figures: labelled families of (x, y) series, as the paper's plots.

/// One curve of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (e.g. `Trace 7` or `unified`).
    pub name: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a named series.
    pub fn new(name: &str, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.to_string(),
            points,
        }
    }

    /// The y value at the given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }

    /// Whether y never increases as x grows (diminishing-returns curves).
    pub fn is_nonincreasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-9)
    }
}

/// A titled figure with axes and one or more series.
///
/// # Examples
///
/// ```
/// use nvfs_report::{Figure, Series};
///
/// let mut f = Figure::new("Fig 3", "Megabytes NVRAM", "Net write traffic (%)");
/// f.push(Series::new("Trace 7", vec![(0.125, 70.0), (1.0, 35.0)]));
/// assert!(f.to_csv().contains("Trace 7"));
/// assert!(f.series("Trace 7").unwrap().is_nonincreasing());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure title.
    pub(crate) title: String,
    /// X-axis label.
    pub(crate) x_label: String,
    /// Y-axis label.
    pub(crate) y_label: String,
    series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        Figure {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
        }
    }

    /// Appends a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// All series.
    pub fn all_series(&self) -> &[Series] {
        &self.series
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// CSV: `series,x,y` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for (x, y) in &s.points {
                out.push_str(&format!("{},{x},{y}\n", s.name));
            }
        }
        out
    }

    /// A compact text rendering: one line per series with its points.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} — x: {}, y: {}\n",
            self.title, self.x_label, self.y_label
        );
        for s in &self.series {
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|(x, y)| format!("({x:.3}, {y:.1})"))
                .collect();
            out.push_str(&format!("  {:<14} {}\n", s.name, pts.join(" ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_queries() {
        let s = Series::new("a", vec![(1.0, 10.0), (2.0, 5.0)]);
        assert_eq!(s.y_at(2.0), Some(5.0));
        assert_eq!(s.y_at(3.0), None);
        assert!(s.is_nonincreasing());
        let up = Series::new("b", vec![(1.0, 1.0), (2.0, 2.0)]);
        assert!(!up.is_nonincreasing());
    }

    #[test]
    fn figure_render_and_csv() {
        let mut f = Figure::new("F", "x", "y");
        f.push(Series::new("s", vec![(0.5, 50.0)]));
        assert!(f.render().contains("(0.500, 50.0)"));
        assert_eq!(f.to_csv(), "series,x,y\ns,0.5,50\n");
        assert_eq!(f.all_series().len(), 1);
        assert!(f.series("missing").is_none());
    }
}
