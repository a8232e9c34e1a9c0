//! ASCII line plots for [`Figure`]s.
//!
//! The paper's figures are log-x line charts; [`render_plot`] draws a
//! terminal approximation so examples and benches can show curve *shapes*,
//! not just point lists.

use crate::figure::Figure;

/// Plot body width in characters.
const WIDTH: usize = 64;
/// Plot body height in rows.
const HEIGHT: usize = 16;

/// Markers assigned to series in order.
const MARKERS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '~'];

/// Renders `figure` as an ASCII plot with a legend, on a logarithmic x
/// axis when `log_x` is set (the paper's Figures 2–4).
///
/// Series beyond the eighth reuse markers. Returns an empty string for a
/// figure with no points.
///
/// # Examples
///
/// ```
/// use nvfs_report::{Figure, Series};
/// use nvfs_report::render_plot;
///
/// let mut f = Figure::new("Demo", "x", "y");
/// f.push(Series::new("a", vec![(1.0, 0.0), (2.0, 10.0)]));
/// let s = render_plot(&f, false);
/// assert!(s.contains("Demo"));
/// assert!(s.contains("a"));
/// ```
pub fn render_plot(figure: &Figure, log_x: bool) -> String {
    let points: Vec<(f64, f64)> = figure
        .all_series()
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if points.is_empty() {
        return String::new();
    }
    let xform = |x: f64| {
        if log_x {
            x.max(f64::MIN_POSITIVE).log10()
        } else {
            x
        }
    };
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &points {
        let x = xform(x);
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if (x_max - x_min).abs() < f64::EPSILON {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_max = y_min + 1.0;
    }

    let mut grid = vec![vec![' '; WIDTH]; HEIGHT];
    for (si, series) in figure.all_series().iter().enumerate() {
        let marker = MARKERS[si % MARKERS.len()];
        // Plot line segments between consecutive points, sampled per column.
        for pair in series.points.windows(2) {
            let (x0, y0) = (xform(pair[0].0), pair[0].1);
            let (x1, y1) = (xform(pair[1].0), pair[1].1);
            let c0 = col(x0, x_min, x_max);
            let c1 = col(x1, x_min, x_max);
            let (lo, hi) = (c0.min(c1), c0.max(c1));
            #[allow(clippy::needless_range_loop)] // rows vary per column
            for c in lo..=hi {
                let frac = if hi == lo {
                    0.0
                } else {
                    (c - lo) as f64 / (hi - lo) as f64
                };
                let y = if c0 <= c1 {
                    y0 + frac * (y1 - y0)
                } else {
                    y1 + (1.0 - frac) * (y0 - y1)
                };
                let r = row(y, y_min, y_max);
                grid[r][c] = marker;
            }
        }
        // Single-point series still get their marker.
        if series.points.len() == 1 {
            let (x, y) = series.points[0];
            grid[row(y, y_min, y_max)][col(xform(x), x_min, x_max)] = marker;
        }
    }

    let mut out = String::new();
    out.push_str(&format!("{}\n", figure.title));
    out.push_str(&format!("{:>8.1} ┤", y_max));
    out.push_str(&grid[0].iter().collect::<String>());
    out.push('\n');
    for r in grid.iter().take(HEIGHT - 1).skip(1) {
        out.push_str("         │");
        out.push_str(&r.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("{:>8.1} ┤", y_min));
    out.push_str(&grid[HEIGHT - 1].iter().collect::<String>());
    out.push('\n');
    out.push_str("         └");
    out.push_str(&"─".repeat(WIDTH));
    out.push('\n');
    let x_lo = if log_x { 10f64.powf(x_min) } else { x_min };
    let x_hi = if log_x { 10f64.powf(x_max) } else { x_max };
    out.push_str(&format!(
        "          {:<width$.3}{:>8.3}\n",
        x_lo,
        x_hi,
        width = WIDTH - 6
    ));
    out.push_str(&format!(
        "          x: {} — y: {}\n",
        figure.x_label, figure.y_label
    ));
    for (si, series) in figure.all_series().iter().enumerate() {
        out.push_str(&format!(
            "          {} {}\n",
            MARKERS[si % MARKERS.len()],
            series.name
        ));
    }
    out
}

fn col(x: f64, min: f64, max: f64) -> usize {
    let frac = ((x - min) / (max - min)).clamp(0.0, 1.0);
    ((frac * (WIDTH - 1) as f64).round() as usize).min(WIDTH - 1)
}

fn row(y: f64, min: f64, max: f64) -> usize {
    // Row 0 is the top (y_max).
    let frac = ((y - min) / (max - min)).clamp(0.0, 1.0);
    let r = ((1.0 - frac) * (HEIGHT - 1) as f64).round() as usize;
    r.min(HEIGHT - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure::Series;

    fn demo() -> Figure {
        let mut f = Figure::new("T", "x", "y");
        f.push(Series::new(
            "down",
            vec![(0.125, 80.0), (1.0, 40.0), (8.0, 30.0)],
        ));
        f.push(Series::new("flat", vec![(0.125, 50.0), (8.0, 50.0)]));
        f
    }

    #[test]
    fn plot_contains_axes_legend_and_markers() {
        let s = render_plot(&demo(), false);
        assert!(s.contains('┤'));
        assert!(s.contains('└'));
        assert!(s.contains("* down"));
        assert!(s.contains("o flat"));
        assert!(s.contains("x: x — y: y"));
        assert!(s.contains('*') && s.contains('o'));
    }

    #[test]
    fn log_x_spreads_small_values() {
        let lin = render_plot(&demo(), false);
        let log = render_plot(&demo(), true);
        // Both render; the curves differ in shape.
        assert_ne!(lin, log);
    }

    #[test]
    fn empty_figure_renders_nothing() {
        let f = Figure::new("E", "x", "y");
        assert_eq!(render_plot(&f, false), "");
    }

    #[test]
    fn flat_series_is_handled() {
        let mut f = Figure::new("F", "x", "y");
        f.push(Series::new("c", vec![(1.0, 5.0), (2.0, 5.0)]));
        let s = render_plot(&f, false);
        assert!(s.contains('*'));
    }

    #[test]
    fn single_point_series() {
        let mut f = Figure::new("P", "x", "y");
        f.push(Series::new("dot", vec![(3.0, 7.0)]));
        let s = render_plot(&f, false);
        assert!(s.contains('*'));
    }
}
