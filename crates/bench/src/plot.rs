//! Minimal ASCII line-chart renderer for the report's figures.
//!
//! The paper's figures are line charts of per-application series across
//! the five technology points; `report --plot` renders the same curves
//! directly in the terminal so trends are visible without exporting CSV
//! to an external plotter.

/// One named data series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Y values, one per x position (all series share the x axis).
    pub values: Vec<f64>,
}

/// Renders series as an ASCII chart of the given height, with one column
/// group per x label. Returns the multi-line chart as a `String`.
///
/// Each series is drawn with its own marker character (`a`, `b`, `c`, …
/// matching the legend); collisions show the later series' marker.
///
/// # Panics
///
/// Panics if no series is given, series lengths differ from the label
/// count, or `height < 2`.
///
/// # Examples
///
/// ```
/// use ramp_bench::plot::{render, Series};
/// let chart = render(
///     &["180", "130", "90", "65"],
///     &[Series { label: "demo".into(), values: vec![1.0, 2.0, 4.0, 8.0] }],
///     8,
/// );
/// assert!(chart.contains("a = demo"));
/// assert!(chart.lines().count() > 8);
/// ```
#[must_use]
pub fn render(x_labels: &[&str], series: &[Series], height: usize) -> String {
    assert!(!series.is_empty(), "need at least one series");
    assert!(height >= 2, "chart height must be at least 2");
    for s in series {
        assert_eq!(
            s.values.len(),
            x_labels.len(),
            "series `{}` length mismatch",
            s.label
        );
    }

    let all: Vec<f64> = series.iter().flat_map(|s| s.values.iter().copied()).collect();
    let min = all.iter().cloned().fold(f64::MAX, f64::min);
    let max = all.iter().cloned().fold(f64::MIN, f64::max);
    let span = (max - min).max(1e-12);

    // Column layout: each x position gets a fixed-width cell.
    let cell = x_labels.iter().map(|l| l.len()).max().unwrap_or(4).max(6) + 2;
    let width = cell * x_labels.len();
    let mut grid = vec![vec![' '; width]; height];

    for (si, s) in series.iter().enumerate() {
        let marker = (b'a' + (si % 26) as u8) as char;
        let mut prev: Option<(usize, usize)> = None;
        for (xi, &v) in s.values.iter().enumerate() {
            let row = ((max - v) / span * (height - 1) as f64).round() as usize;
            let col = xi * cell + cell / 2;
            if let Some((prow, pcol)) = prev {
                // Linear interpolation between points for a line feel.
                let steps = col.saturating_sub(pcol).max(1);
                for step in 0..=steps {
                    let c = pcol + step;
                    let r = prow as f64
                        + (row as f64 - prow as f64) * step as f64 / steps as f64;
                    let r = r.round() as usize;
                    if grid[r][c] == ' ' {
                        grid[r][c] = if step == steps { marker } else { '·' };
                    }
                }
            }
            grid[row][col] = marker;
            prev = Some((row, col));
        }
    }

    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let y = max - span * i as f64 / (height - 1) as f64;
        out.push_str(&format!("{y:>10.0} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!("{:>11}", ""));
    for l in x_labels {
        out.push_str(&format!("{l:^cell$}"));
    }
    out.push('\n');
    for (si, s) in series.iter().enumerate() {
        let marker = (b'a' + (si % 26) as u8) as char;
        out.push_str(&format!("{:>11}{} = {}\n", "", marker, s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_series() -> Vec<Series> {
        vec![
            Series {
                label: "up".into(),
                values: vec![1.0, 2.0, 4.0],
            },
            Series {
                label: "down".into(),
                values: vec![4.0, 2.0, 1.0],
            },
        ]
    }

    #[test]
    fn renders_all_labels_and_legend() {
        let chart = render(&["x0", "x1", "x2"], &demo_series(), 10);
        for needle in ["x0", "x1", "x2", "a = up", "b = down"] {
            assert!(chart.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn extremes_land_on_first_and_last_rows() {
        let s = vec![Series {
            label: "line".into(),
            values: vec![0.0, 10.0],
        }];
        let chart = render(&["lo", "hi"], &s, 5);
        let lines: Vec<&str> = chart.lines().collect();
        // Max value (10) on the top data row; min (0) on the bottom one.
        assert!(lines[0].contains('a'));
        assert!(lines[4].contains('a'));
    }

    #[test]
    fn flat_series_does_not_divide_by_zero() {
        let s = vec![Series {
            label: "flat".into(),
            values: vec![5.0, 5.0, 5.0],
        }];
        let chart = render(&["a", "b", "c"], &s, 4);
        assert!(chart.contains("a = flat"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        let s = vec![Series {
            label: "bad".into(),
            values: vec![1.0],
        }];
        let _ = render(&["a", "b"], &s, 4);
    }
}
