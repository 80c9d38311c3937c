//! Multi-seed replication: aggregate a figure rendered at independent seeds
//! into per-point means with 95% confidence intervals.
//!
//! The paper plots single-run curves; a reproduction should show how much
//! of each gap is signal. The figure plan ([`crate::figures::Plan`])
//! renders each figure once per seed, and [`replicate`] folds matching
//! series/points across those renders with Student-t intervals from
//! [`spms_kernel::stats`].

use std::fmt::Write as _;

use spms_kernel::stats::Tally;

use crate::figures::{FigureResult, SeriesData};

/// One aggregated series: `(x, mean, ci95 half-width)` per point.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicatedSeries {
    /// Legend label.
    pub name: String,
    /// Points in x order.
    pub points: Vec<(f64, f64, f64)>,
}

/// A figure aggregated over seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicatedFigure {
    /// Short id of the underlying figure ("fig6").
    pub id: &'static str,
    /// Title of the underlying figure.
    pub title: String,
    /// X-axis label.
    pub x_label: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// Number of seeds aggregated.
    pub replications: usize,
    /// Aggregated series.
    pub series: Vec<ReplicatedSeries>,
}

impl ReplicatedFigure {
    /// The aggregated series with the given name, if present.
    #[must_use]
    pub fn series_named(&self, name: &str) -> Option<&ReplicatedSeries> {
        self.series.iter().find(|s| s.name == name)
    }
}

/// Aggregates one figure rendered at several seeds (`runs`, one render
/// per seed).
///
/// Series are matched by name and points by position; a series or point
/// absent from some replication is aggregated over the seeds that produced
/// it (its interval widens accordingly).
///
/// # Errors
///
/// Returns a message if `runs` is empty or the replications disagree on
/// figure identity (different `id`).
pub fn replicate(runs: &[FigureResult]) -> Result<ReplicatedFigure, String> {
    let Some(first) = runs.first() else {
        return Err("need at least one seed".into());
    };
    if runs.iter().any(|r| r.id != first.id) {
        return Err("replications produced different figures".into());
    }
    // Collect series names in first-seen order.
    let mut names: Vec<String> = Vec::new();
    for r in runs {
        for s in &r.series {
            if !names.contains(&s.name) {
                names.push(s.name.clone());
            }
        }
    }
    let mut series = Vec::with_capacity(names.len());
    for name in names {
        let instances: Vec<&SeriesData> = runs
            .iter()
            .filter_map(|r| r.series.iter().find(|s| s.name == name))
            .collect();
        let longest = instances.iter().map(|s| s.points.len()).max().unwrap_or(0);
        let mut points = Vec::with_capacity(longest);
        for i in 0..longest {
            let mut tally = Tally::new();
            let mut x = f64::NAN;
            for inst in &instances {
                if let Some(&(px, py)) = inst.points.get(i) {
                    x = px;
                    tally.record(py);
                }
            }
            if tally.count() > 0 {
                points.push((x, tally.mean(), tally.ci95_half_width()));
            }
        }
        series.push(ReplicatedSeries { name, points });
    }
    Ok(ReplicatedFigure {
        id: first.id,
        title: first.title.clone(),
        x_label: first.x_label,
        y_label: first.y_label,
        replications: runs.len(),
        series,
    })
}

/// Renders an aggregated figure as a markdown table with `mean ± ci`
/// cells.
#[must_use]
pub fn render_replicated_markdown(fig: &ReplicatedFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### {} — {} ({} seeds, 95% CI)",
        fig.id, fig.title, fig.replications
    );
    let _ = writeln!(out);
    let mut header = format!("| {} |", fig.x_label);
    let mut rule = String::from("|---|");
    for s in &fig.series {
        let _ = write!(header, " {} |", s.name);
        rule.push_str("---|");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    let xs: Vec<f64> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        let mut row = format!("| {x:.1} |");
        for s in &fig.series {
            match s.points.get(i) {
                Some((_, mean, ci)) => {
                    let _ = write!(row, " {mean:.3} ± {ci:.3} |");
                }
                None => row.push_str(" – |"),
            }
        }
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "*y-axis: {}*", fig.y_label);
    let _ = writeln!(out);
    out
}

/// Renders an aggregated figure as CSV:
/// `x, <name> mean, <name> ci95, …` per series.
#[must_use]
pub fn render_replicated_csv(fig: &ReplicatedFigure) -> String {
    let mut out = fig.x_label.to_string();
    for s in &fig.series {
        let _ = write!(out, ",{} mean,{} ci95", s.name, s.name);
    }
    out.push('\n');
    let xs: Vec<f64> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        let _ = write!(out, "{x}");
        for s in &fig.series {
            match s.points.get(i) {
                Some((_, mean, ci)) => {
                    let _ = write!(out, ",{mean},{ci}");
                }
                None => out.push_str(",,"),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig_with(id: &'static str, ys: &[f64]) -> FigureResult {
        FigureResult {
            id,
            title: "demo".into(),
            x_label: "x",
            y_label: "y",
            series: vec![SeriesData {
                name: "A".into(),
                points: ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect(),
            }],
            notes: vec![],
        }
    }

    #[test]
    fn aggregation_means_and_cis_are_correct() {
        // Three "seeds" producing y = seed at every x.
        let runs: Vec<FigureResult> = [1.0, 2.0, 3.0]
            .iter()
            .map(|&s| fig_with("f", &[s, 2.0 * s]))
            .collect();
        let rep = replicate(&runs).unwrap();
        assert_eq!(rep.replications, 3);
        let a = rep.series_named("A").unwrap();
        assert_eq!(a.points.len(), 2);
        let (x0, m0, ci0) = a.points[0];
        assert_eq!(x0, 0.0);
        assert!((m0 - 2.0).abs() < 1e-12);
        // s = 1, t(2) = 4.303 → ci = 4.303/sqrt(3).
        assert!((ci0 - 4.303 / 3f64.sqrt()).abs() < 1e-9);
        let (_, m1, _) = a.points[1];
        assert!((m1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_seed_has_zero_interval() {
        let rep = replicate(&[fig_with("f", &[5.0])]).unwrap();
        assert_eq!(rep.series[0].points[0], (0.0, 5.0, 0.0));
    }

    #[test]
    fn empty_seed_list_is_an_error() {
        assert!(replicate(&[]).is_err());
    }

    #[test]
    fn mismatched_ids_are_rejected() {
        let result = replicate(&[fig_with("a", &[1.0]), fig_with("b", &[1.0])]);
        assert!(result.is_err());
    }

    #[test]
    fn missing_series_aggregates_over_present_seeds() {
        let mut runs: Vec<FigureResult> = [1.0, 2.0, 3.0]
            .iter()
            .map(|&s| fig_with("f", &[s]))
            .collect();
        runs[1].series.push(SeriesData {
            name: "B".into(),
            points: vec![(0.0, 9.0)],
        });
        let rep = replicate(&runs).unwrap();
        let b = rep.series_named("B").unwrap();
        assert_eq!(b.points, vec![(0.0, 9.0, 0.0)]);
    }

    #[test]
    fn renderers_include_means_and_cis() {
        let rep = replicate(&[fig_with("f", &[1.0]), fig_with("f", &[2.0])]).unwrap();
        let md = render_replicated_markdown(&rep);
        assert!(md.contains("2 seeds"));
        assert!(md.contains("±"));
        let csv = render_replicated_csv(&rep);
        assert!(csv.lines().next().unwrap().contains("A mean,A ci95"));
        assert_eq!(csv.lines().count(), 2);
    }
}
