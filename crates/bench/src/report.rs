//! Plain-text renderings of the paper's evaluation, one per [`Section`]:
//! the headline claims, Tables 1–4 and Figures 2–5.
//!
//! The `report` binary prints them from one study run. EXPERIMENTS.md
//! carries each one between `<!-- report:NAME -->` and `<!-- /report -->`
//! markers ([`blocks`]), which the tests compare with a fresh render.

use crate::claims::{published, Metric, PAPER_CLAIMS};
use crate::plot::{self, Series};
use ramp_core::mechanisms::{MechanismKind, MechanismSet};
use ramp_core::{AppNodeResult, NodeId, OperatingPoint, RampError, StudyResults, TechNode};
use ramp_microarch::MachineConfig;
use ramp_trace::{spec, Suite};
use ramp_units::{ActivityFactor, Kelvin, Volts};
use std::fmt::Write as _;
use Metric::{FitRange, FitRangeShare, Growth, MarginOverAverage, MarginOverMax};
use Metric::{MaxTemperatureRise, MechanismGrowth};
use NodeId::{N65HighV, N65LowV, N180};
use Suite::{Fp, Int};

/// `writeln!` into a `String`, which cannot fail.
macro_rules! emit {
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

/// One section of the report. Its name, on the command line and in the
/// EXPERIMENTS.md markers, is the variant's name in lowercase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Study summary, headline growth and the table of paper claims.
    Headlines,
    /// Table 1: each mechanism's sensitivity (needs no study).
    Table1,
    /// Table 2: the base machine (needs no study).
    Table2,
    /// Table 3: per-benchmark IPC and power at 180 nm.
    Table3,
    /// Table 4: scaled parameters with the simulated power columns.
    Table4,
    /// Figure 2: max structure temperature per app and node.
    Fig2,
    /// Figure 3: total FIT per app and node.
    Fig3,
    /// Figure 4: suite-average FIT by mechanism.
    Fig4,
    /// Figure 5: per-mechanism FIT per app and node.
    Fig5,
}

impl Section {
    /// Every section, in report order.
    pub const ALL: [Section; 9] = [
        Section::Headlines,
        Section::Table1,
        Section::Table2,
        Section::Table3,
        Section::Table4,
        Section::Fig2,
        Section::Fig3,
        Section::Fig4,
        Section::Fig5,
    ];

    /// `headlines`, `table1` … `fig5`.
    #[must_use]
    pub fn name(self) -> String {
        format!("{self:?}").to_lowercase()
    }

    /// The section called `name`, if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Section> {
        Section::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether the section reads study results.
    #[must_use]
    pub fn needs_study(self) -> bool {
        !matches!(self, Section::Table1 | Section::Table2)
    }

    /// Renders the section; `plot` adds ASCII charts to Figures 2, 3 and 5.
    ///
    /// # Errors
    ///
    /// [`RampError::MissingResult`] when the section needs a study and
    /// `results` is `None`, or the results lack a run it prints.
    pub fn render(self, results: Option<&StudyResults>, plot: bool) -> Result<String, RampError> {
        let study = || results.ok_or_else(|| RampError::MissingResult("study run".into()));
        match self {
            Section::Headlines => headlines(study()?),
            Section::Table1 => Ok(table1()),
            Section::Table2 => Ok(table2()),
            Section::Table3 => table3(study()?),
            Section::Table4 => table4(study()?),
            Section::Fig2 => fig2(study()?, plot),
            Section::Fig3 => fig3(study()?, plot),
            Section::Fig4 => Ok(fig4(study()?)),
            Section::Fig5 => fig5(study()?, plot),
        }
    }
}

fn app<'r>(r: &'r StudyResults, name: &str, node: NodeId) -> Result<&'r AppNodeResult, RampError> {
    r.result(name, node)
        .ok_or_else(|| RampError::MissingResult(format!("run of {name} at {}", node.label())))
}

fn worst_fit(r: &StudyResults, node: NodeId, m: Option<MechanismKind>) -> Result<f64, RampError> {
    let wc = r
        .worst_case(node)
        .ok_or_else(|| RampError::MissingResult(format!("worst case at {}", node.label())))?;
    Ok(m.map_or(wc.fit.total(), |m| wc.fit.mechanism_total(m))
        .value())
}

/// The measured value of each metric, in order.
fn measure<const N: usize>(r: &StudyResults, metrics: [Metric; N]) -> Result<[f64; N], RampError> {
    let mut values = [0.0; N];
    for (v, m) in values.iter_mut().zip(metrics) {
        *v = m.measure(r)?;
    }
    Ok(values)
}

/// The paper's growth of each mechanism to 65 nm (0.9 V), 65 nm (1.0 V),
/// each as SpecFP/SpecInt.
fn paper_mechanism_growth() -> String {
    let pair = |m, n| {
        let [fp, int] = [Fp, Int].map(|s| published(MechanismGrowth(m, s, n)));
        format!("{fp:+.0}/{int:.0}")
    };
    let each =
        MechanismKind::ALL.map(|m| format!("{m} {}, {}", pair(m, N65LowV), pair(m, N65HighV)));
    each.join(" | ")
}

/// Study summary, each suite's and mechanism's growth to 65 nm, each
/// node's temperatures and margins, then every row of the claims table
/// with its measured value and verdict. Errors as [`Section::render`].
pub fn headlines(r: &StudyResults) -> Result<String, RampError> {
    let mut out = r.summary();
    out.push_str("\n--- headline vs paper ---\n");
    let [fp_low, int_low, fp_high, int_high] = [
        (Fp, N65LowV),
        (Int, N65LowV),
        (Fp, N65HighV),
        (Int, N65HighV),
    ]
    .map(|(s, n)| published(Growth(s, n)));
    let paper =
        format!("(paper: 0.9V {fp_low:+.0}/{int_low:+.0}, 1.0V {fp_high:+.0}/{int_high:+.0})");
    for (volts, node) in [("0.9V", N65LowV), ("1.0V", N65HighV)] {
        for suite in [Fp, Int] {
            let [growth] = measure(r, [Growth(suite, node)])?;
            emit!(
                out,
                "65nm({volts}) {suite}: total FIT {growth:+.0}%  {paper}"
            );
        }
    }
    out.push('\n');
    for m in MechanismKind::ALL {
        for suite in [Fp, Int] {
            let [low, high] = measure(
                r,
                [
                    MechanismGrowth(m, suite, N65LowV),
                    MechanismGrowth(m, suite, N65HighV),
                ],
            )?;
            emit!(out, "{m:<4} {suite}: 0.9V {low:+.0}%, 1.0V {high:+.0}%");
        }
    }
    emit!(out, "(paper: {})\n", paper_mechanism_growth());
    for n in NodeId::ALL {
        let [fp, int] = [Fp, Int].map(|s| r.average_max_temperature(s, n).value());
        let (sink, range) = (r.average_sink_temperature(n).value(), r.fit_range(n));
        let [vs_max, vs_avg, share] = measure(
            r,
            [MarginOverMax(n), MarginOverAverage(n), FitRangeShare(n)],
        )?;
        emit!(
            out,
            "{:<12} avg max temp FP {fp:.1} INT {int:.1}  sink {sink:.1}  wc-margins: vs-max {vs_max:.0}% vs-avg {vs_avg:.0}%  range {range:.0} FIT ({share:.0}% of avg)",
            n.label()
        );
    }
    let span = |m: fn(NodeId) -> Metric| {
        format!("{:.0}%→{:.0}%", published(m(N180)), published(m(N65HighV)))
    };
    let rise = published(MaxTemperatureRise(Fp));
    let (vs_max, vs_avg, share) = (
        span(MarginOverMax),
        span(MarginOverAverage),
        span(FitRangeShare),
    );
    emit!(out, "(paper: +{rise:.0}K max temp 180→65(1.0V); wc-vs-max {vs_max}; wc-vs-avg {vs_avg}; range {share} of avg)");

    out.push_str("\n--- paper claims ---\n");
    emit!(
        out,
        "{:<36} {:>8} {:>9}  {:<18} verdict",
        "claim",
        "paper",
        "measured",
        "accepted band"
    );
    for c in PAPER_CLAIMS {
        let [measured] = measure(r, [c.metric])?;
        let band = format!("({}, {})", number(c.band.0), number(c.band.1));
        let (metric, paper, verdict) = (
            format!("{:?}", c.metric),
            number(c.published),
            c.verdict(measured),
        );
        emit!(
            out,
            "{metric:<36} {paper:>8} {:>9}  {band:<18} {verdict}",
            number(measured)
        );
    }
    Ok(out)
}

/// A claims-table number: whole from 100 up, two decimals below.
fn number(v: f64) -> String {
    format!("{v:.*}", if v.abs() >= 100.0 { 0 } else { 2 })
}

/// Table 1, quantified: each mechanism's rate change per +10 K, per
/// +0.1 V and from its feature-size terms alone (65 nm over 180 nm).
#[must_use]
pub fn table1() -> String {
    let models = MechanismSet::default();
    let (n180, n65) = (
        models.prepare(&TechNode::reference()),
        models.prepare(&TechNode::get(N65HighV)),
    );
    let (t0, v0) = (356.0, 1.3);
    let op = |t, v| {
        let volts = Volts::new(v).expect("table voltages are positive constants");
        OperatingPoint::new(Kelvin::new_const(t), volts, ActivityFactor::new_const(0.4))
    };
    let sensitivity = |kind| {
        let base = n180.rate(kind, &op(t0, v0));
        let scaled = n65.rate(kind, &op(t0, v0));
        [
            n180.rate(kind, &op(t0 + 10.0, v0)),
            n180.rate(kind, &op(t0, v0 + 0.1)),
            scaled,
        ]
        .map(|x| x / base)
    };
    let mut out = format!(
        "Table 1 (quantified): sensitivity of each failure-rate model
at T = {t0} K, V = {v0} V, p = 0.4, 180nm reference.

mech       x per +10K    x per +0.1V   x feature terms*
"
    );
    for kind in MechanismKind::ALL {
        let [hot, volt, scaled] = sensitivity(kind);
        emit!(
            out,
            "{:<6} {hot:>14.3} {volt:>14.3} {scaled:>18.3}",
            kind.label()
        );
    }
    out.push_str(
        "
*feature terms = rate at 65nm (1.0V node parameters) / rate at 180nm,
 holding temperature, voltage, and activity fixed — i.e. the w·h (EM),
 t_ox & gate-area (TDDB) columns of the paper's Table 1. SM and TC
 show 1.0 there, exactly as the paper's empty cells indicate.

Temperature column ordering check (paper: TDDB strongest, then EM/SM, TC gentlest):
",
    );
    let mut by_temperature = MechanismKind::ALL.map(|kind| (kind, sensitivity(kind)[0]));
    by_temperature.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (kind, s) in by_temperature {
        emit!(out, "  {kind}: x{s:.3} per +10K");
    }
    out
}

/// Table 2: the base 180 nm POWER4-like machine, in the paper's layout.
#[must_use]
pub fn table2() -> String {
    let c = MachineConfig::power4_180nm();
    let n = TechNode::reference();
    let (l1d, l1i, l2) = (c.l1d.bytes >> 10, c.l1i.bytes >> 10, c.l2.bytes >> 20);
    format!(
        "Table 2. Base 180nm POWER4-like processor.

Technology Parameters
  Process technology             {}
  Vdd                            {}
  Processor frequency            {}
  Processor core size            {} (9mm x 9mm), excluding L2
  Leakage power density at 383K  {}

Base Processor Parameters
  Fetch rate                     {} per cycle
  Retirement rate                1 dispatch-group (={}, max)
  Functional units               {} Int, {} FP, {} Load-Store, {} Branch, {} LCR
  Integer FU latencies           {}/{}/{} add/multiply/divide
  FP FU latencies                {} default, {} divide
  Reorder buffer size            {}
  Register file size             {} integer, {} FP
  Memory queue size              {} entries

Base Memory Hierarchy Parameters
  L1 D/L1 I/L2 unified           {l1d}KB/{l1i}KB/{l2}MB
Base Contentionless Memory Latencies
  L1 D/L2/Main memory            {}/{}/{} cycles
",
        n.feature,
        n.vdd,
        n.frequency,
        n.core_area(),
        n.leakage_density,
        c.fetch_width,
        c.retire_width,
        c.int_units,
        c.fp_units,
        c.ls_units,
        c.branch_units,
        c.cr_units,
        c.int_alu_latency,
        c.int_mul_latency,
        c.int_div_latency,
        c.fp_latency,
        c.fp_div_latency,
        c.rob_entries,
        c.int_regs,
        c.fp_regs,
        c.mem_queue,
        c.l1d.hit_latency,
        c.l2.hit_latency,
        c.memory_latency,
    )
}

/// Table 3: per-benchmark IPC and average total power at 180 nm, next to
/// the paper's values.
pub fn table3(r: &StudyResults) -> Result<String, RampError> {
    let mut out = String::from(
        "Table 3. Average IPC and power for the 180nm base processor.

SpecFP        IPC    pub |  power(W)       pub    SpecInt       IPC    pub |  power(W)       pub
",
    );
    // Name, measured and published IPC, measured and published power.
    let half = |name: &str, [ipc, ipc_pub, w, w_pub]: [f64; 4]| {
        format!("{name:<10} {ipc:>6.2} {ipc_pub:>6.2} | {w:>9.2} {w_pub:>9.2}")
    };
    let row = |p: &ramp_trace::BenchmarkProfile| -> Result<String, RampError> {
        let a = app(r, &p.name, N180)?;
        Ok(half(
            &p.name,
            [
                a.ipc,
                p.published.ipc,
                a.avg_total_power().value(),
                p.published.power_w,
            ],
        ))
    };
    let average = |s| -> Result<String, RampError> {
        let [ipc, w] = measure(r, [Metric::Ipc(s), Metric::SuitePower(s)])?;
        Ok(half(
            "Average",
            [
                ipc,
                published(Metric::Ipc(s)),
                w,
                published(Metric::SuitePower(s)),
            ],
        ))
    };
    for (f, i) in spec::suite_profiles(Fp)
        .iter()
        .zip(&spec::suite_profiles(Int))
    {
        emit!(out, "{}    {}", row(f)?, row(i)?);
    }
    emit!(out, "{}    {}\n", average(Fp)?, average(Int)?);
    out.push_str("(`pub` columns are the paper's Table-3 values.)\n");
    Ok(out)
}

/// Table 4: the scaled technology parameters with the simulated average
/// power and relative power density.
pub fn table4(r: &StudyResults) -> Result<String, RampError> {
    let mut out = String::from(
        "Table 4. Scaled parameters used (last two columns simulated).

Tech gen       Vdd  f GHz  RelCap RelArea  tox Å J mA/µm² leak W/mm² avg power W   rel dens
",
    );
    for id in NodeId::ALL {
        let n = TechNode::get(id);
        let [power, density] = measure(r, [Metric::NodePower(id), Metric::RelativeDensity(id)])?;
        let (vdd, f, cap, area) = (
            n.vdd.value(),
            n.frequency.value(),
            n.capacitance_rel,
            n.area_rel,
        );
        let (tox, j, leak) = (n.tox.value(), n.j_max.value(), n.leakage_density.value());
        emit!(
            out,
            "{:<12} {vdd:>5.1} {f:>6.2} {cap:>7.2} {area:>7.2} {tox:>6.0} {j:>8.1} {leak:>9.2} {power:>11.1} {density:>10.2}",
            id.label()
        );
    }
    let paper = |m: fn(NodeId) -> Metric, digits| {
        NodeId::ALL.map(|n| format!("{:.digits$}", published(m(n))))
    };
    emit!(
        out,
        "\npaper avg power:   {} W",
        paper(Metric::NodePower, 1).join(" / ")
    );
    emit!(
        out,
        "paper rel density:  {}",
        paper(Metric::RelativeDensity, 2).join(" / ")
    );
    Ok(out)
}

/// A panel's last row: its label and its value at each node.
type Footer<'a> = (&'a str, &'a dyn Fn(NodeId) -> Result<f64, RampError>);

/// One app × node panel of Figures 2, 3 and 5: `title`, a row per
/// application of `suite` holding `cell` of its run at each node with
/// `digits` decimals, the `footer` row, `note`, a blank line and, with
/// `plot`, a chart of the rows.
fn panel(
    out: &mut String,
    r: &StudyResults,
    (title, suite, digits): (&str, Suite, usize),
    cell: impl Fn(&AppNodeResult) -> f64,
    (footer, footer_cell): Footer,
    note: &str,
    plot: bool,
) -> Result<(), RampError> {
    let mut rows = Vec::new();
    for p in spec::suite_profiles(suite) {
        let values = NodeId::ALL
            .iter()
            .map(|&n| app(r, &p.name, n).map(&cell))
            .collect::<Result<_, _>>()?;
        rows.push(Series {
            label: p.name.clone(),
            values,
        });
    }
    let values = NodeId::ALL
        .iter()
        .map(|&n| footer_cell(n))
        .collect::<Result<_, _>>()?;
    rows.push(Series {
        label: footer.into(),
        values,
    });
    let labels = NodeId::ALL.map(NodeId::label);
    emit!(
        out,
        "{title}\n{:<10} {}",
        "app",
        labels.map(|l| format!("{l:>12}")).join(" ")
    );
    for row in &rows {
        let cells: Vec<String> = row
            .values
            .iter()
            .map(|v| format!("{v:>12.digits$}"))
            .collect();
        emit!(out, "{:<10} {}", row.label, cells.join(" "));
    }
    emit!(out, "{note}");
    if plot {
        emit!(out, "{}", plot::render(&labels, &rows, 16));
    }
    Ok(())
}

/// Figure 2: the maximum temperature of any structure per application and
/// node, the average heat-sink temperature, and the 180 nm → 65 nm
/// (1.0 V) rise.
pub fn fig2(r: &StudyResults, plot: bool) -> Result<String, RampError> {
    let mut out = String::new();
    let sink = |n| Ok(r.average_sink_temperature(n).value());
    for (name, suite) in [("(a) SpecFP", Fp), ("(b) SpecInt", Int)] {
        let title = format!("Figure 2 {name}: max structure temperature (K)");
        let cell = |a: &AppNodeResult| a.max_temperature().value();
        panel(
            &mut out,
            r,
            (&title, suite, 1),
            cell,
            ("heat sink", &sink),
            "",
            plot,
        )?;
    }
    let [fp, int] = measure(r, [MaxTemperatureRise(Fp), MaxTemperatureRise(Int)])?;
    let paper = published(MaxTemperatureRise(Fp));
    emit!(out, "hottest-structure rise 180nm -> 65nm (1.0V): SpecFP +{fp:.1} K, SpecInt +{int:.1} K (paper: ~+{paper:.0} K average)");
    Ok(out)
}

/// Figure 3: total FIT per application and node with the worst-case
/// (`max`) row, and the workload dependence of §5.2.
pub fn fig3(r: &StudyResults, plot: bool) -> Result<String, RampError> {
    let mut out = String::new();
    let max = |n| worst_fit(r, n, None);
    for (name, suite) in [("(a) SpecFP", Fp), ("(b) SpecInt", Int)] {
        let title = format!("Figure 3 {name}: total processor FIT");
        panel(
            &mut out,
            r,
            (&title, suite, 0),
            |a| a.fit.total().value(),
            ("max", &max),
            "",
            plot,
        )?;
    }
    out.push_str("workload dependence (paper §5.2):\n");
    for n in [N180, N65LowV, N65HighV] {
        let [vs_max, vs_avg, share] = measure(
            r,
            [MarginOverMax(n), MarginOverAverage(n), FitRangeShare(n)],
        )?;
        let range = r.fit_range(n);
        emit!(
            out,
            "  {:<12} worst-case vs hottest app {vs_max:+.0}%  vs average {vs_avg:+.0}%  app range {range:.0} FIT ({share:.0}% of average)",
            n.label()
        );
    }
    let [max_from, max_to, avg_from, avg_to] = [
        MarginOverMax(N180),
        MarginOverMax(N65HighV),
        MarginOverAverage(N180),
        MarginOverAverage(N65HighV),
    ]
    .map(published);
    let [range_from, share_from, range_to, share_to] = [
        FitRange(N180),
        FitRangeShare(N180),
        FitRange(N65HighV),
        FitRangeShare(N65HighV),
    ]
    .map(published);
    emit!(
        out,
        "(paper: margins {max_from:.0}%→{max_to:.0}% and {avg_from:.0}%→{avg_to:.0}%; range {range_from:.0} FIT ({share_from:.0}%) → {range_to:.0} FIT ({share_to:.0}%))"
    );
    Ok(out)
}

/// Figure 4: each suite's average FIT per mechanism and node, with the
/// total and its growth over 180 nm.
#[must_use]
pub fn fig4(r: &StudyResults) -> String {
    let mut out = String::new();
    for (name, suite) in [("(a) SpecFP", Fp), ("(b) SpecInt", Int)] {
        emit!(out, "Figure 4 {name}: suite-average FIT by mechanism");
        out.push_str("node               EM       SM     TDDB       TC    total   Δ/180\n");
        let base = r.average_total_fit(suite, N180);
        for n in NodeId::ALL {
            let fits = MechanismKind::ALL
                .map(|m| format!("{:>8.0}", r.average_mechanism_fit(suite, n, m).value()));
            let total = r.average_total_fit(suite, n);
            let growth = total.percent_increase_over(base);
            emit!(
                out,
                "{:<12} {} {:>8.0}  {growth:>+5.0}%",
                n.label(),
                fits.join(" "),
                total.value()
            );
        }
        out.push('\n');
    }
    let [fp_high, int_high, fp_low, int_low] = [
        (Fp, N65HighV),
        (Int, N65HighV),
        (Fp, N65LowV),
        (Int, N65LowV),
    ]
    .map(|(s, n)| published(Growth(s, n)));
    emit!(out, "paper: total FIT rises {fp_high:+.0}% (SpecFP) / {int_high:+.0}% (SpecInt) from 180nm to 65nm (1.0V),");
    emit!(out, "       {fp_low:+.0}% / {int_low:+.0}% to 65nm (0.9V); SpecInt sits above SpecFP at every scaled node.");
    out
}

/// Figure 5: each mechanism's FIT per application and node with the
/// worst-case (`max`) row and the suite-average growth: the paper's eight
/// panels.
pub fn fig5(r: &StudyResults, plot: bool) -> Result<String, RampError> {
    let mut out = String::new();
    for m in MechanismKind::ALL {
        let max = |n| worst_fit(r, n, Some(m));
        for (name, suite) in [("SpecFP", Fp), ("SpecInt", Int)] {
            let [low, high] = measure(
                r,
                [
                    MechanismGrowth(m, suite, N65LowV),
                    MechanismGrowth(m, suite, N65HighV),
                ],
            )?;
            let note = format!(
                "{:<10} 180→65nm: {low:+.0}% (0.9V), {high:+.0}% (1.0V)\n",
                "avg"
            );
            let title = format!("Figure 5: {m} FIT, {name}");
            let cell = |a: &AppNodeResult| a.fit.mechanism_total(m).value();
            panel(
                &mut out,
                r,
                (&title, suite, 0),
                cell,
                ("max", &max),
                &note,
                plot,
            )?;
        }
    }
    emit!(
        out,
        "paper (FP/INT; 0.9V, 1.0V): {}",
        paper_mechanism_growth()
    );
    Ok(out)
}

/// The generated blocks of a markdown document: for each line
/// `<!-- report:NAME -->`, the section and the text of the
/// ```` ```text ```` fence between it and the next `<!-- /report -->`.
///
/// # Errors
///
/// A message naming the first unknown section or malformed block.
pub fn blocks(markdown: &str) -> Result<Vec<(Section, String)>, String> {
    let (mut found, doc) = (Vec::new(), format!("\n{markdown}"));
    let mut rest = doc.as_str();
    while let Some(start) = rest.find("\n<!-- report:") {
        let (name, tail) = rest[start + 13..]
            .split_once(" -->\n")
            .ok_or("unterminated report marker")?;
        let section = Section::from_name(name).ok_or(format!("unknown report section `{name}`"))?;
        let (block, tail) = tail
            .split_once("<!-- /report -->")
            .ok_or(format!("`{name}` has no end"))?;
        let body = block
            .strip_prefix("```text\n")
            .and_then(|b| b.strip_suffix("```\n"));
        found.push((
            section,
            body.ok_or(format!("`{name}` is not one text fence"))?
                .to_string(),
        ));
        rest = tail;
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_round_trip_and_need_a_study_unless_tables_1_and_2() {
        for s in Section::ALL {
            assert_eq!(Section::from_name(&s.name()), Some(s));
            assert_eq!(s.render(None, false).is_ok(), !s.needs_study(), "{s:?}");
        }
        assert_eq!(
            (Section::Fig5.name().as_str(), Section::from_name("study")),
            ("fig5", None)
        );
    }

    #[test]
    fn blocks_are_text_fences_between_markers() {
        let doc =
            "<!-- report:table2 -->\n```text\na\nb\n```\n<!-- /report -->\n`<!-- report:x -->`\n";
        assert_eq!(
            blocks(doc).unwrap(),
            [(Section::Table2, "a\nb\n".to_string())]
        );
        assert!(blocks("<!-- report:fig9 -->\n```text\n```\n<!-- /report -->\n").is_err());
        assert!(blocks("<!-- report:fig4 -->\n```text\n```\n").is_err());
        assert!(blocks("<!-- report:fig4 -->\nbare\n<!-- /report -->\n").is_err());
        assert!(!paper_mechanism_growth().contains("NaN"));
    }
}
