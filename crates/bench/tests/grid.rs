//! The evaluation as one sweep, held at a fixed small scale: `--scale 16384
//! --seed 42 --workloads WG,WK,LJ`, all five apps (15 cells of 53 to 295
//! vertices; the sweep runs twice, ~9 s in the debug profile, two thirds of
//! it PageRank-Delta — the Facebook and Twitter columns would add 5 s and
//! 16 s). The verdict's simulator-only rows are pinned as literals the way
//! `tests/cycle_schedule.rs` pins counts and checked against the tables
//! printed above them, every simulated table is pinned as one FNV-1a fold,
//! and the sweep is checked to run each engine once per cell and to repeat
//! byte for byte.

use std::sync::OnceLock;

use gp_bench::figures::{self, Table};
use gp_bench::{engine_runs, evaluate, Grid, HarnessConfig};
use gp_graph::workloads::Workload;

struct Sweep {
    grid: Grid,
    /// Engine runs the first sweep took: software, GraphPulse, Graphicionado.
    runs: [u64; 3],
    /// The simulator-only tables of a second sweep, rendered.
    again: String,
}

/// Both sweeps happen inside the one initializer, so no other test's engine
/// runs land between the two counter reads.
fn sweep() -> &'static Sweep {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let cfg = HarnessConfig {
            scale: 16384,
            seed: 42,
            workloads: vec![
                Workload::WebGoogle,
                Workload::Wikipedia,
                Workload::LiveJournal,
            ],
            threads: 1,
            ..HarnessConfig::default()
        };
        let before = engine_runs();
        let grid = evaluate(&cfg);
        let after = engine_runs();
        Sweep {
            grid,
            runs: std::array::from_fn(|i| after[i] - before[i]),
            again: render(&figures::simulated(&evaluate(&cfg))),
        }
    })
}

fn render(tables: &[Table]) -> String {
    let mut out = String::new();
    for t in tables {
        out += &format!("{} [{}]\n{}\n", t.title, t.csv, t.header.join(","));
        for row in &t.rows {
            out += &format!("{}\n", row.join(","));
        }
        out += &format!("{}\n", t.notes.join("\n"));
    }
    out
}

/// FNV-1a over the rendered tables' bytes.
fn fold(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The named column as numbers, unit suffixes (`x`, `%`, `ms`) dropped;
/// `engine` keeps only that engine's rows of Fig. 12.
fn column(t: &Table, name: &str, engine: Option<&str>) -> Vec<f64> {
    let i = t.header.iter().position(|h| h == name).expect(name);
    t.rows
        .iter()
        .filter(|r| engine.is_none_or(|e| r[2] == e))
        .map(|r| {
            let digits = r[i].trim_end_matches(|c: char| !c.is_ascii_digit());
            digits
                .parse()
                .unwrap_or_else(|_| panic!("{name}: {}", r[i]))
        })
        .collect()
}

/// `(won, cells)` from a verdict row's "this run" text, which leads with it.
fn fraction(row: &[String]) -> (usize, usize) {
    let lead = row[2].split(' ').next().unwrap();
    let (won, cells) = lead.split_once('/').expect(&row[2]);
    (won.parse().unwrap(), cells.parse().unwrap())
}

/// Asserts the verdict's count is one the printed cells allow: at least the
/// cells where `a` beats `b` as printed, at most those plus the printed ties
/// (the verdict compares unrounded values).
fn assert_count_agrees(row: &[String], a: &[f64], b: &[f64], beats: fn(f64, f64) -> bool) {
    let (won, cells) = fraction(row);
    assert_eq!(cells, a.len(), "{row:?}");
    let clear = a.iter().zip(b).filter(|(a, b)| beats(**a, **b)).count();
    let ties = a.iter().zip(b).filter(|(a, b)| a == b).count();
    assert!(
        (clear..=clear + ties).contains(&won),
        "{row:?}: the table above shows {clear} clear wins and {ties} ties"
    );
}

#[test]
fn each_engine_runs_once_per_cell() {
    let s = sweep();
    assert_eq!(s.grid.cells.len(), 15);
    // GraphPulse runs twice a cell: optimized and baseline.
    assert_eq!(s.runs, [15, 30, 15]);
}

#[test]
fn two_sweeps_give_byte_identical_simulated_tables() {
    let s = sweep();
    assert_eq!(render(&figures::simulated(&s.grid)), s.again);
}

/// Every simulated number of the grid — Figs. 4, 8, 10 (simulated half),
/// 11–14, Table V and the verdict — folded to one hash, the in-process twin
/// of the CI diff against `figures/smoke/`: a change meant to keep the
/// simulation leaves it alone, one meant to move it re-pins it.
#[test]
fn simulated_tables_are_pinned() {
    let text = render(&figures::simulated(&sweep().grid));
    assert_eq!(
        (text.lines().count(), fold(&text)),
        (309, 12324080665583597776),
        "simulated tables moved:\n{text}"
    );
}

#[test]
fn verdict_rows_are_pinned() {
    let verdict = figures::verdict(&sweep().grid);
    let rows: Vec<(&str, &str)> = verdict
        .rows
        .iter()
        .map(|r| (r[2].as_str(), r[3].as_str()))
        .collect();
    assert_eq!(
        rows,
        [
            ("96.9% on PRD/LJ", "reproduced"),
            (
                "0.0% of events carry lookahead; deepest bucket 0",
                "not reproduced"
            ),
            ("0/15 cells; geomean 0.44x", "not reproduced"),
            ("15/15 cells; geomean 1.13x", "reproduced"),
            ("15/15 cells below 1.0; geomean 0.47", "shape only"),
            (
                "1/15 cells above Graphicionado; 0.50-0.84 of bytes used",
                "not reproduced"
            ),
            (
                "2/15 cells with vertex-memory wait below edge-memory time",
                "not reproduced"
            ),
            (
                "0/15 cells with edge reads the largest state; mean 3%",
                "not reproduced"
            ),
            ("99.2% of 7657.2 mW on PRD/LJ", "reproduced"),
        ]
    );
}

#[test]
fn verdict_agrees_with_the_tables_above_it() {
    let grid = &sweep().grid;
    let verdict = figures::verdict(grid).rows;
    let [coalescing, _lookahead, graphicionado, base, traffic, utilization, stages, generators, power] =
        &verdict[..]
    else {
        panic!("verdict rows: {verdict:?}");
    };
    let ones = vec![1.0; grid.cells.len()];
    let gt = |a, b| a > b;
    let lt = |a, b| a < b;

    let fig10 = figures::fig10_simulated(grid);
    let ratio = column(&fig10, "GP/Graphicionado", None);
    assert_count_agrees(graphicionado, &ratio, &ones, gt);
    let (opt, unopt) = (
        column(&fig10, "GP cycles", None),
        column(&fig10, "GP-base cycles", None),
    );
    let (won, _) = fraction(base);
    assert_eq!(won, opt.iter().zip(&unopt).filter(|(o, b)| o <= b).count());
    // Both geomeans under Fig. 10 are the verdict's.
    let geomean = |row: &[String]| row[2].split("geomean ").nth(1).unwrap().to_string();
    assert!(fig10.notes[0].contains(&format!("GP+opt {} Graphicionado", geomean(graphicionado))));
    assert!(fig10.notes[0].contains(&format!("GP+opt {} GP-base", geomean(base))));

    let fig11 = figures::fig11(grid);
    assert_count_agrees(traffic, &column(&fig11, "normalized", None), &ones, lt);
    assert!(fig11.notes[0].ends_with(&format!(": {}", geomean(traffic))));

    let fig12 = figures::fig12(grid);
    let gp = column(&fig12, "utilized", Some("GraphPulse"));
    assert_count_agrees(
        utilization,
        &gp,
        &column(&fig12, "utilized", Some("Graphicionado")),
        gt,
    );
    let (lo, hi) = gp
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &u| (lo.min(u), hi.max(u)));
    assert!(
        utilization[2].contains(&format!("{lo:.2}-{hi:.2} of bytes used")),
        "{utilization:?}"
    );

    let fig13 = figures::fig13(grid);
    assert_count_agrees(
        stages,
        &column(&fig13, "Vtx Mem", None),
        &column(&fig13, "Edge Mem", None),
        lt,
    );

    let fig14 = figures::fig14(grid);
    let rest = ["G:gen", "G:stall", "G:idle"].map(|c| column(&fig14, c, None));
    let largest_other: Vec<f64> = (0..grid.cells.len())
        .map(|i| rest.iter().map(|c| c[i]).fold(0.0, f64::max))
        .collect();
    assert_count_agrees(
        generators,
        &column(&fig14, "G:edge", None),
        &largest_other,
        gt,
    );

    // The PRD/LJ rows quote the notes under Fig. 4 and Table V.
    let rate = coalescing[2].split(" on ").next().unwrap();
    assert!(figures::fig04(grid).notes[1].contains(&format!("({rate} eliminated)")));
    let total = power[2].split(" of ").nth(1).unwrap();
    let total = total.split(" on ").next().unwrap();
    assert!(figures::tab05(grid).notes[0].starts_with(&format!("total: {total},")));
}

#[test]
fn fig12_totals_are_the_byte_weighted_mean_of_the_class_columns() {
    let t = figures::fig12(&sweep().grid);
    assert_eq!(
        &t.header[..5],
        ["app", "graph", "engine", "bytes", "utilized"]
    );
    for row in &t.rows {
        let number = |cell: &String| cell.parse::<f64>().unwrap_or(0.0);
        let (bytes, utilized) = (number(&row[3]), number(&row[4]));
        let classes: Vec<(f64, f64)> = row[5..]
            .chunks(2)
            .map(|c| (number(&c[0]), number(&c[1])))
            .collect();
        assert_eq!(classes.iter().map(|c| c.0).sum::<f64>(), bytes, "{row:?}");
        let weighted = classes.iter().map(|(b, u)| b * u).sum::<f64>() / bytes;
        // Every printed fraction is rounded to two places.
        assert!((weighted - utilized).abs() <= 0.01, "{row:?}: {weighted}");
    }
}
