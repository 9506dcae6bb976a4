//! Every figure and table of the paper's evaluation, and the reproduction
//! verdict, as views of one [`Grid`]. A view reads the cells' reports and
//! formats them; it runs nothing.
//!
//! [`simulated`] tables depend only on the simulators, so they are
//! byte-reproducible for a scale and seed and can be diffed against a
//! record. [`host_time`] tables divide by the software framework's wall
//! clock and are not. Figs. 4 and 8 and Table V read the PRD/LJ cell and
//! come back empty, with a note, from a grid that has none.

use gp_algorithms::App;
use gp_graph::workloads::Workload;
use gp_mem::{MemStats, TrafficClass};

use crate::{print_table_as, Cell, Grid};

/// TDP assumed for the software platform (12-core Xeon, Table III class).
const CPU_WATTS: f64 = 95.0;

/// A printable table: rows under a header, then free-text lines.
pub struct Table {
    /// Heading printed above the table.
    pub title: &'static str,
    /// File stem of the CSV copy under `figures/`.
    pub csv: &'static str,
    /// Column names.
    pub header: Vec<String>,
    /// Formatted cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
    /// Lines printed under the table: totals, geomeans, or why it is empty.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table.
    pub fn new(title: &'static str, csv: &'static str, header: &[&str]) -> Table {
        Table {
            title,
            csv,
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Prints the table and its notes and writes `figures/<csv>.csv` — a
    /// header alone for a table without rows, so a subset run leaves no
    /// CSV of an earlier run behind under that name.
    pub fn print(&self) {
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        print_table_as(self.csv, self.title, &header, &self.rows);
        if !self.notes.is_empty() {
            println!("\n{}", self.notes.join("\n"));
        }
    }
}

/// The tables that depend only on the simulators, in the paper's order,
/// the verdict last.
pub fn simulated(grid: &Grid) -> Vec<Table> {
    vec![
        fig04(grid),
        fig08(grid),
        fig10_simulated(grid),
        fig11(grid),
        fig12(grid),
        fig13(grid),
        fig14(grid),
        tab05(grid),
        verdict(grid),
    ]
}

/// The tables that divide by the software framework's wall clock.
pub fn host_time(grid: &Grid) -> Vec<Table> {
    vec![fig10_host(grid), verdict_host(grid)]
}

fn prd_lj(grid: &Grid) -> Option<&Cell> {
    grid.cells
        .iter()
        .find(|c| c.app == App::PageRank && c.workload == Workload::LiveJournal)
}

/// The PRD/LJ cell for a table that reads it, or `None` with the reason
/// noted under the table.
fn prd_lj_or_note<'g>(grid: &'g Grid, t: &mut Table) -> Option<&'g Cell> {
    let cell = prd_lj(grid);
    if cell.is_none() {
        let why = "skipped: --apps / --workloads exclude the PRD/LJ cell this table reads";
        t.notes.push(why.into());
    }
    cell
}

/// One row per cell: app, graph, then `columns(cell)`.
fn per_cell_table(
    grid: &Grid,
    title: &'static str,
    csv: &'static str,
    header: &[&str],
    columns: impl Fn(&Cell) -> Vec<String>,
) -> Table {
    let mut t = Table::new(title, csv, &[&["app", "graph"], header].concat());
    t.rows = grid.cells.iter().map(|c| labelled(c, columns(c))).collect();
    t
}

fn labelled(cell: &Cell, columns: Vec<String>) -> Vec<String> {
    let mut row = vec![cell.app.label().to_string(), cell.workload.abbrev().into()];
    row.extend(columns);
    row
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (log_sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    (log_sum / f64::from(n.max(1))).exp()
}

fn range(xs: impl Iterator<Item = f64>) -> (f64, f64) {
    xs.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
        (lo.min(x), hi.max(x))
    })
}

/// GraphPulse's simulated time into Graphicionado's: above 1 GraphPulse wins.
fn over_graphicionado(c: &Cell) -> f64 {
    c.hw.seconds / c.opt.seconds.max(1e-12)
}

fn over_base(c: &Cell) -> f64 {
    c.base.seconds / c.opt.seconds.max(1e-12)
}

/// Software wall clock over the simulated time of GP+opt, GP-base and
/// Graphicionado.
fn over_software(c: &Cell) -> [f64; 3] {
    [c.opt.seconds, c.base.seconds, c.hw.seconds].map(|s| c.sw_secs / s.max(1e-12))
}

/// GraphPulse's off-chip accesses as a fraction of Graphicionado's.
fn accesses_normalized(c: &Cell) -> f64 {
    c.opt.memory.total_accesses() as f64 / c.hw.memory.total_accesses().max(1) as f64
}

/// Share of generator-stream time spent reading edges.
fn edge_read_share(c: &Cell) -> f64 {
    c.opt.gen_timeline.fractions()[0].2
}

/// Fig. 4: events produced per round against those left after coalescing.
pub fn fig04(grid: &Grid) -> Table {
    let mut t = Table::new(
        "Fig. 4 — events produced vs. remaining after coalescing, per round (PRD/LJ)",
        "fig04-coalescing",
        &["round", "produced", "remaining", "eliminated"],
    );
    let Some(c) = prd_lj_or_note(grid, &mut t) else {
        return t;
    };
    let eliminated = |produced: u64, remaining: u64| match produced {
        0 => "-".to_string(),
        p => format!("{:.1}%", 100.0 * (1.0 - remaining as f64 / p as f64)),
    };
    for r in &c.opt.rounds_log {
        let mut row = Vec::from([r.round, r.produced, r.remaining].map(|n| n.to_string()));
        row.push(eliminated(r.produced, r.remaining));
        t.rows.push(row);
    }
    t.notes = vec![
        format!("graph: {} vertices, {} edges", c.vertices, c.edges),
        format!(
            "totals: generated {} | processed {} | coalesced away {} ({:.1}% eliminated)",
            c.opt.events_generated,
            c.opt.events_processed,
            c.opt.events_coalesced,
            100.0 * c.opt.coalesce_rate()
        ),
    ];
    t
}

/// Fig. 8: events drained per round by lookahead bucket.
pub fn fig08(grid: &Grid) -> Table {
    let mut t = Table::new(
        "Fig. 8 — events drained per round by lookahead bucket (PRD/LJ)",
        "fig08-lookahead",
        &["round", "0", "<100", "<200", "<300", "<400", ">400"],
    );
    let Some(c) = prd_lj_or_note(grid, &mut t) else {
        return t;
    };
    for r in &c.opt.rounds_log {
        let buckets = r.lookahead.rows();
        let counts = [r.round].into_iter().chain(buckets.iter().map(|b| b.1));
        t.rows.push(counts.map(|n| n.to_string()).collect());
    }
    let total = c.opt.total_lookahead();
    let nonzero = total.total() - total.zero;
    t.notes = vec![format!(
        "totals: {} events, {} with nonzero lookahead ({:.1}%)",
        total.total(),
        nonzero,
        100.0 * nonzero as f64 / total.total().max(1) as f64
    )];
    t
}

/// Fig. 10, the simulated half: each engine's simulated run, GraphPulse
/// against Graphicionado computed from the two simulated times, and the
/// share of GraphPulse's events that coalescing removed.
pub fn fig10_simulated(grid: &Grid) -> Table {
    let mut t = per_cell_table(
        grid,
        "Fig. 10 — simulated runs, GraphPulse against Graphicionado",
        "fig10-simulated",
        &[
            "GP time",
            "GP cycles",
            "GP-base cycles",
            "Graphicionado cycles",
            "GP/Graphicionado",
            "coalesced",
        ],
        |c| {
            vec![
                format!("{:.2}ms", c.opt.seconds * 1e3),
                c.opt.cycles.to_string(),
                c.base.cycles.to_string(),
                c.hw.cycles.to_string(),
                format!("{:.1}x", over_graphicionado(c)),
                format!("{:.0}%", 100.0 * c.opt.coalesce_rate()),
            ]
        },
    );
    t.notes = vec![format!(
        "geomeans: GP+opt {:.2}x Graphicionado | GP+opt {:.2}x GP-base",
        geomean(grid.cells.iter().map(over_graphicionado)),
        geomean(grid.cells.iter().map(over_base))
    )];
    t
}

/// Fig. 10, the host-time half: measured software wall clock over each
/// engine's simulated time, how the paper sets a real CPU against a
/// simulated accelerator.
pub fn fig10_host(grid: &Grid) -> Table {
    let mut t = per_cell_table(
        grid,
        "Fig. 10 — speedup over the software framework (host time)",
        "fig10-speedup-host",
        &["sw time", "GP+opt", "GP-base", "Graphicionado"],
        |c| {
            let mut row = vec![format!("{:.1}ms", c.sw_secs * 1e3)];
            row.extend(over_software(c).iter().map(|x| format!("{x:.1}x")));
            row
        },
    );
    let [opt, base, hw] =
        [0, 1, 2].map(|i| geomean(grid.cells.iter().map(|c| over_software(c)[i])));
    t.notes = vec![format!(
        "geomean speedups: GP+opt {opt:.1}x | GP-base {base:.1}x | Graphicionado {hw:.1}x"
    )];
    t
}

/// Fig. 11: off-chip accesses, GraphPulse normalized to Graphicionado.
pub fn fig11(grid: &Grid) -> Table {
    let mut t = per_cell_table(
        grid,
        "Fig. 11 — off-chip accesses, GraphPulse normalized to Graphicionado",
        "fig11-offchip",
        &["GraphPulse", "Graphicionado", "normalized"],
        |c| {
            vec![
                c.opt.memory.total_accesses().to_string(),
                c.hw.memory.total_accesses().max(1).to_string(),
                format!("{:.2}", accesses_normalized(c)),
            ]
        },
    );
    t.notes = vec![format!(
        "geomean normalized accesses: {:.2}",
        geomean(grid.cells.iter().map(accesses_normalized))
    )];
    t
}

/// Fig. 12: bytes moved off-chip and the fraction of them used, in total
/// and for every traffic class with traffic, for both accelerators — each
/// total is the byte-weighted mean of the class columns beside it.
pub fn fig12(grid: &Grid) -> Table {
    fn engines(c: &Cell) -> [(&'static str, &MemStats); 2] {
        [
            ("GraphPulse", &c.opt.memory),
            ("Graphicionado", &c.hw.memory),
        ]
    }
    let classes: Vec<TrafficClass> = (TrafficClass::ALL.into_iter())
        .filter(|&k| {
            grid.cells
                .iter()
                .any(|c| engines(c).iter().any(|(_, m)| m.bytes(k) > 0))
        })
        .collect();
    let mut t = Table::new(
        "Fig. 12 — off-chip bytes moved and fraction utilized, per traffic class",
        "fig12-utilization",
        &["app", "graph", "engine", "bytes", "utilized"],
    );
    for k in &classes {
        t.header.push(format!("{} B", k.label()));
        t.header.push(format!("{} util", k.label()));
    }
    for c in &grid.cells {
        for (engine, m) in engines(c) {
            let mut columns = vec![
                engine.to_string(),
                m.total_bytes().to_string(),
                format!("{:.2}", m.utilization()),
            ];
            for &k in &classes {
                columns.push(m.bytes(k).to_string());
                columns.push(match m.bytes(k) {
                    0 => "-".into(),
                    b => format!("{:.2}", m.useful_bytes(k) as f64 / b as f64),
                });
            }
            t.rows.push(labelled(c, columns));
        }
    }
    t
}

/// Fig. 13: mean cycles an event spends in each execution stage.
pub fn fig13(grid: &Grid) -> Table {
    per_cell_table(
        grid,
        "Fig. 13 — mean cycles per event per stage",
        "fig13-stages",
        &["Vtx Mem", "Process", "Gen-Buffer", "Edge Mem", "Generate"],
        |c| {
            (c.opt.stages.rows().iter())
                .map(|(_, mean)| format!("{mean:.1}"))
                .collect()
        },
    )
}

/// Fig. 14: share of time processors and generation streams spend per state.
pub fn fig14(grid: &Grid) -> Table {
    per_cell_table(
        grid,
        "Fig. 14 — processor states (vertex-read/process/stall/idle) | generator states (edge-read/generate/stall/idle)",
        "fig14-breakdown",
        &[
            "P:vtx", "P:proc", "P:stall", "P:idle", "G:edge", "G:gen", "G:stall", "G:idle",
        ],
        |c| {
            (c.opt.proc_timeline.fractions().iter())
                .chain(&c.opt.gen_timeline.fractions())
                .map(|(_, _, share)| format!("{:.0}%", share * 100.0))
                .collect()
        },
    )
}

/// Table V: power and area of the accelerator components.
pub fn tab05(grid: &Grid) -> Table {
    let mut t = Table::new(
        "Table V — power and area of the accelerator components (PRD/LJ)",
        "tab05-power",
        &[
            "component",
            "#",
            "static mW",
            "dynamic mW",
            "total mW",
            "area mm²",
        ],
    );
    let Some(c) = prd_lj_or_note(grid, &mut t) else {
        return t;
    };
    let e = &c.opt.energy;
    for r in &e.rows {
        let mw = [r.static_mw, r.dynamic_mw, r.total_mw()].map(|mw| format!("{mw:.1}"));
        let mut row = vec![r.component.to_string(), r.count.to_string()];
        row.extend(mw);
        row.push(format!("{:.2}", r.area_mm2));
        t.rows.push(row);
    }
    t.notes = vec![format!(
        "total: {:.1} mW, {:.1} mm²",
        e.total_mw, e.total_area_mm2
    )];
    t
}

const VERDICT_HEADER: [&str; 4] = ["claim", "paper", "this run", "verdict"];

/// The rule every verdict word comes from.
const VERDICT_RULE: &str = "\
rule: reproduced = the figure in the paper column holds for the number printed here (a count: in
every cell); shape only = it does not, but its direction does (a ratio: on the paper's side of 1.0;
a count: in more than half the cells; a share: above one half); not reproduced = neither.";

/// One verdict row: the claim, the paper's figure, this grid's, and the
/// word [`VERDICT_RULE`] gives for `met` / `direction`.
fn claim(t: &mut Table, claim: &str, paper: &str, measured: String, met: bool, direction: bool) {
    let word = match (met, direction) {
        (true, _) => "reproduced",
        (false, true) => "shape only",
        (false, false) => "not reproduced",
    };
    t.rows
        .push(vec![claim.into(), paper.into(), measured, word.into()]);
}

/// `x` at the precision the verdict prints it: the rule is applied to the
/// number the reader sees, so a word never contradicts the text beside it.
fn printed(x: f64, places: usize) -> f64 {
    format!("{x:.places$}")
        .parse()
        .expect("a formatted float parses")
}

fn count(grid: &Grid, holds: impl Fn(&Cell) -> bool) -> usize {
    grid.cells.iter().filter(|c| holds(c)).count()
}

fn printed_geomean(grid: &Grid, ratio: fn(&Cell) -> f64) -> f64 {
    printed(geomean(grid.cells.iter().map(ratio)), 2)
}

/// The reproduction verdict, simulator-only rows: each of the paper's
/// claims beside the number this grid gives for it and the word
/// the rule printed under the table assigns.
pub fn verdict(grid: &Grid) -> Table {
    let mut t = Table::new("Reproduction verdict", "verdict", &VERDICT_HEADER);
    let cells = grid.cells.len();
    let prd_lj = prd_lj(grid);

    if let Some(c) = prd_lj {
        let rate = printed(100.0 * c.opt.coalesce_rate(), 1);
        let measured = format!("{rate:.1}% on PRD/LJ");
        let paper = "> 90% (PR on LJ)";
        let what = "Coalescing eliminates most events (Fig. 4)";
        claim(&mut t, what, paper, measured, rate > 90.0, rate > 50.0);

        let look = c.opt.total_lookahead();
        let nonzero = (look.total() - look.zero) as f64 / look.total().max(1) as f64;
        let share = printed(100.0 * nonzero, 1);
        let buckets = look.rows();
        let deepest = buckets.iter().rev().find(|b| b.1 > 0).map_or("-", |b| b.0);
        let measured = format!("{share:.1}% of events carry lookahead; deepest bucket {deepest}");
        let paper = "hundreds of iterations (buckets past <100 fill)";
        let hundreds = look.total() > look.zero + look.lt100;
        let what = "Lookahead compounds prior iterations (Fig. 8)";
        claim(&mut t, what, paper, measured, hundreds, share > 50.0);
    }

    let w = count(grid, |c| over_graphicionado(c) > 1.0);
    let g = printed_geomean(grid, over_graphicionado);
    let measured = format!("{w}/{cells} cells; geomean {g:.2}x");
    let paper = "6.2x on average; every workload";
    let what = "Faster than Graphicionado (Fig. 10)";
    let (met, direction) = (w == cells && g >= 6.2, g > 1.0);
    claim(&mut t, what, paper, measured, met, direction);

    let w = count(grid, |c| c.opt.cycles <= c.base.cycles);
    let g = printed_geomean(grid, over_base);
    let measured = format!("{w}/{cells} cells; geomean {g:.2}x");
    let paper = "opt at least base everywhere";
    let what = "Optimizations matter (Fig. 10)";
    claim(&mut t, what, paper, measured, w == cells, g > 1.0);

    let w = count(grid, |c| accesses_normalized(c) < 1.0);
    let g = printed_geomean(grid, accesses_normalized);
    let measured = format!("{w}/{cells} cells below 1.0; geomean {g:.2}");
    let paper = "0.46 of Graphicionado's accesses (54% less)";
    let what = "Less off-chip traffic (Fig. 11)";
    claim(&mut t, what, paper, measured, g <= 0.46, g < 1.0);

    let utilization = |c: &Cell| c.opt.memory.utilization();
    let w = count(grid, |c| utilization(c) > c.hw.memory.utilization());
    let (lo, hi) = range(grid.cells.iter().map(utilization));
    let measured = format!("{w}/{cells} cells above Graphicionado; {lo:.2}-{hi:.2} of bytes used");
    let paper = "large fraction; above Graphicionado";
    let what = "High byte utilization (Fig. 12)";
    claim(&mut t, what, paper, measured, w == cells, 2 * w > cells);

    let w = count(grid, |c| {
        c.opt.stages.vtx_mem.mean() < c.opt.stages.edge_mem.mean()
    });
    let measured = format!("{w}/{cells} cells with vertex-memory wait below edge-memory time");
    let paper = "vertex wait a few cycles; edge memory dominates";
    let what = "Stage profile (Fig. 13)";
    claim(&mut t, what, paper, measured, w == cells, 2 * w > cells);

    let largest = |c: &Cell| range(c.opt.gen_timeline.fractions().iter().map(|f| f.2)).1;
    let w = count(grid, |c| edge_read_share(c) >= largest(c));
    let mean = grid.cells.iter().map(edge_read_share).sum::<f64>() / cells.max(1) as f64;
    let mean = printed(100.0 * mean, 0);
    let measured = format!("{w}/{cells} cells with edge reads the largest state; mean {mean:.0}%");
    let paper = "~80% of generator time (70% counted as met)";
    let what = "Generators bound by edge reads (Fig. 14)";
    claim(&mut t, what, paper, measured, mean >= 70.0, 2 * w > cells);

    if let Some(c) = prd_lj {
        let e = &c.opt.energy;
        let queue = e.rows.iter().find(|r| r.component == "Queue");
        let share = queue.map_or(0.0, |q| q.total_mw()) / e.total_mw.max(1e-9);
        let share = printed(100.0 * share, 1);
        let measured = format!("{share:.1}% of {:.1} mW on PRD/LJ", e.total_mw);
        let paper = "~8.8 W of ~8.9 W (90% counted as met)";
        let what = "Queue memory dominates power (Table V)";
        claim(&mut t, what, paper, measured, share >= 90.0, share > 50.0);
    } else {
        let skipped = "Fig. 4, Fig. 8 and Table V rows skipped: no PRD/LJ cell";
        t.notes.push(skipped.into());
    }
    t.notes.push(VERDICT_RULE.into());
    t
}

/// The two verdict rows that depend on the host: both divide by the
/// software framework's wall clock on whatever machine ran the sweep.
pub fn verdict_host(grid: &Grid) -> Table {
    let title = "Reproduction verdict — host-time rows";
    let mut t = Table::new(title, "verdict-host", &VERDICT_HEADER);
    let cells = grid.cells.len();
    let opt_over_software = |c: &Cell| over_software(c)[0];
    let w = count(grid, |c| opt_over_software(c) > 1.0);
    let g = printed(geomean(grid.cells.iter().map(opt_over_software)), 1);
    let (lo, hi) = range(grid.cells.iter().map(opt_over_software));
    let measured = format!("{w}/{cells} cells; geomean {g:.1}x ({lo:.1}-{hi:.1}x)");
    let paper = "10-74x; 28x on average";
    let what = "Speedup vs software (Fig. 10)";
    let (met, direction) = (w == cells && g >= 28.0, g > 1.0);
    claim(&mut t, what, paper, measured, met, direction);

    if let Some(c) = prd_lj(grid) {
        let (software, accelerator) = (c.sw_secs * CPU_WATTS * 1e3, c.opt.energy.total_mj);
        let ratio = printed(software / accelerator.max(1e-9), 0);
        let measured = format!(
            "{ratio:.0}x on PRD/LJ (software {software:.1} mJ at {CPU_WATTS} W; accelerator {accelerator:.2} mJ)"
        );
        let what = "Energy efficiency vs software (Table V)";
        claim(&mut t, what, "280x", measured, ratio >= 280.0, ratio > 1.0);
    }
    let host = "host-dependent: the software framework's wall clock on this machine";
    t.notes.push(host.into());
    t
}
