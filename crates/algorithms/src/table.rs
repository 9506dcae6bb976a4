//! Table II as one table: the application set, declared once.
//!
//! The paper defines its applications as the rows of Table II (propagate,
//! reduce, initialization, termination). [`App`] names those rows plus the
//! SSWP extension; [`App::ALL`] and [`App::PAPER`] are the two orders the
//! workspace iterates them in; the per-row facts every front end used to
//! re-derive (spellings, "does it read weights", "does it take a root",
//! "does it have an incremental seeding rule") are the columns of one
//! private table; and [`with_algorithm!`](crate::with_algorithm) is the one
//! place a row becomes a concrete [`DeltaAlgorithm`](crate::DeltaAlgorithm).
//! Adding an application is one variant, one table row, one macro arm and
//! its `DeltaAlgorithm` impl.

use gp_graph::{GraphView, VertexId};

use crate::engine::run_sequential;
use crate::AdsorptionParams;

/// One application: a row of the paper's Table II, or the SSWP extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// PageRank-Delta (accumulative, `f64` sums).
    PageRank,
    /// Adsorption label propagation (accumulative, weighted).
    Adsorption,
    /// Single-source shortest paths (monotone min, weighted).
    Sssp,
    /// Breadth-first search (monotone min).
    Bfs,
    /// Connected components (monotone max over labels).
    Cc,
    /// Single-source widest paths (monotone max, weighted).
    Sswp,
}

/// The columns of the table; [`TABLE`] holds one per [`App`], in
/// [`App::ALL`] order.
struct Row {
    name: &'static str,
    label: &'static str,
    aliases: &'static [&'static str],
    weighted: bool,
    rooted: bool,
    incremental: bool,
}

#[rustfmt::skip]
const TABLE: [Row; 6] = [
    Row { name: "pr",   label: "PRD",  aliases: &["pagerank"],   weighted: false, rooted: false, incremental: true },
    Row { name: "ads",  label: "ADS",  aliases: &["adsorption"], weighted: true,  rooted: false, incremental: false },
    Row { name: "sssp", label: "SSSP", aliases: &[],             weighted: true,  rooted: true,  incremental: true },
    Row { name: "bfs",  label: "BFS",  aliases: &[],             weighted: false, rooted: true,  incremental: true },
    Row { name: "cc",   label: "CC",   aliases: &[],             weighted: false, rooted: false, incremental: true },
    Row { name: "sswp", label: "SSWP", aliases: &[],             weighted: true,  rooted: true,  incremental: true },
];

impl App {
    /// Every application, in the rotation order of the fuzz driver (a
    /// seed's application is `ALL[rng % 6]`).
    pub const ALL: [App; 6] = [
        App::PageRank,
        App::Adsorption,
        App::Sssp,
        App::Bfs,
        App::Cc,
        App::Sswp,
    ];

    /// The five applications of Table II, in the paper's Fig. 10 order.
    pub const PAPER: [App; 5] = [App::PageRank, App::Adsorption, App::Sssp, App::Bfs, App::Cc];

    /// PageRank's damping factor on every front end.
    pub const DAMPING: f64 = 0.85;

    fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }

    /// Lower-case name for flags and logs: `pr`, `ads`, `sssp`, `bfs`,
    /// `cc`, `sswp`.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Paper-style label for tables: `PRD`, `ADS`, `SSSP`, `BFS`, `CC`,
    /// `SSWP`.
    pub fn label(self) -> &'static str {
        self.row().label
    }

    /// Parses a name, a label or an alias (`pagerank`, `adsorption`),
    /// ignoring ASCII case.
    pub fn parse(s: &str) -> Option<App> {
        App::ALL.into_iter().find(|app| {
            let row = app.row();
            [row.name, row.label]
                .iter()
                .chain(row.aliases)
                .any(|spelling| spelling.eq_ignore_ascii_case(s))
        })
    }

    /// The names of `apps`, comma-separated — what a flag that accepts
    /// exactly `apps` lists in its usage and its refusals.
    pub fn names(apps: &[App]) -> String {
        let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
        names.join(",")
    }

    /// Whether the application reads edge weights, so its input graph must
    /// carry meaningful ones.
    pub fn weighted(self) -> bool {
        self.row().weighted
    }

    /// Whether the application starts from a root vertex
    /// ([`AppInputs::root`]).
    pub fn rooted(self) -> bool {
        self.row().rooted
    }

    /// Whether the application is an
    /// [`IncrementalAlgorithm`](crate::IncrementalAlgorithm) — every row
    /// but Adsorption, whose normalized inbound weights do not survive edge
    /// updates.
    pub fn incremental(self) -> bool {
        self.row().incremental
    }

    /// The golden engine's converged values for this application on
    /// `graph`: the reference answer every other backend, and every served
    /// query, is checked against.
    pub fn golden_values<G: GraphView>(self, inputs: &AppInputs, graph: &G) -> Vec<f64> {
        crate::with_algorithm!(self, inputs, |algo| run_sequential(algo, graph).values)
    }
}

/// What a caller supplies to instantiate any row of the table; a row reads
/// only the fields it needs.
#[derive(Debug, Clone, Copy)]
pub struct AppInputs<'a> {
    /// Root vertex of the [rooted](App::rooted) applications.
    pub root: VertexId,
    /// Local propagation threshold of the accumulative applications
    /// (PageRank-Delta, Adsorption).
    pub threshold: f64,
    /// Per-vertex Adsorption parameters; may be `None` when the caller
    /// never runs [`App::Adsorption`].
    pub adsorption: Option<&'a AdsorptionParams>,
}

/// Evaluates an expression with an identifier bound to a reference to an
/// [`App`]'s concrete [`DeltaAlgorithm`](crate::DeltaAlgorithm), built from
/// an [`AppInputs`]. The applications are six types, so the arms share
/// their text but cannot share a `let`; this is the one place in the
/// workspace that text is written.
///
/// `with_algorithm!(app, &inputs, |algo| expr)` covers every row and
/// evaluates to `expr`. `with_algorithm!(incremental app, &inputs, |algo|
/// expr)` is the same construct with the Adsorption row absent, so `expr`
/// may require an [`IncrementalAlgorithm`](crate::IncrementalAlgorithm); it
/// evaluates to `Some(expr)`, and to `None` for [`App::Adsorption`].
///
/// # Panics
///
/// The first form panics on [`App::Adsorption`] without
/// [`AppInputs::adsorption`].
///
/// # Examples
///
/// ```
/// use gp_algorithms::{engine, with_algorithm, App, AppInputs, DeltaAlgorithm};
/// use gp_graph::generators::{erdos_renyi, WeightMode};
/// use gp_graph::VertexId;
///
/// let g = erdos_renyi(32, 128, WeightMode::Unweighted, 1);
/// let inputs = AppInputs { root: VertexId::new(0), threshold: 1e-7, adsorption: None };
/// let name = with_algorithm!(App::Bfs, &inputs, |algo| {
///     assert_eq!(engine::run_sequential(algo, &g).values[0], 0.0);
///     algo.name()
/// });
/// assert_eq!(name, "bfs");
/// assert!(with_algorithm!(incremental App::Adsorption, &inputs, |algo| algo.name()).is_none());
/// ```
#[macro_export]
macro_rules! with_algorithm {
    (incremental $app:expr, $inputs:expr, |$algo:ident| $run:expr) => {
        $crate::with_algorithm!(@rows $app, $inputs, $algo, Some($run), |_inputs| None)
    };
    (@rows $app:expr, $inputs:expr, $algo:ident, $run:expr, |$seen:ident| $adsorption:expr) => {{
        let inputs: &$crate::AppInputs = $inputs;
        let (root, threshold) = (inputs.root, inputs.threshold);
        match $app {
            $crate::App::PageRank => $crate::with_algorithm!(
                @bind $algo = $crate::PageRankDelta::new($crate::App::DAMPING, threshold), $run),
            $crate::App::Adsorption => {
                let $seen = inputs;
                $adsorption
            }
            $crate::App::Sssp => $crate::with_algorithm!(@bind $algo = $crate::Sssp::new(root), $run),
            $crate::App::Bfs => $crate::with_algorithm!(@bind $algo = $crate::Bfs::new(root), $run),
            $crate::App::Cc => {
                $crate::with_algorithm!(@bind $algo = $crate::ConnectedComponents::new(), $run)
            }
            $crate::App::Sswp => $crate::with_algorithm!(@bind $algo = $crate::Sswp::new(root), $run),
        }
    }};
    (@bind $algo:ident = $make:expr, $run:expr) => {{
        let $algo = &$make;
        $run
    }};
    ($app:expr, $inputs:expr, |$algo:ident| $run:expr) => {
        $crate::with_algorithm!(@rows $app, $inputs, $algo, $run, |inputs| {
            let params = inputs.adsorption.expect("Adsorption needs AppInputs::adsorption");
            $crate::with_algorithm!(
                @bind $algo = $crate::Adsorption::new(params.clone(), inputs.threshold), $run)
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::initial_state;
    use crate::{DeltaAlgorithm, IncrementalAlgorithm};
    use gp_graph::generators::{erdos_renyi, WeightMode};

    #[test]
    fn every_spelling_parses_to_its_row() {
        for app in App::ALL {
            assert_eq!(App::parse(app.name()), Some(app));
            assert_eq!(App::parse(app.label()), Some(app));
            assert_eq!(App::parse(&app.name().to_ascii_uppercase()), Some(app));
            assert_eq!(App::parse(&app.label().to_ascii_lowercase()), Some(app));
        }
        // Every spelling a front end accepted before the table: gp-bench's
        // `App::parse` (pr | prd | pagerank, ads | adsorption, sssp, bfs,
        // cc, any case), gp-verify's `AlgoKind::label` and `gpulse --app`
        // (pr, ads, sssp, bfs, cc, sswp).
        for (spelling, app) in [
            ("pr", App::PageRank),
            ("prd", App::PageRank),
            ("PRD", App::PageRank),
            ("pagerank", App::PageRank),
            ("PageRank", App::PageRank),
            ("ads", App::Adsorption),
            ("adsorption", App::Adsorption),
            ("sssp", App::Sssp),
            ("bfs", App::Bfs),
            ("BFS", App::Bfs),
            ("cc", App::Cc),
            ("sswp", App::Sswp),
        ] {
            assert_eq!(App::parse(spelling), Some(app), "{spelling}");
        }
        for junk in ["", "quux", "ppr", "pr,ads", " pr"] {
            assert_eq!(App::parse(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn names_and_labels_are_distinct_and_the_orders_hold() {
        for (i, a) in App::ALL.into_iter().enumerate() {
            // `row()` indexes the table by discriminant.
            assert_eq!(a as usize, i);
            for b in &App::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
                assert_ne!(a.label(), b.label());
            }
        }
        // The rotation order of the deleted `gp_verify::AlgoKind::ALL`, on
        // which every fuzz seed's application depends.
        let rotation = ["pr", "ads", "sssp", "bfs", "cc", "sswp"];
        assert_eq!(App::ALL.map(App::name), rotation);
        // Table II's five lead `ALL`, in Fig. 10 order.
        assert_eq!(App::PAPER[..], App::ALL[..5]);
        assert_eq!(App::names(&App::PAPER), "pr,ads,sssp,bfs,cc");
    }

    /// What each replaced site hard-coded:
    ///
    /// * `weighted` — `gpulse`'s `matches!(app, "sssp" | "sswp" | "ads")`,
    ///   `gp_verify::AlgoKind::weighted` (`Sssp | Adsorption | Sswp`),
    ///   `gp_bench::prepare` (weighted graphs for SSSP and Adsorption
    ///   only), `streaming`'s call list (weights for SSSP and SSWP) — and
    ///   each algorithm's own `needs_weights`.
    /// * `rooted` — the `::new(root)` calls of every ladder: SSSP, BFS and
    ///   SSWP in `gpulse`, `gp-bench`, `container`, `streaming`,
    ///   `chaos::campaign`, `oracle::run_case`; `gp-serve`'s path classes.
    /// * `incremental` — `streaming`'s call list (PRD, SSSP, BFS, CC,
    ///   SSWP) and `oracle::run_case`, which ran `check_incremental` on
    ///   every kind but Adsorption — and the `IncrementalAlgorithm` impls.
    #[test]
    fn the_columns_agree_with_the_sites_they_replaced() {
        fn column(of: fn(App) -> bool) -> Vec<App> {
            App::ALL.into_iter().filter(|&a| of(a)).collect()
        }
        assert_eq!(
            column(App::weighted),
            [App::Adsorption, App::Sssp, App::Sswp]
        );
        assert_eq!(column(App::rooted), [App::Sssp, App::Bfs, App::Sswp]);
        assert_eq!(
            column(App::incremental),
            [App::PageRank, App::Sssp, App::Bfs, App::Cc, App::Sswp]
        );

        let params = AdsorptionParams::random(16, 3);
        let inputs = AppInputs {
            root: VertexId::new(5),
            threshold: 1e-7,
            adsorption: Some(&params),
        };
        for app in App::ALL {
            let needs_weights = with_algorithm!(app, &inputs, |algo| algo.needs_weights());
            assert_eq!(app.weighted(), needs_weights, "{app:?}");
            fn is_incremental<A: IncrementalAlgorithm>(_: &A) {}
            let bound = with_algorithm!(incremental app, &inputs, |algo| is_incremental(algo));
            assert_eq!(app.incremental(), bound.is_some(), "{app:?}");
        }
    }

    #[test]
    fn every_row_dispatches_to_an_algorithm_that_starts() {
        let g = erdos_renyi(16, 48, WeightMode::Uniform(0.5, 2.0), 9);
        let params = AdsorptionParams::random(16, 3);
        let root = VertexId::new(5);
        let inputs = AppInputs {
            root,
            threshold: 1e-7,
            adsorption: Some(&params),
        };
        for app in App::ALL {
            let (values, seeds) = with_algorithm!(app, &inputs, |algo| {
                let (values, seeds) = initial_state(algo, &g);
                let seeds: Vec<VertexId> = seeds.iter().map(|seed| seed.0).collect();
                (values.len(), seeds)
            });
            assert_eq!(values, 16, "{app:?}");
            assert!(!seeds.is_empty(), "{app:?} starts with no event");
            // A rooted row starts from the caller's root and nowhere else.
            if app.rooted() {
                assert_eq!(seeds, [root], "{app:?}");
            }
            assert_eq!(app.golden_values(&inputs, &g).len(), 16);
        }
    }

    #[test]
    #[should_panic(expected = "Adsorption needs AppInputs::adsorption")]
    fn adsorption_without_parameters_is_a_caller_bug() {
        let inputs = AppInputs {
            root: VertexId::new(0),
            threshold: 1e-7,
            adsorption: None,
        };
        with_algorithm!(App::Adsorption, &inputs, |algo| algo.name());
    }
}
