//! Graph serialization: text edge lists, and the error type every graph
//! reader (these and the binary [`container`](crate::container)) returns.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use crate::{CsrGraph, GraphBuilder, VertexId};

/// Errors produced while reading graph files (the text codec here and the
/// mmap-able [`container`](crate::container) format).
#[derive(Debug)]
pub enum ReadGraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line or record could not be parsed; carries line number and detail.
    Parse(usize, String),
    /// The binary header magic did not match.
    BadMagic,
    /// The header carries a version this build does not understand.
    BadVersion(u16),
    /// The binary payload ended prematurely.
    Truncated,
    /// A container segment is not placed on its required alignment, or its
    /// extent is inconsistent with the header; names the segment and why.
    Misaligned(String),
    /// A stored checksum does not match the bytes it covers; names the
    /// corrupted region.
    ChecksumMismatch(String),
    /// The payload parses but violates a structural invariant (row-pointer
    /// monotonicity, edge-index bounds, out-of-range neighbor ids, ...).
    Corrupt(String),
}

impl fmt::Display for ReadGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadGraphError::Io(e) => write!(f, "i/o error reading graph: {e}"),
            ReadGraphError::Parse(line, what) => write!(f, "parse error on line {line}: {what}"),
            ReadGraphError::BadMagic => write!(f, "not a gp-graph binary file"),
            ReadGraphError::BadVersion(v) => {
                write!(f, "unsupported gp-graph format version {v}")
            }
            ReadGraphError::Truncated => write!(f, "binary graph payload truncated"),
            ReadGraphError::Misaligned(what) => {
                write!(f, "misaligned or inconsistent segment: {what}")
            }
            ReadGraphError::ChecksumMismatch(what) => {
                write!(f, "checksum mismatch: {what}")
            }
            ReadGraphError::Corrupt(what) => write!(f, "corrupt graph payload: {what}"),
        }
    }
}

impl Error for ReadGraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadGraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReadGraphError {
    fn from(e: std::io::Error) -> Self {
        ReadGraphError::Io(e)
    }
}

/// Reads a whitespace-separated edge list: `src dst [weight]` per line.
///
/// Lines starting with `#` or `%` are comments. The vertex count is
/// `max id + 1` unless `num_vertices` pins it explicitly.
///
/// # Errors
///
/// Returns [`ReadGraphError`] on I/O failure or malformed lines, a vertex
/// id at or above a pinned `num_vertices` or equal to `u32::MAX` included,
/// and a weight that is not finite and > 0 (`nan`, `inf`, `0`, `-2.5`):
/// the rule update batches are held to, and the one the shortest-path
/// algorithms and the incremental invalidation assume.
///
/// # Examples
///
/// ```
/// let text = "# tiny\n0 1\n1 2 3.5\n";
/// let g = gp_graph::io::read_edge_list(text.as_bytes(), None).unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// ```
pub fn read_edge_list<R: Read>(
    reader: R,
    num_vertices: Option<usize>,
) -> Result<CsrGraph, ReadGraphError> {
    let buf = BufReader::new(reader);
    let mut edges: Vec<(u32, u32, f32)> = Vec::new();
    let mut max_id = 0u32;
    let mut weighted = false;
    // `max id + 1` must fit the builder's `u32` vertex count.
    let limit = num_vertices.unwrap_or(u32::MAX as usize);
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut id = |what: &str| -> Result<u32, ReadGraphError> {
            let parse = |detail| ReadGraphError::Parse(lineno + 1, detail);
            let id: u32 = it
                .next()
                .ok_or_else(|| parse(format!("missing {what}")))?
                .parse()
                .map_err(|e| parse(format!("{what}: {e}")))?;
            if id as usize >= limit {
                return Err(parse(format!(
                    "{what}: vertex id {id} out of range (ids must be below {limit})"
                )));
            }
            Ok(id)
        };
        let src = id("src")?;
        let dst = id("dst")?;
        let weight = match it.next() {
            Some(w) => {
                weighted = true;
                let parse = |detail| ReadGraphError::Parse(lineno + 1, detail);
                let w = w
                    .parse::<f32>()
                    .map_err(|e| parse(format!("weight: {e}")))?;
                if !(w.is_finite() && w > 0.0) {
                    return Err(parse(format!("weight: {w} is not finite and > 0")));
                }
                w
            }
            None => 1.0,
        };
        max_id = max_id.max(src).max(dst);
        edges.push((src, dst, weight));
    }
    let n = num_vertices.unwrap_or(if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    });
    let mut b = GraphBuilder::new(n);
    b.weighted(weighted);
    for (s, d, w) in edges {
        b.add_edge(VertexId::new(s), VertexId::new(d), w);
    }
    Ok(b.build())
}

/// Writes a graph as a text edge list (`src dst weight` when weighted).
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# gp-graph edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for v in graph.vertices() {
        for e in graph.out_edges(v) {
            if graph.is_weighted() {
                writeln!(writer, "{} {} {}", v.get(), e.other.get(), e.weight)?;
            } else {
                writeln!(writer, "{} {}", v.get(), e.other.get())?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, WeightMode};

    #[test]
    fn text_round_trip_unweighted() {
        let g = erdos_renyi(40, 120, WeightMode::Unweighted, 3);
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(&out[..], Some(40)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_round_trip_weighted() {
        let g = erdos_renyi(30, 90, WeightMode::Uniform(1.0, 8.0), 4);
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(&out[..], Some(30)).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        assert!(g2.is_weighted());
        for v in g.vertices() {
            let a: Vec<_> = g.out_edges(v).collect();
            let b: Vec<_> = g2.out_edges(v).collect();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.other, y.other);
                assert!((x.weight - y.weight).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn an_id_past_the_u32_vertex_count_is_a_parse_error() {
        let err = read_edge_list("0 4294967295\n".as_bytes(), None).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ReadGraphError::Parse(1, _)), "{msg}");
        assert!(
            msg.contains("dst: vertex id 4294967295 out of range"),
            "{msg}"
        );
        let err = read_edge_list("4294967295 0\n".as_bytes(), None).unwrap_err();
        assert!(
            err.to_string().contains("src: vertex id 4294967295"),
            "{err}"
        );
    }

    #[test]
    fn an_id_past_a_pinned_vertex_count_is_a_parse_error() {
        let err = read_edge_list("0 1\n0 5\n".as_bytes(), Some(3)).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ReadGraphError::Parse(2, _)), "{msg}");
        assert!(
            msg.contains("dst: vertex id 5 out of range (ids must be below 3)"),
            "{msg}"
        );
        assert_eq!(
            read_edge_list("0 2\n".as_bytes(), Some(3))
                .unwrap()
                .num_vertices(),
            3
        );
    }

    /// Asserts that a weight token is refused on its line, by name.
    fn assert_weight_refused(bad: &str) {
        let text = format!("0 1 2.0\n1 2 {bad}\n");
        let err = read_edge_list(text.as_bytes(), None).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ReadGraphError::Parse(2, _)), "{bad}: {msg}");
        assert!(
            msg.contains("weight: ") && msg.contains("is not finite and > 0"),
            "{bad}: {msg}"
        );
    }

    #[test]
    fn a_nan_weight_is_refused() {
        assert_weight_refused("nan");
        assert_weight_refused("NaN");
    }

    #[test]
    fn an_infinite_weight_is_refused() {
        assert_weight_refused("inf");
    }

    #[test]
    fn a_negative_infinite_weight_is_refused() {
        assert_weight_refused("-inf");
    }

    #[test]
    fn a_zero_weight_is_refused() {
        assert_weight_refused("0");
        assert_weight_refused("-0");
    }

    #[test]
    fn a_negative_weight_is_refused() {
        assert_weight_refused("-2.5");
    }

    #[test]
    fn the_smallest_positive_weights_are_kept() {
        let g = read_edge_list("0 1 1e-30\n1 0 1e-45\n".as_bytes(), None).unwrap();
        let w = |v| g.out_edges(VertexId::new(v)).next().unwrap().weight;
        assert_eq!((w(0), w(1)), (1e-30, 1e-45));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# c\n\n% also comment\n0 1\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "0 1\nnot numbers\n";
        match read_edge_list(text.as_bytes(), None) {
            Err(ReadGraphError::Parse(line, _)) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
