//! What a container write returns, and [`write_container`]: a resident
//! [`CsrGraph`] written through the streaming builder.

use std::fmt;
use std::io;
use std::path::Path;

use super::{build_streaming, StreamBuildOptions};
use crate::CsrGraph;

/// Failure writing a container.
#[derive(Debug)]
pub enum ContainerWriteError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The input cannot be represented in the format (or the edge stream
    /// fed to the streaming builder was itself invalid).
    Invalid(String),
}

impl fmt::Display for ContainerWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerWriteError::Io(e) => write!(f, "i/o error writing container: {e}"),
            ContainerWriteError::Invalid(what) => write!(f, "cannot write container: {what}"),
        }
    }
}

impl std::error::Error for ContainerWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerWriteError::Io(e) => Some(e),
            ContainerWriteError::Invalid(_) => None,
        }
    }
}

impl From<io::Error> for ContainerWriteError {
    fn from(e: io::Error) -> Self {
        ContainerWriteError::Io(e)
    }
}

/// What a container write produced; returned by [`build_streaming`] and
/// so by [`write_container`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerSummary {
    /// Vertices in the written graph.
    pub vertices: u64,
    /// Directed edges written: the simple graph's, after self loops are
    /// dropped and parallel edges deduplicated.
    pub edges: u64,
    /// Whether weight segments were written.
    pub weighted: bool,
    /// Final file size in bytes.
    pub file_bytes: u64,
}

/// Writes `graph` as a container at `path`: the rows of `graph` stream,
/// in row order, through [`build_streaming`] with `weighted` taken from
/// `graph`, the one container writer.
///
/// A container holds its graph as [`GraphBuilder`](crate::GraphBuilder)
/// defaults build it: self loops are dropped and, of parallel edges, the
/// first in row order is kept. For such a simple graph the container is
/// `graph` relabeled by `rank`, the inverse of [`hub_first`](super::hub_first)
/// over `graph`'s in-degrees, with `order` and `rank` stored beside it.
///
/// # Errors
///
/// As [`build_streaming`]: [`ContainerWriteError::Io`] on filesystem
/// failure, a missing parent directory of `path` included.
pub fn write_container(
    graph: &CsrGraph,
    path: &Path,
) -> Result<ContainerSummary, ContainerWriteError> {
    let opts = StreamBuildOptions {
        weighted: graph.is_weighted(),
        ..StreamBuildOptions::default()
    };
    build_streaming(path, graph.num_vertices(), &opts, |sink| {
        for v in graph.vertices() {
            graph
                .out_edges(v)
                .for_each(|e| sink(v.get(), e.other.get(), e.weight));
        }
    })
}
