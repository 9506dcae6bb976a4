//! Line-oriented TCP front end.
//!
//! The concurrency/versioning architecture is the point of this crate,
//! not the protocol — so the wire format is a deliberately minimal,
//! human-typeable line protocol over the same [`ServeClient`] /
//! [`Updater`] paths the in-process API uses:
//!
//! ```text
//! Q <tenant> pagerank <v>        -> OK <epoch> <value> [degraded]
//! Q <tenant> cc <v>              -> OK <epoch> <value> [degraded]
//! Q <tenant> sssp <src> <dst>    -> OK <epoch> <value> [degraded]
//! Q <tenant> bfs <src> <dst>     -> OK <epoch> <value> [degraded]
//! Q <tenant> sswp <src> <dst>    -> OK <epoch> <value> [degraded]
//! U insert <src> <dst> <weight>  -> OK update queued
//! U delete <src> <dst>           -> OK update queued
//! EPOCH                          -> OK <current epoch>
//! ```
//!
//! `<weight>` must be finite and `> 0`. Any rejection or parse failure (a
//! line that is not UTF-8 included) answers `ERR <reason>` and keeps the
//! connection open; an empty line closes it, and so does a line longer
//! than `MAX_LINE` bytes, after `ERR line too long`. One thread per
//! connection (std-only, no async runtime), which is plenty for a
//! management-plane protocol — bulk traffic uses the in-process API.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;

use gp_graph::{EdgeUpdate, VertexId};

use crate::{check_update, Query, QueryClass, Rejection, ServeClient, Updater};

/// A running TCP front end.
pub struct TcpFrontEnd {
    local_addr: std::net::SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpFrontEnd {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting
    /// connections, each served by its own thread against `client` /
    /// `updater` clones.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(addr: &str, client: ServeClient, updater: Updater) -> std::io::Result<TcpFrontEnd> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let accept_thread = std::thread::Builder::new()
            .name("gp-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { break };
                    let client = client.clone();
                    let updater = updater.clone();
                    let _ = std::thread::Builder::new()
                        .name("gp-serve-conn".into())
                        .spawn(move || serve_connection(stream, &client, &updater));
                }
            })
            .expect("spawn accept thread");
        Ok(TcpFrontEnd {
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }
}

impl Drop for TcpFrontEnd {
    fn drop(&mut self) {
        // The accept thread exits when the listener errors (process
        // teardown) — detach rather than block here.
        if let Some(h) = self.accept_thread.take() {
            drop(h);
        }
    }
}

/// Longest request line accepted, in bytes before its newline; a
/// well-formed request is a few dozen.
const MAX_LINE: u64 = 4096;

fn serve_connection(stream: TcpStream, client: &ServeClient, updater: &Updater) {
    let Ok(peer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(peer);
    let mut out = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        // The cap bounds `line` against a peer that never sends a newline.
        let mut capped = reader.by_ref().take(MAX_LINE + 1);
        match capped.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.len() as u64 > MAX_LINE && !line.ends_with(b"\n") {
            // The rest of the line is unread, so there is no next request
            // to find: answer and close.
            let _ = writeln!(out, "ERR line too long");
            return;
        }
        let response = match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => return,
            Ok(request) => handle_line(request, client, updater),
            Err(_) => "ERR line is not valid UTF-8".to_string(),
        };
        if writeln!(out, "{response}").is_err() {
            return;
        }
    }
}

fn handle_line(line: &str, client: &ServeClient, updater: &Updater) -> String {
    match dispatch(line, client, updater) {
        Ok(ok) => ok,
        Err(e) => format!("ERR {e}"),
    }
}

fn dispatch(line: &str, client: &ServeClient, updater: &Updater) -> Result<String, String> {
    let mut words = line.split_whitespace();
    match words.next() {
        Some("Q") => {
            let tenant_name = words.next().ok_or("usage: Q <tenant> <class> <args>")?;
            let tenant = client.tenant_id(tenant_name).ok_or_else(|| {
                Rejection::UnknownTenant {
                    tenant: tenant_name.to_string(),
                }
                .to_string()
            })?;
            let class = words.next().ok_or("missing query class")?;
            let class = QueryClass::parse(class).ok_or_else(|| {
                format!("unknown class {class:?} (known: pagerank, cc, sssp, bfs, sswp)")
            })?;
            let query = parse_query(class, &mut words)?;
            if words.next().is_some() {
                return Err("trailing arguments".into());
            }
            let r = client.query(tenant, query).map_err(|e| e.to_string())?;
            Ok(if r.degraded {
                format!("OK {} {} degraded", r.epoch, r.value)
            } else {
                format!("OK {} {}", r.epoch, r.value)
            })
        }
        Some("U") => {
            let update = match words.next() {
                Some("insert") => EdgeUpdate::Insert {
                    src: parse_vertex(words.next())?,
                    dst: parse_vertex(words.next())?,
                    weight: parse_weight(words.next())?,
                },
                Some("delete") => EdgeUpdate::Delete {
                    src: parse_vertex(words.next())?,
                    dst: parse_vertex(words.next())?,
                },
                _ => return Err("usage: U <insert|delete> ...".into()),
            };
            if words.next().is_some() {
                return Err("trailing arguments".into());
            }
            check_update(&update, client.num_vertices())?;
            updater
                .try_submit(vec![update])
                .map_err(|e| e.to_string())?;
            Ok("OK update queued".into())
        }
        Some("EPOCH") => Ok(format!("OK {}", client.current_epoch())),
        _ => Err("unknown command (known: Q, U, EPOCH)".into()),
    }
}

fn parse_query<'a>(
    class: QueryClass,
    words: &mut impl Iterator<Item = &'a str>,
) -> Result<Query, String> {
    let mut vertex = |what: &str| -> Result<VertexId, String> {
        let w = words.next().ok_or_else(|| format!("missing {what}"))?;
        let id: u32 = w.parse().map_err(|e| format!("bad {what} {w:?}: {e}"))?;
        Ok(VertexId::new(id))
    };
    Ok(match class {
        QueryClass::PageRank => Query::PageRank {
            v: vertex("vertex")?,
        },
        QueryClass::Components => Query::Components {
            v: vertex("vertex")?,
        },
        QueryClass::Sssp => Query::Sssp {
            src: vertex("src")?,
            dst: vertex("dst")?,
        },
        QueryClass::Bfs => Query::Bfs {
            src: vertex("src")?,
            dst: vertex("dst")?,
        },
        QueryClass::Sswp => Query::Sswp {
            src: vertex("src")?,
            dst: vertex("dst")?,
        },
    })
}

fn parse_vertex(word: Option<&str>) -> Result<VertexId, String> {
    let w = word.ok_or("missing vertex id")?;
    let id: u32 = w.parse().map_err(|e| format!("bad vertex {w:?}: {e}"))?;
    Ok(VertexId::new(id))
}

/// Parses a weight; whether the graph can take it is
/// [`check_update`]'s to say.
fn parse_weight(word: Option<&str>) -> Result<f32, String> {
    let w = word.ok_or("usage: U insert <src> <dst> <weight>")?;
    w.parse().map_err(|e| format!("bad weight: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, Server};
    use gp_graph::generators::{rmat, RmatConfig, WeightMode};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn serve_loopback() -> (crate::ServeHandle, TcpFrontEnd) {
        let g = rmat(
            &RmatConfig::graph500(128, 1_024).with_weights(WeightMode::Uniform(1.0, 9.0)),
            3,
        );
        let handle = Server::start(g, ServeConfig::default());
        let front = TcpFrontEnd::bind("127.0.0.1:0", handle.client(), handle.updater())
            .expect("bind loopback");
        (handle, front)
    }

    fn connect(front: &TcpFrontEnd) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(front.local_addr()).expect("connect");
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    }

    fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    }

    #[test]
    fn tcp_round_trip() {
        let (handle, front) = serve_loopback();
        let (mut reader, mut stream) = connect(&front);
        let mut ask = |line: &str| -> String {
            writeln!(stream, "{line}").expect("write");
            read_reply(&mut reader)
        };

        assert_eq!(ask("EPOCH"), "OK 0");
        let r = ask("Q default sssp 0 17");
        assert!(r.starts_with("OK 0 "), "unexpected reply {r:?}");
        let r = ask("Q default pagerank 5");
        assert!(r.starts_with("OK 0 "), "unexpected reply {r:?}");
        let r = ask("Q nobody cc 1");
        assert!(
            r.starts_with("ERR unknown-tenant"),
            "unexpected reply {r:?}"
        );
        let r = ask("Q default warp 1");
        assert!(r.starts_with("ERR unknown class"), "unexpected reply {r:?}");
        let r = ask("Q default sssp 0 999999");
        assert!(r.starts_with("ERR bad-query"), "unexpected reply {r:?}");
        assert_eq!(ask("U insert 0 99 2.5"), "OK update queued");
        let r = ask("U teleport 1 2");
        assert!(r.starts_with("ERR usage"), "unexpected reply {r:?}");
        // A weight the path algorithms cannot take never reaches the
        // overlay, and the lane keeps answering.
        for weight in ["nan", "-1", "0", "inf"] {
            let r = ask(&format!("U insert 0 1 {weight}"));
            assert!(r.starts_with("ERR bad weight"), "{weight}: reply {r:?}");
            let r = ask("Q default sssp 0 17");
            assert!(r.starts_with("OK "), "{weight}: reply {r:?}");
        }

        drop(front);
        let stats = handle.shutdown();
        assert_eq!(stats.served, 6);
        assert!(stats.update_batches >= 1);
    }

    #[test]
    fn a_line_with_no_newline_is_refused_at_the_cap_and_the_connection_closed() {
        let (handle, front) = serve_loopback();
        let (mut reader, mut stream) = connect(&front);
        // The server stops reading at the cap and closes, so the tail of
        // the megabyte may have nowhere to go.
        let _ = stream.write_all(&vec![b'Q'; 1 << 20]);
        assert_eq!(read_reply(&mut reader), "ERR line too long");
        let mut rest = String::new();
        assert!(matches!(reader.read_line(&mut rest), Ok(0) | Err(_)));
        assert_eq!(rest, "", "one ERR line and nothing more");

        let (mut reader, mut stream) = connect(&front);
        writeln!(stream, "EPOCH").expect("write");
        assert_eq!(read_reply(&mut reader), "OK 0");

        drop(front);
        assert_eq!(handle.shutdown().served, 0);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_answered_and_the_connection_kept() {
        let (handle, front) = serve_loopback();
        let (mut reader, mut stream) = connect(&front);
        stream.write_all(b"\xff\n").expect("write");
        let r = read_reply(&mut reader);
        assert!(r.starts_with("ERR "), "unexpected reply {r:?}");
        writeln!(stream, "EPOCH").expect("write");
        assert_eq!(read_reply(&mut reader), "OK 0");

        drop(front);
        handle.shutdown();
    }
}
