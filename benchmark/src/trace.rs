//! In-memory spans around the calls into each layer's public functions.
//!
//! A span is (name, start, end, parent, pass). Spans are recorded only
//! while [`Tracer::on`] is set; with it clear, [`Tracer::span`] is a plain
//! call and no clock is read, so the untraced run reads the clock only at
//! pass boundaries. Spans are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Which set-up repetition or timed pass the span belongs to.
    pub pass: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
    /// First pass id of the timed phase; earlier ids are set-up repetitions.
    timed_from: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            timed_from: u32::MAX,
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Later spans belong to the next pass.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Later passes belong to the timed phase.
    pub fn start_timed_phase(&mut self) {
        self.timed_from = self.pass;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens are its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now();
        result
    }

    /// Records a span whose ends were read by the caller: a request in
    /// flight overlaps its siblings, so it cannot be a nested call.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                pass: self.pass,
            });
        }
    }

    fn named(&self, name: &'static str, timed: bool) -> impl Iterator<Item = &Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && (s.pass >= self.timed_from) == timed)
    }

    /// Durations in seconds of the spans named `name` in the timed phase
    /// (`timed`) or in the set-up repetitions.
    pub fn seconds(&self, name: &'static str, timed: bool) -> Vec<f64> {
        self.named(name, timed).map(Span::seconds).collect()
    }

    /// Like [`Tracer::seconds`], with the spans of one pass summed: what a
    /// pass spends in a call it makes several times.
    pub fn seconds_per_pass(&self, name: &'static str, timed: bool) -> Vec<f64> {
        let mut sums: Vec<(u32, f64)> = Vec::new();
        for s in self.named(name, timed) {
            match sums.last_mut() {
                Some((pass, sum)) if *pass == s.pass => *sum += s.seconds(),
                _ => sums.push((s.pass, s.seconds())),
            }
        }
        sums.into_iter().map(|(_, sum)| sum).collect()
    }

    /// Writes one JSON object per span, with its self time.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("pass", Json::Num(f64::from(s.pass))),
                ("self_ns", Json::Num(*own as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children may overlap each other (requests in
/// flight) and may outlive the parent's end, so the covered part is the
/// union of the child intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(20, 40, Some(0)),
            span(90, 150, Some(0)),
        ];
        // Union of the children inside [0, 100) is [10, 70) + [90, 100).
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_by_call_and_is_silent_when_off() {
        let mut tr = Tracer::new(true);
        let got = tr.span("outer", |tr| {
            tr.span("inner", |_| 7);
            let (a, b) = (tr.now(), tr.now());
            tr.record("flight", a, b);
            11
        });
        assert_eq!(got, 11);
        let names: Vec<_> = tr.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("outer", None), ("inner", Some(0)), ("flight", Some(0))]
        );
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |tr| tr.span("inner", |_| 7)), 7);
        off.record("flight", 0, 1);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn seconds_split_set_up_from_timed_phase() {
        let mut tr = Tracer::new(true);
        tr.span("call", |_| ());
        tr.next_pass();
        tr.start_timed_phase();
        tr.span("call", |_| ());
        tr.next_pass();
        tr.span("call", |_| ());
        tr.span("call", |_| ());
        assert_eq!(tr.seconds("call", false).len(), 1);
        assert_eq!(tr.seconds("call", true).len(), 3);
        assert!(tr.seconds("other", true).is_empty());
        let per_pass = tr.seconds_per_pass("call", true);
        assert_eq!(per_pass.len(), 2);
        assert_eq!(
            per_pass[1],
            tr.seconds("call", true)[1..].iter().sum::<f64>()
        );
    }
}
