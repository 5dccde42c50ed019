//! Self-time analysis of one traced alignment.
//!
//! The ledger's own spans (pair, parse, align, CIGAR) and the solver's
//! `Span` events from the attached recorder form one tree on the calling
//! thread. A span's self time is its duration minus its direct children's;
//! the solver spans never nest, so the align span's self time is the
//! solver's bookkeeping. Kernel events (from any thread) are attributed to
//! the fill span whose interval holds their timestamp.

use flsa_trace::{EventKind, SpanKind, Trace};

/// A closed interval on the recorder's clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn dur(self) -> u64 {
        self.end - self.start
    }
}

/// A node of the span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Pair,
    Parse,
    Align,
    Cigar,
    Fill(u32),
    Base,
    Traceback,
}

/// One traced alignment, split by layer. Times are self times in ns.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub align_ns: u64,
    /// FillCache at depth 0, depth 1, and deeper.
    pub fill_ns: [u64; 3],
    pub fill_cells: [u64; 3],
    pub base_ns: u64,
    pub base_cells: u64,
    pub traceback_ns: u64,
    /// Align wall time not covered by any solver span.
    pub bookkeeping_ns: u64,
    pub kernel_cells: u64,
    pub kernel_calls: u64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        self.align_ns += o.align_ns;
        for d in 0..3 {
            self.fill_ns[d] += o.fill_ns[d];
            self.fill_cells[d] += o.fill_cells[d];
        }
        self.base_ns += o.base_ns;
        self.base_cells += o.base_cells;
        self.traceback_ns += o.traceback_ns;
        self.bookkeeping_ns += o.bookkeeping_ns;
        self.kernel_cells += o.kernel_cells;
        self.kernel_calls += o.kernel_calls;
    }
}

/// Splits one traced pair. `main_tid` is the recorder's id for the thread
/// that called the aligner. Fails when spans overlap without nesting, a
/// solver span leaks outside the align span, self times do not add up to
/// the align wall time, or a kernel event of a span-emitting solver falls
/// outside every fill span.
pub fn analyse(
    trace: &Trace,
    main_tid: u32,
    pair: Span,
    parse: Span,
    align: Span,
    cigar: Span,
) -> Result<Layers, String> {
    let mut nodes: Vec<(Node, Span)> = vec![
        (Node::Pair, pair),
        (Node::Parse, parse),
        (Node::Align, align),
        (Node::Cigar, cigar),
    ];
    for e in &trace.events {
        if let EventKind::Span { kind, depth, .. } = e.kind {
            if e.tid != main_tid {
                return Err(format!("solver span {kind:?} off the calling thread"));
            }
            let node = match kind {
                SpanKind::FillCache => Node::Fill(depth),
                SpanKind::BaseCase => Node::Base,
                SpanKind::Traceback => Node::Traceback,
            };
            nodes.push((
                node,
                Span {
                    start: e.start_ns,
                    end: e.end_ns,
                },
            ));
        }
    }
    // Parents sort before their children: by start, longest first.
    nodes.sort_by_key(|&(_, s)| (s.start, std::cmp::Reverse(s.end)));

    let mut self_ns = vec![0u64; nodes.len()];
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, &(node, s)) in nodes.iter().enumerate() {
        while stack.last().is_some_and(|&top| nodes[top].1.end <= s.start) {
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            if s.end > nodes[top].1.end {
                return Err(format!(
                    "{node:?} overlaps {:?} without nesting",
                    nodes[top].0
                ));
            }
            parent[i] = Some(top);
        } else if node != Node::Pair {
            return Err(format!("{node:?} lies outside the pair span"));
        }
        self_ns[i] = s.dur();
        stack.push(i);
    }
    for i in 0..nodes.len() {
        if let Some(p) = parent[i] {
            self_ns[p] -= nodes[i].1.dur();
        }
    }

    let mut out = Layers {
        align_ns: align.dur(),
        ..Layers::default()
    };
    let mut solver_self = 0u64;
    let mut fills: Vec<(Span, Option<usize>)> = Vec::new();
    for (i, &(node, s)) in nodes.iter().enumerate() {
        match node {
            Node::Align => {
                out.bookkeeping_ns = self_ns[i];
                continue;
            }
            Node::Pair | Node::Parse | Node::Cigar => continue,
            Node::Fill(_) | Node::Base | Node::Traceback => {}
        }
        if parent[i].map(|p| nodes[p].0) != Some(Node::Align) {
            return Err(format!("{node:?} is not directly inside the align span"));
        }
        solver_self += self_ns[i];
        match node {
            Node::Fill(d) => {
                let slot = (d as usize).min(2);
                out.fill_ns[slot] += self_ns[i];
                fills.push((s, Some(slot)));
            }
            Node::Base => {
                out.base_ns += self_ns[i];
                fills.push((s, None));
            }
            _ => out.traceback_ns += self_ns[i],
        }
    }
    if solver_self + out.bookkeeping_ns != out.align_ns {
        return Err(format!(
            "span self time {solver_self} ns + bookkeeping {} ns != align wall {} ns",
            out.bookkeeping_ns, out.align_ns
        ));
    }

    for e in &trace.events {
        let EventKind::Kernel { cells, .. } = e.kind else {
            continue;
        };
        out.kernel_cells += cells;
        out.kernel_calls += 1;
        let owner = fills.partition_point(|(s, _)| s.start <= e.start_ns);
        match owner.checked_sub(1).map(|k| fills[k]) {
            Some((s, slot)) if e.start_ns <= s.end => match slot {
                Some(d) => out.fill_cells[d] += cells,
                None => out.base_cells += cells,
            },
            // A solver that records no spans (affine) runs every kernel
            // call directly under the align span.
            _ if fills.is_empty() => {}
            _ => {
                return Err(format!(
                    "kernel event at {} ns outside every fill span",
                    e.start_ns
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_trace::{Event, TraceMeta};

    fn span(kind: SpanKind, depth: u32, start: u64, end: u64) -> Event {
        Event {
            tid: 0,
            start_ns: start,
            end_ns: end,
            kind: EventKind::Span {
                kind,
                depth,
                rows: 1,
                cols: 1,
                k_r: 0,
                k_c: 0,
                cells: 1,
            },
        }
    }

    fn kernel(at: u64, cells: u64) -> Event {
        Event {
            tid: 1,
            start_ns: at,
            end_ns: at,
            kind: EventKind::Kernel {
                cells,
                backend: "scalar",
            },
        }
    }

    fn s(start: u64, end: u64) -> Span {
        Span { start, end }
    }

    #[test]
    fn splits_self_time_and_attributes_kernel_cells() {
        let trace = Trace {
            meta: TraceMeta::default(),
            events: vec![
                span(SpanKind::FillCache, 0, 20, 50),
                kernel(30, 100),
                kernel(50, 60),
                span(SpanKind::FillCache, 1, 55, 65),
                kernel(60, 7),
                span(SpanKind::BaseCase, 2, 70, 80),
                kernel(75, 5),
                span(SpanKind::Traceback, 2, 80, 84),
            ],
        };
        let l = analyse(&trace, 0, s(0, 100), s(0, 10), s(10, 90), s(90, 95)).expect("valid");
        assert_eq!(l.fill_ns, [30, 10, 0]);
        assert_eq!(l.fill_cells, [160, 7, 0]);
        assert_eq!((l.base_ns, l.base_cells, l.traceback_ns), (10, 5, 4));
        assert_eq!(l.bookkeeping_ns, 80 - 54);
        assert_eq!((l.kernel_cells, l.kernel_calls), (172, 4));
    }

    #[test]
    fn rejects_overlap_leaks_and_stray_kernel_events() {
        let overlap = Trace {
            meta: TraceMeta::default(),
            events: vec![
                span(SpanKind::FillCache, 0, 20, 50),
                span(SpanKind::BaseCase, 1, 40, 60),
            ],
        };
        assert!(analyse(&overlap, 0, s(0, 100), s(0, 10), s(10, 90), s(90, 95)).is_err());
        let leak = Trace {
            meta: TraceMeta::default(),
            events: vec![span(SpanKind::FillCache, 0, 85, 92)],
        };
        assert!(analyse(&leak, 0, s(0, 100), s(0, 10), s(10, 90), s(90, 95)).is_err());
        let stray = Trace {
            meta: TraceMeta::default(),
            events: vec![span(SpanKind::FillCache, 0, 20, 50), kernel(70, 1)],
        };
        assert!(analyse(&stray, 0, s(0, 100), s(0, 10), s(10, 90), s(90, 95)).is_err());
    }
}
