//! The independent oracle: plain Bi-BFS distances and BFS path graphs from
//! the graph and baseline crates, never from QbS itself.
//!
//! The Large stand-ins have diameters in the tens, far below the 65,535
//! at which the QbS labelling saturates its `u16` distances, so this check
//! cannot see that defect; a dedicated long-path regression test covers
//! it.

use std::collections::HashMap;

use qbs_core::QueryOutcome;
use qbs_graph::{bibfs, Distance, Graph, PathGraph, VertexId};

/// Expected distances for a stream of query pairs, one per stream slot.
pub struct Oracle {
    expected: Vec<Distance>,
}

impl Oracle {
    /// Runs Bi-BFS once per distinct unordered pair of `pairs`.
    pub fn for_pairs(graph: &Graph, pairs: &[(VertexId, VertexId)]) -> Oracle {
        let mut known: HashMap<(VertexId, VertexId), Distance> = HashMap::new();
        let expected = pairs
            .iter()
            .map(|&(s, t)| {
                *known
                    .entry((s.min(t), s.max(t)))
                    .or_insert_with(|| bibfs::bidirectional_distance(graph, s, t).distance)
            })
            .collect();
        Oracle { expected }
    }

    /// Whether `outcome` answers stream slot `slot` correctly: a distance
    /// or path graph whose distance is the oracle's. Errors never match.
    pub fn matches(&self, slot: usize, outcome: &QueryOutcome) -> bool {
        let expected = self.expected[slot % self.expected.len()];
        match outcome {
            QueryOutcome::Distance(d) => *d == expected,
            QueryOutcome::PathGraph(pg) => pg.distance() == expected,
            _ => false,
        }
    }
}

/// Path-graph answers kept from the run, checked edge for edge against a
/// plain BFS after the timed region: the first answer to each of the
/// stream's first `slots` slots.
#[derive(Default)]
pub struct PathSample {
    kept: HashMap<usize, PathGraph>,
    slots: usize,
}

impl PathSample {
    pub fn new(slots: usize) -> PathSample {
        PathSample {
            kept: HashMap::new(),
            slots,
        }
    }

    /// Offers the answer of stream slot `slot`.
    pub fn offer(&mut self, slot: usize, outcome: &QueryOutcome) {
        if slot < self.slots && !self.kept.contains_key(&slot) {
            if let QueryOutcome::PathGraph(pg) = outcome {
                self.kept.insert(slot, (**pg).clone());
            }
        }
    }

    pub fn merge(&mut self, other: PathSample) {
        for (slot, pg) in other.kept {
            self.kept.entry(slot).or_insert(pg);
        }
    }

    /// Number of kept answers whose edge set or distance differs from
    /// `qbs_baselines::bfs_spg::compute`, and the number checked.
    pub fn mismatches(&self, graph: &Graph) -> (u64, u64) {
        let mut bad = 0;
        for pg in self.kept.values() {
            let truth = qbs_baselines::bfs_spg::compute(graph, pg.source(), pg.target());
            if truth.distance() != pg.distance() || truth.edges() != pg.edges() {
                bad += 1;
            }
        }
        (bad, self.kept.len() as u64)
    }
}
