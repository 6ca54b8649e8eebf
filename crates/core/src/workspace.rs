//! Reusable, epoch-stamped per-query scratch state.
//!
//! A [`QueryWorkspace`] owns every piece of mutable state the online query
//! path needs — the two bidirectional-search sides, the seeds and level
//! buffers of the path-graph walks, the label buffers fed to the sketcher,
//! and a scratch vertex filter for landmark-endpoint queries.
//! All per-vertex structures are epoch-stamped
//! ([`qbs_graph::workspace`]), so preparing the workspace for the next
//! query is O(1): a handful of `clear()`s on small vectors plus one epoch
//! bump per field, never an `O(|V|)` allocation or memset.
//!
//! The intended usage pattern is one long-lived workspace per worker
//! thread:
//!
//! ```
//! use qbs_core::{QbsConfig, QbsIndex, QueryWorkspace};
//! use qbs_graph::fixtures::figure4_graph;
//!
//! let index = QbsIndex::build(figure4_graph(), QbsConfig::with_landmark_count(3));
//! let mut ws = QueryWorkspace::new();
//! for (u, v) in [(6, 11), (4, 12), (7, 9)] {
//!     let answer = index.query_with(&mut ws, u, v).unwrap();
//!     assert_eq!(answer.path_graph, index.query(u, v).unwrap());
//! }
//! assert_eq!(ws.queries_served(), 3);
//! ```
//!
//! Results are bit-identical to the allocation-per-query path (the
//! differential tests in `tests/workspace_differential.rs` assert this
//! across generator families and hundreds of mixed queries).

use qbs_graph::view::NeighborAccess;
use qbs_graph::workspace::{DistanceField, VisitedSet};
use qbs_graph::{Distance, VertexFilter, VertexId};

use crate::search::SearchStats;

/// One side (forward or backward) of the guided bidirectional search, with
/// all storage reusable across queries.
#[derive(Debug, Default)]
pub(crate) struct SideState {
    /// Epoch-stamped BFS depths.
    pub(crate) depth: DistanceField,
    /// `levels[d]` lists the vertices settled at depth `d`. Inner vectors
    /// keep their capacity across queries; `active_levels` tracks how many
    /// were touched by the previous query so `begin` clears only those.
    pub(crate) levels: Vec<Vec<VertexId>>,
    active_levels: usize,
    /// Number of settled vertices (`|P|` in Algorithm 4).
    pub(crate) settled: usize,
    /// Current level (`d_u` / `d_v` in Algorithm 4).
    pub(crate) level: Distance,
    /// Origin of the live state, if any — what [`SideState::resume`]
    /// compares against to keep a forward BFS alive across consecutive
    /// same-source queries.
    origin: Option<VertexId>,
}

impl SideState {
    /// Prepares the side for a new search from `origin` on a graph with `n`
    /// vertex slots.
    pub(crate) fn begin(&mut self, n: usize, origin: VertexId) {
        self.depth.reset(n);
        for level in &mut self.levels[..self.active_levels] {
            level.clear();
        }
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(origin);
        self.active_levels = 1;
        self.settled = 1;
        self.level = 0;
        self.depth.set(origin, 0);
        self.origin = Some(origin);
    }

    /// Keeps the live BFS state when it was already rooted at `origin` on a
    /// graph of the same size; otherwise falls back to [`SideState::begin`].
    /// Returns `true` when prior state was kept.
    ///
    /// Safe to reuse because BFS levels from a fixed origin on a fixed view
    /// are canonical: the caller only has to guarantee that the adjacency
    /// view is the same one the retained state was computed on (the planner
    /// uses this exclusively for non-landmark endpoints, where the
    /// sparsified view is always `G⁻` itself).
    pub(crate) fn resume(&mut self, n: usize, origin: VertexId) -> bool {
        if self.origin == Some(origin) && self.depth.capacity() >= n {
            true
        } else {
            self.begin(n, origin);
            false
        }
    }

    /// The vertices settled at the current level.
    pub(crate) fn frontier(&self) -> &[VertexId] {
        &self.levels[self.level as usize]
    }

    /// Expands the current frontier one level on the view; returns the
    /// number of newly settled vertices. Generic over the adjacency source
    /// so the same search runs on an owned CSR ([`FilteredGraph`]) and on a
    /// sparsified zero-copy store view alike.
    pub(crate) fn expand<V: NeighborAccess>(&mut self, view: &V, stats: &mut SearchStats) -> usize {
        let next_depth = self.level + 1;
        if self.levels.len() <= next_depth as usize {
            self.levels.push(Vec::new());
        }
        let depth = &mut self.depth;
        let (settled_levels, next_levels) = self.levels.split_at_mut(next_depth as usize);
        let current = &settled_levels[self.level as usize];
        let next = &mut next_levels[0];
        for &u in current {
            stats.vertices_settled += 1;
            view.for_each_neighbor(u, |w| {
                stats.edges_traversed += 1;
                if !depth.is_set(w) {
                    depth.set(w, next_depth);
                    next.push(w);
                }
            });
        }
        let added = next.len();
        self.settled += added;
        self.level = next_depth;
        self.active_levels = self.active_levels.max(next_depth as usize + 1);
        added
    }
}

/// The level-synchronous walks that build a path graph: the DAG walk of a
/// search side up its BFS levels, and the label walk of a sketch hop down
/// to its landmark.
#[derive(Debug, Default)]
pub(crate) struct LevelWalk {
    /// Vertices the current walk has reached, on any level.
    pub(crate) reached: VisitedSet,
    /// The reached vertices of the level the walk stands on.
    pub(crate) marked: Vec<VertexId>,
    /// The vertices of the next level, collected by the current step.
    pub(crate) next: Vec<VertexId>,
}

/// Per-batch, epoch-stamped memo of effective labels: the batch execution
/// planner fetches each endpoint's label once per batch instead of once
/// per query the endpoint appears in.
///
/// Entry storage is an arena of reusable vectors indexed by a per-vertex
/// slot map, stamped like the other workspace fields so `begin_batch` is
/// O(1) amortised.
#[derive(Debug, Default)]
pub(crate) struct LabelMemo {
    stamps: Vec<u32>,
    slots: Vec<u32>,
    epoch: u32,
    entries: Vec<Vec<(usize, Distance)>>,
    used: usize,
    hits: u64,
}

impl LabelMemo {
    /// Starts a new batch: every previously memoized label becomes stale.
    pub(crate) fn begin_batch(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.slots.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamps.iter_mut().for_each(|s| *s = 0);
                1
            }
        };
        self.used = 0;
    }

    /// Returns the arena slot holding `v`'s effective label, filling it
    /// from the store on first sight within the current batch.
    pub(crate) fn ensure<S: crate::store::IndexStore>(&mut self, store: &S, v: VertexId) -> usize {
        let idx = v as usize;
        if self.stamps[idx] == self.epoch {
            self.hits += 1;
            return self.slots[idx] as usize;
        }
        if self.used == self.entries.len() {
            self.entries.push(Vec::new());
        }
        store.fill_effective_label(v, &mut self.entries[self.used]);
        self.stamps[idx] = self.epoch;
        self.slots[idx] = self.used as u32;
        self.used += 1;
        self.used - 1
    }

    /// The label stored at an [`ensure`](LabelMemo::ensure)-returned slot.
    pub(crate) fn entry(&self, slot: usize) -> &[(usize, Distance)] {
        &self.entries[slot]
    }

    /// Label fetches avoided so far (reads destructively).
    pub(crate) fn take_hits(&mut self) -> u64 {
        std::mem::take(&mut self.hits)
    }
}

/// Reusable scratch state for the online query path. See the module docs
/// for the epoch-stamping design and usage pattern.
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    /// Forward search side (rooted at the query source).
    pub(crate) fwd: SideState,
    /// Backward search side (rooted at the query target).
    pub(crate) bwd: SideState,
    /// Long-lived forward side for the planner's shared-BFS distance
    /// groups: kept out of `fwd` so interleaved vanilla queries (other
    /// modes, landmark endpoints) cannot clobber the resumable state.
    pub(crate) shared_fwd: SideState,
    /// Per-batch effective-label memo (planner only).
    pub(crate) label_memo: LabelMemo,
    /// Path-graph walk seeds of the forward side: the meeting vertices
    /// and the recover vertices `Z` of every source hop.
    pub(crate) fwd_seeds: Vec<VertexId>,
    /// Path-graph walk seeds of the backward side: the meeting vertices
    /// and the recover vertices `Z` of every target hop.
    pub(crate) bwd_seeds: Vec<VertexId>,
    /// Level buffers of the DAG and label walks.
    pub(crate) walk: LevelWalk,
    /// Edges of the answer under construction, with duplicates.
    pub(crate) answer_edges: Vec<(VertexId, VertexId)>,
    /// Scratch filter for the rare landmark-endpoint queries.
    pub(crate) scratch_filter: VertexFilter,
    /// Effective-label buffer for the query source.
    pub(crate) src_label: Vec<(usize, Distance)>,
    /// Effective-label buffer for the query target.
    pub(crate) tgt_label: Vec<(usize, Distance)>,
    /// Per-request stage-timing scratch (see [`crate::obs`]); flushed
    /// into the engine's metrics registry after each request.
    pub(crate) obs: crate::obs::ObsScratch,
    /// Number of queries answered through this workspace.
    queries_served: u64,
}

impl QueryWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace with the per-vertex structures pre-sized for a
    /// graph with `n` vertices, avoiding even the first-query growth.
    pub fn for_vertices(n: usize) -> Self {
        let mut ws = Self::new();
        ws.fwd.depth.reset(n);
        ws.bwd.depth.reset(n);
        ws.walk.reached.reset(n);
        ws
    }

    /// Number of queries answered through this workspace since creation.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Records one served query (called by the search entry points).
    pub(crate) fn record_query(&mut self) {
        self.queries_served += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbs_graph::fixtures::figure4_graph;
    use qbs_graph::{FilteredGraph, INFINITE_DISTANCE};

    #[test]
    fn side_state_reuses_level_buffers() {
        let graph = figure4_graph();
        let filter = VertexFilter::new(graph.num_vertices());
        let view = FilteredGraph::new(&graph, &filter);
        let mut side = SideState::default();
        let mut stats = SearchStats::default();

        side.begin(graph.num_vertices(), 6);
        assert_eq!(side.frontier(), &[6]);
        side.expand(&view, &mut stats);
        assert!(side.settled > 1);
        let deep_levels = side.active_levels;

        // A second search must not see any first-search state.
        side.begin(graph.num_vertices(), 11);
        assert_eq!(side.frontier(), &[11]);
        assert_eq!(side.settled, 1);
        assert_eq!(side.level, 0);
        assert_eq!(side.depth.get(6), INFINITE_DISTANCE);
        assert!(
            side.levels.len() >= deep_levels,
            "level buffers are retained"
        );
    }

    #[test]
    fn workspace_presizing_matches_lazy_growth() {
        let ws = QueryWorkspace::for_vertices(64);
        assert_eq!(ws.queries_served(), 0);
        assert!(ws.fwd.depth.capacity() >= 64);
        assert!(ws.walk.reached.capacity() >= 64);
    }
}
