//! Guided searching (Algorithm 4).
//!
//! Given the sketch `S_uv`, the answer `G_uv` is assembled from up to three
//! searches over the sparsified graph `G⁻ = G[V \ R]` and the labelling
//! scheme (Eq. 5):
//!
//! 1. **Bidirectional search** — an alternating level-by-level BFS from both
//!    endpoints on `G⁻`, steered by the per-side budgets `d*_u`, `d*_v` from
//!    the sketch and bounded by `d⊤_uv`. It either finds
//!    `d_{G⁻}(u, v) ≤ d⊤_uv` or proves `d_{G⁻}(u, v) > d⊤_uv`.
//! 2. **Reverse search** — if the frontiers met, every shortest path inside
//!    `G⁻` (`G⁻_uv`) runs through a meeting vertex, one whose two depths sum
//!    to the distance. The meeting vertices seed the path-graph walk of
//!    both sides.
//! 3. **Recover search** — if some shortest path passes a landmark
//!    (`d_{G⁻} ≥ d⊤`), the landmark-passing paths (`G^L_uv`) are spliced
//!    from the precomputed Δ path graphs of the sketch's meta edges, plus
//!    one endpoint-to-landmark segment per sketch hop. For a hop at
//!    distance `σ`, the recover vertices `Z` are the level-`dm` vertices
//!    (`dm = min(σ − 1, side level)`) whose label to the landmark is
//!    `σ − dm`. One label walk from all of `Z` descends the labels to the
//!    landmark, and `Z` joins the seeds of its side.
//!
//! Each side then runs **one DAG walk** from its seeds up to its origin.
//! It goes level by level, from the deepest seed to depth 0, and collects
//! every edge `(p, x)` with `depth(p) + 1 = depth(x)` above a marked vertex
//! `x`. Each level step scans in the cheaper direction, by comparing
//! [`IndexStore::degree`] sums (the direction-optimizing BFS of Beamer et
//! al., SC'12):
//!
//! * **bottom-up** scans the marked level-`d+1` vertices for parents;
//! * **top-down** scans all of `levels[d]` for marked children — the very
//!   arcs the search relaxed when it expanded that level.
//!
//! So the walk scans at most as many arcs per level as the search relaxed
//! there, and never scans a vertex twice.
//!
//! Queries whose endpoint happens to be a landmark are handled by giving
//! that endpoint the synthetic label `{(itself, 0)}` and keeping it inside
//! the sparsified view for this query only, which generalises the paper's
//! formulation (labels are only defined on `V \ R`) without changing any of
//! its guarantees.
//!
//! Every index read goes through the [`IndexStore`] trait, so the same
//! search serves the owned [`crate::QbsIndex`] and a zero-copy
//! [`crate::store::ViewStore`] over an index file — answers are
//! bit-identical across backends. All mutable search state lives in a
//! caller-provided [`QueryWorkspace`] ([`guided_search_with`]): the
//! per-vertex depth fields and visited sets are epoch-stamped, so repeated
//! queries perform **zero `O(|V|)` allocations or clears**.

use serde::{Deserialize, Serialize};

use qbs_graph::view::NeighborAccess;
use qbs_graph::{Distance, PathGraph, VertexFilter, VertexId, INFINITE_DISTANCE};

use crate::sketch::{Sketch, SketchBounds, SketchHop};
use crate::store::{IndexStore, SparsifiedStore};
use crate::workspace::{LevelWalk, QueryWorkspace, SideState};

/// Work counters and intermediate quantities of one guided search, used by
/// the §6.5 traversal comparison and the Figure 8 coverage analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// `d⊤_uv` from the sketch.
    pub upper_bound: Distance,
    /// `d_{G⁻}(u, v)` if the bidirectional search determined it, otherwise
    /// [`INFINITE_DISTANCE`] (meaning "greater than the bound" or truly
    /// disconnected in `G⁻`).
    pub sparsified_distance: Distance,
    /// The final query distance.
    pub distance: Distance,
    /// Directed edges relaxed by the bidirectional search.
    pub edges_traversed: usize,
    /// Vertices settled by the bidirectional search.
    pub vertices_settled: usize,
    /// Levels expanded from the source side.
    pub forward_levels: usize,
    /// Levels expanded from the target side.
    pub backward_levels: usize,
    /// Whether the reverse search ran (some shortest path avoids landmarks).
    pub used_reverse_search: bool,
    /// Whether the recover search ran (some shortest path passes a landmark).
    pub used_recover_search: bool,
}

/// Answers `SPG(source, target)` guided by `sketch` (Algorithm 4) on a
/// throwaway workspace.
///
/// The caller guarantees `source != target` and that both vertices exist.
/// Hot query loops should hold a [`QueryWorkspace`] and call
/// [`guided_search_with`] instead.
pub fn guided_search<S: IndexStore>(
    store: &S,
    source: VertexId,
    target: VertexId,
    sketch: &Sketch,
) -> (PathGraph, SearchStats) {
    let mut ws = QueryWorkspace::new();
    guided_search_with(store, &mut ws, source, target, sketch)
}

/// Answers `SPG(source, target)` guided by `sketch`, reusing every buffer
/// in `ws`. Results are bit-identical to [`guided_search`], and identical
/// across [`IndexStore`] backends.
pub fn guided_search_with<S: IndexStore>(
    store: &S,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
    sketch: &Sketch,
) -> (PathGraph, SearchStats) {
    let n = store.num_vertices();
    ws.record_query();
    let mut stats = SearchStats {
        upper_bound: sketch.upper_bound,
        sparsified_distance: INFINITE_DISTANCE,
        distance: INFINITE_DISTANCE,
        ..SearchStats::default()
    };

    let QueryWorkspace {
        fwd,
        bwd,
        fwd_seeds,
        bwd_seeds,
        walk,
        answer_edges,
        scratch_filter,
        ..
    } = &mut *ws;

    let view = sparsified_view(store, scratch_filter, source, target);

    let d_top = sketch.upper_bound;

    // ---- Stage 1: guided bidirectional search on G⁻ (lines 6-15). ----
    fwd.begin(n, source);
    bwd.begin(n, target);
    let meeting_distance = bidirectional_stage(
        &view,
        fwd,
        bwd,
        d_top,
        sketch.source_budget(),
        sketch.target_budget(),
        &mut stats,
    );
    stats.sparsified_distance = meeting_distance;

    // ---- Stage 2/3: combine per Eq. 5. ----
    // Some shortest path avoids the landmarks iff d_{G⁻} ≤ d⊤; some passes
    // one iff d⊤ ≤ d_{G⁻}. Neither holds only when both are infinite.
    stats.used_reverse_search = meeting_distance != INFINITE_DISTANCE && meeting_distance <= d_top;
    stats.used_recover_search = d_top != INFINITE_DISTANCE && d_top <= meeting_distance;
    if !stats.used_reverse_search && !stats.used_recover_search {
        return (PathGraph::unreachable(source, target), stats);
    }
    let distance = meeting_distance.min(d_top);
    stats.distance = distance;

    answer_edges.clear();
    fwd_seeds.clear();
    bwd_seeds.clear();
    if stats.used_reverse_search {
        meeting_seeds(distance, fwd, bwd, fwd_seeds, bwd_seeds);
    }
    if stats.used_recover_search {
        for &(i, j, _) in &sketch.meta_edges {
            if let Some(k) = store.meta_edge_index(i, j) {
                store.for_each_delta_edge(k, |a, b| answer_edges.push((a, b)));
            }
        }
        recover_seeds(
            store,
            &sketch.source_hops,
            fwd,
            fwd_seeds,
            walk,
            answer_edges,
        );
        recover_seeds(
            store,
            &sketch.target_hops,
            bwd,
            bwd_seeds,
            walk,
            answer_edges,
        );
    }
    let pick =
        |marked: &[VertexId], shallower: &[VertexId]| cheaper_direction(store, marked, shallower);
    dag_walk(&view, fwd, fwd_seeds, walk, answer_edges, pick);
    dag_walk(&view, bwd, bwd_seeds, walk, answer_edges, pick);
    (
        PathGraph::from_edges(source, target, distance, answer_edges.iter().copied()),
        stats,
    )
}

/// Computes only the query *distance* (Eq. 5: `min(d_{G⁻}, d⊤)`), skipping
/// the reverse/recover materialisation entirely.
///
/// This is the fully allocation-free hot path: with a warmed-up workspace
/// it touches no heap at all.
pub fn guided_distance_with<S: IndexStore>(
    store: &S,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
    bounds: &SketchBounds,
) -> (Distance, SearchStats) {
    let n = store.num_vertices();
    ws.record_query();
    let mut stats = SearchStats {
        upper_bound: bounds.upper_bound,
        sparsified_distance: INFINITE_DISTANCE,
        distance: INFINITE_DISTANCE,
        ..SearchStats::default()
    };

    let QueryWorkspace {
        fwd,
        bwd,
        scratch_filter,
        ..
    } = &mut *ws;
    let view = sparsified_view(store, scratch_filter, source, target);

    fwd.begin(n, source);
    bwd.begin(n, target);
    let meeting_distance = bidirectional_stage(
        &view,
        fwd,
        bwd,
        bounds.upper_bound,
        bounds.source_budget,
        bounds.target_budget,
        &mut stats,
    );
    stats.sparsified_distance = meeting_distance;
    let distance = meeting_distance.min(bounds.upper_bound);
    stats.distance = distance;
    (distance, stats)
}

/// Distance-only guided search that *resumes* a forward BFS kept alive in
/// `ws.shared_fwd` across consecutive same-source queries — the batch
/// planner's shared-forward-BFS path.
///
/// The persistent side may hold levels deeper than this query has earned,
/// so the search tracks a per-query *revealed level* `vf`: the forward
/// frontier of this query is `levels[vf]`, forward depths `> vf` are
/// treated as unset by the meeting scan, and a forward step either reveals
/// an already-computed level (counted into `reused_levels`) or lazily
/// extends the real BFS by one level. With that cap the schedule — side
/// preference, budgets, breaks, meeting scans — is step-for-step the one
/// [`guided_distance_with`] runs (BFS levels from a fixed origin on the
/// fixed `G⁻` are canonical), so the returned distance is not merely
/// provably equal (Eq. 5's `min(d_{G⁻}, d⊤)` is schedule-independent) but
/// computed by an identical alternation.
///
/// Callers must guarantee `source != target`, both endpoints in range, and
/// neither endpoint a landmark — the latter so the sparsified view is the
/// store's own `G⁻` filter, the same view every retained level was
/// computed on.
pub(crate) fn guided_distance_resumed<S: IndexStore>(
    store: &S,
    ws: &mut QueryWorkspace,
    source: VertexId,
    target: VertexId,
    bounds: &SketchBounds,
    reused_levels: &mut u64,
) -> (Distance, SearchStats) {
    let n = store.num_vertices();
    ws.record_query();
    let mut stats = SearchStats {
        upper_bound: bounds.upper_bound,
        sparsified_distance: INFINITE_DISTANCE,
        distance: INFINITE_DISTANCE,
        ..SearchStats::default()
    };

    let QueryWorkspace {
        shared_fwd: fwd,
        bwd,
        ..
    } = &mut *ws;
    debug_assert!(
        !store.landmark_filter().contains(source) && !store.landmark_filter().contains(target),
        "shared forward BFS is only valid on the plain G⁻ view"
    );
    let view = SparsifiedStore::new(store, store.landmark_filter());

    fwd.resume(n, source);
    bwd.begin(n, target);

    let d_top = bounds.upper_bound;
    let mut meeting_distance = INFINITE_DISTANCE;
    let mut vf: Distance = 0;
    // What `fwd.settled` would read in the vanilla schedule: the vertex
    // count of the revealed levels only.
    let mut revealed_settled = fwd.levels[0].len();
    loop {
        if vf.saturating_add(bwd.level) >= d_top {
            break; // bound reached (d_u + d_v = d⊤)
        }
        let fwd_alive = !fwd.levels[vf as usize].is_empty();
        let bwd_alive = !bwd.frontier().is_empty();
        if !fwd_alive && !bwd_alive {
            break; // G⁻ exhausted without a meeting
        }

        let prefer_fwd = bounds.source_budget > vf;
        let prefer_bwd = bounds.target_budget > bwd.level;
        let expand_forward = match (prefer_fwd && fwd_alive, prefer_bwd && bwd_alive) {
            (true, false) => true,
            (false, true) => false,
            _ => {
                if !fwd_alive {
                    false
                } else if !bwd_alive {
                    true
                } else {
                    revealed_settled <= bwd.settled
                }
            }
        };

        if expand_forward {
            stats.forward_levels += 1;
            vf += 1;
            if fwd.level < vf {
                fwd.expand(&view, &mut stats);
            } else {
                *reused_levels += 1;
            }
            revealed_settled += fwd.levels[vf as usize].len();
            for &w in &fwd.levels[vf as usize] {
                let od = bwd.depth.get(w);
                if od != INFINITE_DISTANCE {
                    meeting_distance = meeting_distance.min(vf + od);
                }
            }
        } else {
            stats.backward_levels += 1;
            bwd.expand(&view, &mut stats);
            for &w in bwd.frontier() {
                let fd = fwd.depth.get(w);
                if fd != INFINITE_DISTANCE && fd <= vf {
                    meeting_distance = meeting_distance.min(bwd.level + fd);
                }
            }
        }
        if meeting_distance != INFINITE_DISTANCE {
            break;
        }
    }
    stats.sparsified_distance = meeting_distance;
    let distance = meeting_distance.min(bounds.upper_bound);
    stats.distance = distance;
    (distance, stats)
}

/// The sparsified view for one query: all landmarks removed, except a query
/// endpoint that happens to be a landmark itself. The common
/// (non-landmark-endpoint) case borrows the store's filter directly; the
/// rare case copies it into the workspace's scratch filter, so neither path
/// allocates in the steady state. Shared by the full search and the
/// distance-only path so the endpoint rule lives in exactly one place.
fn sparsified_view<'v, S: IndexStore>(
    store: &'v S,
    scratch_filter: &'v mut VertexFilter,
    source: VertexId,
    target: VertexId,
) -> SparsifiedStore<'v, S> {
    let landmark_filter = store.landmark_filter();
    let endpoint_is_landmark = landmark_filter.contains(source) || landmark_filter.contains(target);
    let query_filter: &VertexFilter = if endpoint_is_landmark {
        scratch_filter.copy_from(landmark_filter);
        scratch_filter.remove(source);
        scratch_filter.remove(target);
        scratch_filter
    } else {
        landmark_filter
    };
    SparsifiedStore::new(store, query_filter)
}

/// Stage 1 of Algorithm 4: the alternating, budget-steered bidirectional
/// level expansion on the sparsified view. Returns the meeting distance
/// (`d_{G⁻}(u, v)` when it is `≤ d⊤`, [`INFINITE_DISTANCE`] otherwise).
fn bidirectional_stage<V: NeighborAccess>(
    view: &V,
    fwd: &mut SideState,
    bwd: &mut SideState,
    d_top: Distance,
    d_star_u: Distance,
    d_star_v: Distance,
    stats: &mut SearchStats,
) -> Distance {
    let mut meeting_distance = INFINITE_DISTANCE;
    loop {
        if fwd.level.saturating_add(bwd.level) >= d_top {
            break; // bound reached (d_u + d_v = d⊤)
        }
        let fwd_alive = !fwd.frontier().is_empty();
        let bwd_alive = !bwd.frontier().is_empty();
        if !fwd_alive && !bwd_alive {
            break; // G⁻ exhausted without a meeting
        }

        // pick_search (line 7): prefer the side whose sketch budget is
        // not yet exhausted; break ties (or the both/neither case) by
        // expanding the smaller settled set.
        let prefer_fwd = d_star_u > fwd.level;
        let prefer_bwd = d_star_v > bwd.level;
        let expand_forward = match (prefer_fwd && fwd_alive, prefer_bwd && bwd_alive) {
            (true, false) => true,
            (false, true) => false,
            _ => {
                if !fwd_alive {
                    false
                } else if !bwd_alive {
                    true
                } else {
                    fwd.settled <= bwd.settled
                }
            }
        };

        let (just, other): (&SideState, &SideState) = if expand_forward {
            stats.forward_levels += 1;
            fwd.expand(view, stats);
            (fwd, bwd)
        } else {
            stats.backward_levels += 1;
            bwd.expand(view, stats);
            (bwd, fwd)
        };

        // Meeting check (lines 14-15).
        for &w in just.frontier() {
            let od = other.depth.get(w);
            if od != INFINITE_DISTANCE {
                meeting_distance = meeting_distance.min(just.level + od);
            }
        }
        if meeting_distance != INFINITE_DISTANCE {
            break;
        }
    }
    meeting_distance
}

/// Reverse search (Algorithm 4, lines 16-17): seeds both sides with the
/// meeting vertices, those whose forward and backward depths sum to
/// `distance`.
///
/// They are found by scanning the settled levels of the side with the
/// *smaller* settled set, so the scan is proportional to the work of the
/// search, not to the graph size.
fn meeting_seeds(
    distance: Distance,
    fwd: &SideState,
    bwd: &SideState,
    fwd_seeds: &mut Vec<VertexId>,
    bwd_seeds: &mut Vec<VertexId>,
) {
    let (scan, other) = if fwd.settled <= bwd.settled {
        (fwd, bwd)
    } else {
        (bwd, fwd)
    };
    for (d, level) in scan.levels.iter().enumerate().take(scan.level as usize + 1) {
        let d = d as Distance;
        if d > distance {
            break;
        }
        for &w in level {
            let od = other.depth.get(w);
            if od != INFINITE_DISTANCE && d + od == distance {
                fwd_seeds.push(w);
                bwd_seeds.push(w);
            }
        }
    }
}

/// Recover search (Algorithm 4, lines 18-24) for the hops of one side:
/// finds each hop's recover vertices `Z`, adds them to the side's seeds,
/// and collects the `Z`-to-landmark segment with one label walk per hop.
fn recover_seeds<S: IndexStore>(
    store: &S,
    hops: &[SketchHop],
    side: &SideState,
    seeds: &mut Vec<VertexId>,
    walk: &mut LevelWalk,
    edges: &mut Vec<(VertexId, VertexId)>,
) {
    for hop in hops {
        if hop.distance == 0 {
            continue; // the endpoint is this landmark; nothing to recover
        }
        // dm < σ, so every recover vertex still has a positive label. An
        // endpoint that is itself a landmark has only its synthetic zero
        // label and is never a recover vertex.
        let dm = (hop.distance - 1).min(side.level);
        let needed = hop.distance - dm;
        walk.reached.reset(store.num_vertices());
        walk.marked.clear();
        for &w in &side.levels[dm as usize] {
            if !store.is_landmark(w) && store.label_distance(w, hop.landmark_idx) == Some(needed) {
                walk.reached.insert(w);
                walk.marked.push(w);
                seeds.push(w);
            }
        }
        landmark_walk(store, hop.landmark_idx, needed, walk, edges);
    }
}

/// Walks from the vertices in `walk.marked`, all at label distance `k ≥ 1`
/// from landmark column `landmark_idx`, down to the landmark, following
/// neighbours whose label decreases by exactly one. Every collected edge
/// lies on a shortest path from a start vertex to the landmark that avoids
/// all other landmarks.
fn landmark_walk<S: IndexStore>(
    store: &S,
    landmark_idx: usize,
    k: Distance,
    walk: &mut LevelWalk,
    edges: &mut Vec<(VertexId, VertexId)>,
) {
    debug_assert!(k >= 1, "a label walk starts off the landmark");
    let LevelWalk {
        reached,
        marked,
        next,
    } = walk;
    for dx in (2..=k).rev() {
        next.clear();
        for &x in marked.iter() {
            store.for_each_neighbor(x, |y| {
                if store.is_landmark(y) {
                    return; // other landmarks cannot be interior vertices
                }
                if store.label_distance(y, landmark_idx) == Some(dx - 1) {
                    edges.push((x, y));
                    if reached.insert(y) {
                        next.push(y);
                    }
                }
            });
        }
        std::mem::swap(marked, next);
    }
    let landmark = store.landmark(landmark_idx);
    edges.extend(marked.iter().map(|&x| (x, landmark)));
}

/// The scan direction of one DAG-walk level step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// Scan the marked deeper vertices' adjacency for parents.
    BottomUp,
    /// Scan the shallower level's adjacency for marked children.
    TopDown,
}

/// Bottom-up scans `Σ deg(marked)` arcs and top-down `Σ deg(shallower)`;
/// the top-down sum stops as soon as it cannot win.
fn cheaper_direction<S: IndexStore>(
    store: &S,
    marked: &[VertexId],
    shallower: &[VertexId],
) -> Direction {
    let bottom_up: usize = marked.iter().map(|&x| store.degree(x)).sum();
    let mut top_down = 0;
    for &p in shallower {
        top_down += store.degree(p);
        if top_down >= bottom_up {
            return Direction::BottomUp;
        }
    }
    Direction::TopDown
}

/// Collects every edge on a shortest path from the side's origin to one of
/// its `seeds`: the DAG walk of stage 2/3. `pick` chooses each level
/// step's direction from the marked level and the level above it.
fn dag_walk<V: NeighborAccess>(
    view: &V,
    side: &SideState,
    seeds: &mut [VertexId],
    walk: &mut LevelWalk,
    edges: &mut Vec<(VertexId, VertexId)>,
    mut pick: impl FnMut(&[VertexId], &[VertexId]) -> Direction,
) {
    let depth = &side.depth;
    seeds.sort_unstable_by_key(|&s| std::cmp::Reverse(depth.get(s)));
    let Some(&deepest) = seeds.first() else {
        return;
    };
    walk.reached.reset(view.vertex_count());
    walk.marked.clear();
    let mut pending = seeds.iter().copied().peekable();
    let mut d = depth.get(deepest);
    loop {
        while let Some(s) = pending.next_if(|&s| depth.get(s) == d) {
            if walk.reached.insert(s) {
                walk.marked.push(s);
            }
        }
        if d == 0 {
            break;
        }
        d -= 1;
        let direction = pick(&walk.marked, &side.levels[d as usize]);
        level_step(view, side, d, direction, walk, edges);
    }
}

/// One DAG-walk step from the marked level `d + 1` to level `d`: collects
/// every edge `(p, x)` with `depth(p) = d` and `x` marked, and leaves the
/// parents `p` as the new marked level. Both directions collect the same
/// edges, each exactly once.
fn level_step<V: NeighborAccess>(
    view: &V,
    side: &SideState,
    d: Distance,
    direction: Direction,
    walk: &mut LevelWalk,
    edges: &mut Vec<(VertexId, VertexId)>,
) {
    let depth = &side.depth;
    let LevelWalk {
        reached,
        marked,
        next,
    } = walk;
    next.clear();
    match direction {
        Direction::BottomUp => {
            for &x in marked.iter() {
                view.for_each_neighbor(x, |p| {
                    if depth.get(p) == d {
                        edges.push((p, x));
                        if reached.insert(p) {
                            next.push(p);
                        }
                    }
                });
            }
        }
        Direction::TopDown => {
            for &p in &side.levels[d as usize] {
                let mut is_parent = false;
                view.for_each_neighbor(p, |x| {
                    if depth.get(x) == d + 1 && reached.contains(x) {
                        edges.push((p, x));
                        is_parent = true;
                    }
                });
                if is_parent && reached.insert(p) {
                    next.push(p);
                }
            }
        }
    }
    std::mem::swap(marked, next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QbsConfig, QbsIndex};
    use crate::sketch;
    use crate::store::ViewStore;
    use qbs_graph::fixtures::{figure4_graph, figure4_spg_6_11_edges};
    use qbs_graph::Graph;

    /// The figure-4 running example indexed with the paper's landmark set,
    /// queried through the generic search entry points — once over the
    /// owned store and once over a zero-copy view store, so every unit test
    /// here exercises both backends.
    struct Fixture {
        graph: Graph,
        owned: QbsIndex,
        view: ViewStore,
    }

    impl Fixture {
        fn figure4() -> Self {
            let graph = figure4_graph();
            let owned = QbsIndex::build(
                graph.clone(),
                QbsConfig::with_explicit_landmarks(vec![1, 2, 3]),
            );
            let view = ViewStore::new(owned.as_view());
            Fixture { graph, owned, view }
        }

        fn query_store<S: IndexStore>(
            store: &S,
            u: VertexId,
            v: VertexId,
        ) -> (PathGraph, SearchStats) {
            let mut src = Vec::new();
            let mut tgt = Vec::new();
            store.fill_effective_label(u, &mut src);
            store.fill_effective_label(v, &mut tgt);
            let sk = sketch::compute(store, u, v, &src, &tgt);
            guided_search(store, u, v, &sk)
        }

        /// Queries both backends, asserts they agree, returns the answer.
        fn query(&self, u: VertexId, v: VertexId) -> (PathGraph, SearchStats) {
            let from_owned = Self::query_store(&self.owned, u, v);
            let from_view = Self::query_store(&self.view, u, v);
            assert_eq!(
                from_owned, from_view,
                "store backends diverged on ({u},{v})"
            );
            from_owned
        }

        fn query_with(
            &self,
            ws: &mut QueryWorkspace,
            u: VertexId,
            v: VertexId,
        ) -> (PathGraph, SearchStats) {
            let mut src = Vec::new();
            let mut tgt = Vec::new();
            self.owned.fill_effective_label(u, &mut src);
            self.owned.fill_effective_label(v, &mut tgt);
            let sk = sketch::compute(&self.owned, u, v, &src, &tgt);
            guided_search_with(&self.owned, ws, u, v, &sk)
        }
    }

    #[test]
    fn reproduces_figure_6f() {
        let fx = Fixture::figure4();
        let (answer, stats) = fx.query(6, 11);
        assert_eq!(answer.distance(), 5);
        let expected = PathGraph::from_edges(6, 11, 5, figure4_spg_6_11_edges());
        assert_eq!(answer, expected);
        assert_eq!(stats.upper_bound, 5);
        assert_eq!(stats.sparsified_distance, 5);
        assert!(stats.used_reverse_search);
        assert!(stats.used_recover_search);
        assert_eq!(stats.distance, 5);
    }

    #[test]
    fn all_pairs_match_ground_truth_on_figure4() {
        let fx = Fixture::figure4();
        for u in 1..15u32 {
            for v in 1..15u32 {
                if u == v {
                    continue;
                }
                let expected = exact_spg(&fx.graph, u, v);
                let (got, stats) = fx.query(u, v);
                assert_eq!(got, expected, "query ({u},{v})");
                assert!(
                    stats.upper_bound >= stats.distance || stats.upper_bound == INFINITE_DISTANCE
                );
            }
        }
    }

    #[test]
    fn one_workspace_reused_across_all_pairs_matches_fresh_runs() {
        let fx = Fixture::figure4();
        let mut ws = QueryWorkspace::new();
        for u in 1..15u32 {
            for v in 1..15u32 {
                if u == v {
                    continue;
                }
                let (fresh, fresh_stats) = fx.query(u, v);
                let (reused, reused_stats) = fx.query_with(&mut ws, u, v);
                assert_eq!(reused, fresh, "query ({u},{v})");
                assert_eq!(reused_stats, fresh_stats, "stats of ({u},{v})");
            }
        }
        assert_eq!(ws.queries_served(), 14 * 13);
    }

    #[test]
    fn distance_only_path_agrees_with_full_search() {
        let fx = Fixture::figure4();
        let mut ws = QueryWorkspace::new();
        let mut src = Vec::new();
        let mut tgt = Vec::new();
        for u in 1..15u32 {
            for v in 1..15u32 {
                if u == v {
                    continue;
                }
                let (full, _) = fx.query(u, v);
                fx.owned.fill_effective_label(u, &mut src);
                fx.owned.fill_effective_label(v, &mut tgt);
                let bounds = sketch::compute_bounds(&fx.owned, &src, &tgt);
                let (d, stats) = guided_distance_with(&fx.owned, &mut ws, u, v, &bounds);
                assert_eq!(d, full.distance(), "distance of ({u},{v})");
                assert_eq!(stats.distance, d);
                // The view-backed distance path agrees bit-for-bit.
                let (dv, stats_v) = guided_distance_with(&fx.view, &mut ws, u, v, &bounds);
                assert_eq!(dv, d, "view distance of ({u},{v})");
                assert_eq!(stats_v, stats, "view stats of ({u},{v})");
            }
        }
    }

    #[test]
    fn pure_sparsified_query_skips_recover() {
        let fx = Fixture::figure4();
        // d(7, 9) = 2 via 7-8-9 (no landmark) but every landmark route is
        // longer, so only the reverse search runs.
        let (answer, stats) = fx.query(7, 9);
        assert_eq!(answer.distance(), 2);
        assert_eq!(answer.edges(), &[(7, 8), (8, 9)]);
        assert!(stats.used_reverse_search);
        assert!(!stats.used_recover_search);
        assert!(stats.sparsified_distance < stats.upper_bound);
    }

    #[test]
    fn pure_landmark_query_skips_reverse() {
        let fx = Fixture::figure4();
        // d(4, 12) = 2 via 4-3-12 only (through landmark 3); in G⁻ vertex 4
        // is isolated, so only the recover search contributes.
        let (answer, stats) = fx.query(4, 12);
        assert_eq!(answer.distance(), 2);
        assert_eq!(answer.edges(), &[(3, 4), (3, 12)]);
        assert!(!stats.used_reverse_search);
        assert!(stats.used_recover_search);
        assert_eq!(stats.sparsified_distance, INFINITE_DISTANCE);
    }

    #[test]
    fn landmark_endpoints_are_supported() {
        let fx = Fixture::figure4();
        let mut ws = QueryWorkspace::new();
        for &u in &[1u32, 2, 3] {
            for v in 1..15u32 {
                if u == v {
                    continue;
                }
                let expected = exact_spg(&fx.graph, u, v);
                let (got, _) = fx.query(u, v);
                assert_eq!(got, expected, "query ({u},{v})");
                // The scratch-filter path must agree as well.
                let (got, _) = fx.query_with(&mut ws, u, v);
                assert_eq!(got, expected, "workspace query ({u},{v})");
            }
        }
    }

    #[test]
    fn stats_report_search_effort() {
        let fx = Fixture::figure4();
        let (_, stats) = fx.query(6, 11);
        assert!(stats.vertices_settled > 0);
        assert!(stats.edges_traversed > 0);
        assert!(stats.forward_levels + stats.backward_levels > 0);
    }

    /// The DAG walk of one side, re-run on the state a full search left in
    /// `ws`, from `seeds` with each level step's direction chosen by `pick`.
    /// Returns the collected edges normalised and sorted, after asserting
    /// that no edge was collected twice.
    fn side_walk<S: IndexStore>(
        store: &S,
        ws: &mut QueryWorkspace,
        (u, v): (VertexId, VertexId),
        forward: bool,
        seeds: &[VertexId],
        pick: impl FnMut(&[VertexId], &[VertexId]) -> Direction,
    ) -> Vec<(VertexId, VertexId)> {
        let QueryWorkspace {
            fwd,
            bwd,
            walk,
            scratch_filter,
            ..
        } = ws;
        let view = sparsified_view(store, scratch_filter, u, v);
        let side = if forward { &*fwd } else { &*bwd };
        let mut seeds = seeds.to_vec();
        let mut edges = Vec::new();
        dag_walk(&view, side, &mut seeds, walk, &mut edges, pick);
        let mut normalised: Vec<_> = edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        normalised.sort_unstable();
        let collected = normalised.len();
        normalised.dedup();
        assert_eq!(
            normalised.len(),
            collected,
            "({u},{v}) collected an edge twice"
        );
        normalised
    }

    /// Runs every side walk of every query of `index` with both fixed
    /// directions and with the cost rule, from the query's own seeds and
    /// from its whole deepest level; all must collect identical edges.
    /// Returns how often the cost rule picked each direction.
    fn assert_directions_agree(index: &QbsIndex, pairs: &[(VertexId, VertexId)]) -> [usize; 2] {
        let mut picked = [0usize; 2];
        let mut ws = QueryWorkspace::new();
        for &(u, v) in pairs {
            let mut src = Vec::new();
            let mut tgt = Vec::new();
            index.fill_effective_label(u, &mut src);
            index.fill_effective_label(v, &mut tgt);
            let sk = sketch::compute(index, u, v, &src, &tgt);
            guided_search_with(index, &mut ws, u, v, &sk);
            for forward in [true, false] {
                let (side, seeds) = if forward {
                    (&ws.fwd, &ws.fwd_seeds)
                } else {
                    (&ws.bwd, &ws.bwd_seeds)
                };
                let seed_sets = [seeds.clone(), side.frontier().to_vec()];
                for seeds in seed_sets {
                    let bottom_up = side_walk(index, &mut ws, (u, v), forward, &seeds, |_, _| {
                        Direction::BottomUp
                    });
                    let top_down = side_walk(index, &mut ws, (u, v), forward, &seeds, |_, _| {
                        Direction::TopDown
                    });
                    let chosen = side_walk(index, &mut ws, (u, v), forward, &seeds, |m, l| {
                        let d = cheaper_direction(index, m, l);
                        picked[(d == Direction::TopDown) as usize] += 1;
                        d
                    });
                    assert_eq!(bottom_up, top_down, "({u},{v}) forward={forward}");
                    assert_eq!(chosen, bottom_up, "({u},{v}) forward={forward}");
                }
            }
        }
        picked
    }

    #[test]
    fn level_step_directions_collect_identical_edges() {
        let fx = Fixture::figure4();
        let pairs: Vec<_> = (1..15u32)
            .flat_map(|u| (1..15u32).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        let figure4 = assert_directions_agree(&fx.owned, &pairs);

        let grid = QbsIndex::build(
            qbs_gen::structured::grid(12, 12),
            QbsConfig::with_landmark_count(4),
        );
        let pairs: Vec<_> = (0..144u32)
            .step_by(7)
            .flat_map(|u| {
                (0..144u32)
                    .step_by(11)
                    .filter(move |&v| v != u)
                    .map(move |v| (u, v))
            })
            .collect();
        let on_grid = assert_directions_agree(&grid, &pairs);
        // The cost rule takes both directions, so both were compared.
        for picked in [figure4, on_grid] {
            assert!(picked[0] > 0 && picked[1] > 0, "picked {picked:?}");
        }
    }

    /// Exact answer via two BFSs (kept local to avoid a dev-dependency cycle
    /// with qbs-baselines inside unit tests).
    fn exact_spg(graph: &Graph, u: VertexId, v: VertexId) -> PathGraph {
        use qbs_graph::traversal::bfs_distances;
        if u == v {
            return PathGraph::trivial(u);
        }
        let du = bfs_distances(graph, u);
        let total = du[v as usize];
        if total == INFINITE_DISTANCE {
            return PathGraph::unreachable(u, v);
        }
        let dv = bfs_distances(graph, v);
        let mut edges = Vec::new();
        for (a, b) in graph.edges() {
            if du[a as usize] == INFINITE_DISTANCE || du[b as usize] == INFINITE_DISTANCE {
                continue;
            }
            if du[a as usize] + 1 + dv[b as usize] == total
                || du[b as usize] + 1 + dv[a as usize] == total
            {
                edges.push((a, b));
            }
        }
        PathGraph::from_edges(u, v, total, edges)
    }
}
