//! Independent-oracle check of the Δ landmark path graphs.
//!
//! For every meta edge `(a, b, σ)` the stored Δ row must equal the shortest
//! path graph that two full BFSs (`qbs_baselines::bfs_spg`) find between
//! `a` and `b` in `G` with every edge at another landmark removed, that
//! path graph's distance must be `σ`, and the row must be non-empty and
//! strictly ascending. Covered: generator families crossed with every
//! landmark strategy, plus long paths, heavily overlapping grid rows, odd
//! cycles, complete graphs, barbells, disconnected landmarks and meta edges
//! handed to `MetaGraph::build` in shuffled order.

use proptest::prelude::*;

use qbs_core::labelling::build_sequential;
use qbs_core::{LandmarkStrategy, MetaGraph, QbsConfig, QbsIndex};
use qbs_gen::prelude::*;
use qbs_graph::{Graph, GraphBuilder, VertexId};

/// `graph` with every edge touching a landmark other than `a` and `b`
/// removed; vertex ids are unchanged.
fn without_other_landmarks(
    graph: &Graph,
    landmarks: &[VertexId],
    a: VertexId,
    b: VertexId,
) -> Graph {
    let other = |v: VertexId| v != a && v != b && landmarks.contains(&v);
    let mut builder = GraphBuilder::new();
    builder.reserve_vertices(graph.num_vertices());
    for (x, y) in graph.edges().filter(|&(x, y)| !other(x) && !other(y)) {
        builder.add_edge(x, y);
    }
    builder.build()
}

/// Checks every Δ row of `meta` against the BFS oracle; returns the number
/// of rows checked.
fn assert_delta_matches_oracle(graph: &Graph, meta: &MetaGraph, label: &str) -> usize {
    let landmarks = meta.landmarks();
    for (k, &(i, j, sigma)) in meta.edges().iter().enumerate() {
        let (a, b) = (landmarks[i], landmarks[j]);
        let row = meta.delta_edges(k);
        assert!(!row.is_empty(), "{label}: Δ row of ({a}, {b}) is empty");
        assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "{label}: Δ row of ({a}, {b}) is not strictly ascending: {row:?}"
        );
        assert!(
            row.iter().all(|&(x, y)| x < y),
            "{label}: Δ row of ({a}, {b}) holds a non-normalised pair: {row:?}"
        );
        let g_k = without_other_landmarks(graph, landmarks, a, b);
        let oracle = qbs_baselines::bfs_spg::compute(&g_k, a, b);
        assert_eq!(
            oracle.distance(),
            sigma,
            "{label}: σ of meta edge ({a}, {b}) is not the landmark-free distance"
        );
        assert_eq!(
            row,
            oracle.edges(),
            "{label}: Δ row of meta edge ({a}, {b}, σ={sigma}) differs from the BFS oracle"
        );
    }
    meta.edges().len()
}

fn build_with(graph: Graph, landmarks: LandmarkStrategy) -> QbsIndex {
    QbsIndex::build(
        graph,
        QbsConfig {
            landmarks,
            ..QbsConfig::default()
        },
    )
}

fn check_index(index: &QbsIndex, label: &str) -> usize {
    assert_delta_matches_oracle(index.graph(), index.meta_graph(), label)
}

fn family_graph(family: u64, vertices: usize, seed: u64) -> Graph {
    match family % 3 {
        0 => barabasi_albert::generate(&BarabasiAlbertConfig {
            vertices,
            edges_per_vertex: 2,
            seed,
        }),
        1 => erdos_renyi::generate(&ErdosRenyiConfig {
            vertices,
            edges: vertices * 2,
            seed,
        }),
        _ => power_law::generate(&PowerLawConfig {
            vertices,
            edges: vertices * 2,
            exponent: 2.5,
            seed,
        }),
    }
}

fn strategy(kind: u64, count: usize, seed: u64) -> LandmarkStrategy {
    match kind % 3 {
        0 => LandmarkStrategy::HighestDegree { count },
        1 => LandmarkStrategy::Random { count, seed },
        _ => LandmarkStrategy::DegreeSpread { count },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 36, ..ProptestConfig::default() })]

    #[test]
    fn delta_rows_equal_the_bfs_oracle_across_families_and_strategies(
        family in 0u64..3,
        kind in 0u64..3,
        vertices in 30usize..240,
        landmarks in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let graph = family_graph(family, vertices, seed);
        let index = build_with(graph, strategy(kind, landmarks, seed));
        check_index(&index, &format!("family {family}, strategy {kind}, seed {seed}"));
    }
}

#[test]
fn long_path_with_landmarks_at_both_ends_and_the_middle() {
    let index = build_with(
        structured::path(2_000),
        LandmarkStrategy::Explicit(vec![0, 1_000, 1_999]),
    );
    assert_eq!(index.meta_graph().edges(), &[(0, 1, 1_000), (1, 2, 999)]);
    assert_eq!(check_index(&index, "path"), 2);
    assert_eq!(index.meta_graph().delta_total_edges(), 1_999);
}

#[test]
fn grid_with_heavily_overlapping_rows() {
    let index = build_with(
        structured::grid(40, 40),
        LandmarkStrategy::Random { count: 25, seed: 7 },
    );
    let rows = check_index(&index, "grid");
    assert!(rows >= 25, "only {rows} meta edges on the grid");
    let meta = index.meta_graph();
    let distinct: std::collections::BTreeSet<_> = (0..rows)
        .flat_map(|k| meta.delta_edges(k).iter().copied())
        .collect();
    assert!(
        distinct.len() < meta.delta_total_edges(),
        "grid rows were expected to share edges"
    );
}

#[test]
fn odd_cycle() {
    // Each landmark set with its meta edge count: only the shorter way
    // round an odd cycle is a shortest path.
    for (landmarks, edges) in [
        (vec![0, 50], 1),
        (vec![0, 33, 67], 3),
        (vec![5, 6], 1),
        (vec![0, 1, 2, 60], 3),
    ] {
        let index = build_with(
            structured::cycle(101),
            LandmarkStrategy::Explicit(landmarks.clone()),
        );
        assert_eq!(check_index(&index, &format!("cycle {landmarks:?}")), edges);
    }
}

#[test]
fn complete_graph_has_unit_single_edge_rows() {
    let index = build_with(
        structured::complete(12),
        LandmarkStrategy::HighestDegree { count: 6 },
    );
    let meta = index.meta_graph();
    assert_eq!(check_index(&index, "complete"), 15);
    assert!(meta.edges().iter().all(|&(_, _, sigma)| sigma == 1));
    assert!((0..15).all(|k| meta.delta_edges(k).len() == 1));
}

#[test]
fn barbell_across_the_bridge() {
    let graph = structured::barbell(8, 5);
    // Landmarks in both cliques, on the bridge and at its clique ends.
    let index = build_with(graph, LandmarkStrategy::Explicit(vec![0, 7, 10, 13, 20]));
    assert!(check_index(&index, "barbell") >= 4);
}

#[test]
fn disconnected_landmarks_have_no_meta_edge() {
    // Two components: a 10-cycle on 0..10 and a grid on 10..35.
    let mut builder = GraphBuilder::new();
    builder.reserve_vertices(35);
    for v in 0..10u32 {
        builder.add_edge(v, (v + 1) % 10);
    }
    for (x, y) in structured::grid(5, 5).edges() {
        builder.add_edge(x + 10, y + 10);
    }
    let index = build_with(
        builder.build(),
        LandmarkStrategy::Explicit(vec![0, 5, 10, 34]),
    );
    let meta = index.meta_graph();
    assert_eq!(meta.edges(), &[(0, 1, 5), (2, 3, 8)]);
    assert_eq!(check_index(&index, "disconnected"), 2);
}

#[test]
fn shuffled_meta_edges_give_the_same_rows() {
    let graph = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 400,
        edges_per_vertex: 3,
        seed: 11,
    });
    let landmarks = LandmarkStrategy::Random { count: 10, seed: 3 }.select(&graph);
    let scheme = build_sequential(&graph, &landmarks);
    let sorted = MetaGraph::build(&graph, &landmarks, &scheme.meta_edges);

    // Fisher–Yates with a fixed splitmix stream.
    let mut shuffled = scheme.meta_edges.clone();
    let mut state = 0x5EED_u64;
    for i in (1..shuffled.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        shuffled.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    assert_ne!(shuffled, scheme.meta_edges, "the shuffle moved nothing");
    let unsorted = MetaGraph::build(&graph, &landmarks, &shuffled);

    assert_eq!(unsorted.edges(), shuffled.as_slice());
    for (k, &(i, j, _)) in shuffled.iter().enumerate() {
        let at = sorted.edge_index(i, j).expect("same meta edge set");
        assert_eq!(
            unsorted.delta_edges(k),
            sorted.delta_edges(at),
            "meta edge ({i}, {j})"
        );
    }
    assert_delta_matches_oracle(&graph, &unsorted, "shuffled");
}
