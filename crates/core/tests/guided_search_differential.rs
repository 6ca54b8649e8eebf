//! Differential tests of the full QbS pipeline against the ground-truth
//! oracle on catalog stand-ins, structured graphs and random graphs, across
//! landmark strategies and counts. Every pair is answered through the
//! owned, wide-view (v2) and compact (v3) stores.

use qbs_baselines::{GroundTruth, SpgEngine};
use qbs_core::labelling::MAX_LABEL_DISTANCE;
use qbs_core::{
    query_on, CompactStore, IndexStore, LandmarkStrategy, Qbs, QbsConfig, QbsError, QbsIndex,
    QueryWorkspace, ViewStore,
};
use qbs_gen::catalog::{Catalog, DatasetId, Scale};
use qbs_gen::prelude::*;
use qbs_gen::structured;
use qbs_graph::{Graph, GraphBuilder, VertexId, INFINITE_DISTANCE};

/// Answers every sampled pair through the owned, wide-view (v2) and
/// compact (v3) stores and compares each answer with the BFS oracle.
fn check(graph: &Graph, config: QbsConfig, queries: usize, seed: u64, tag: &str) {
    let index = QbsIndex::build(graph.clone(), config);
    let view = ViewStore::new(index.as_view());
    let compact = CompactStore::new(index.as_compact_view().expect("serialise v3"));
    let truth = GroundTruth::new(graph.clone());
    let workload = QueryWorkload::sample(graph, queries, seed);
    check_store(&index, &truth, workload.pairs(), &format!("{tag} owned"));
    check_store(&view, &truth, workload.pairs(), &format!("{tag} v2"));
    check_store(&compact, &truth, workload.pairs(), &format!("{tag} v3"));
}

fn check_store<S: IndexStore>(
    store: &S,
    truth: &GroundTruth,
    pairs: &[(VertexId, VertexId)],
    tag: &str,
) {
    let mut ws = QueryWorkspace::new();
    for &(u, v) in pairs {
        let answer = query_on(store, &mut ws, u, v).unwrap();
        let expected = truth.query(u, v);
        assert_eq!(answer.path_graph, expected, "{tag}: query ({u},{v})");
        // The per-query statistics must be internally consistent.
        let stats = answer.stats;
        assert_eq!(
            stats.distance,
            expected.distance(),
            "{tag}: distance ({u},{v})"
        );
        if stats.upper_bound != INFINITE_DISTANCE && expected.is_reachable() {
            assert!(
                stats.upper_bound >= stats.distance,
                "{tag}: d⊤ < d on ({u},{v})"
            );
        }
        if stats.sparsified_distance != INFINITE_DISTANCE {
            assert!(
                stats.sparsified_distance >= stats.distance,
                "{tag}: d_G⁻ < d on ({u},{v})"
            );
        }
    }
}

/// A hub joined to `stars` star centres, each with `leaves` leaves; leaf
/// `j` of star `i` is also joined to leaf `j` of star `i + 1` (mod
/// `stars`), so leaf pairs have many shortest paths through the centres.
fn star_of_stars(stars: usize, leaves: usize) -> Graph {
    let centre = |i: usize| (1 + i) as VertexId;
    let leaf = |i: usize, j: usize| (1 + stars + i * leaves + j) as VertexId;
    let mut b = GraphBuilder::new();
    for i in 0..stars {
        b.add_edge(0, centre(i));
        for j in 0..leaves {
            b.add_edge(centre(i), leaf(i, j));
            b.add_edge(leaf(i, j), leaf((i + 1) % stars, j));
        }
    }
    b.build()
}

#[test]
fn qbs_is_exact_on_hub_heavy_graphs_with_few_landmarks() {
    // Few landmarks leave large-degree hubs in G⁻, so recover vertices
    // have large degree. Scanning them bottom-up would cost more than the
    // small levels above them, and most walk steps go top-down here.
    let stars = star_of_stars(12, 60);
    for count in [1usize, 2] {
        check(
            &stars,
            QbsConfig::with_landmark_count(count),
            40,
            count as u64,
            "star of stars",
        );
    }
    let ba = barabasi_albert::generate(&BarabasiAlbertConfig {
        vertices: 2_000,
        edges_per_vertex: 3,
        seed: 21,
    });
    for count in [1usize, 3] {
        check(
            &ba,
            QbsConfig::with_landmark_count(count),
            40,
            count as u64,
            "hub-heavy BA",
        );
    }
}

#[test]
fn qbs_is_exact_on_a_wide_level_grid() {
    // A 40×40 grid has wide BFS levels and a narrow marked set, so most
    // path-graph walk steps go bottom-up, and top-down wins only next to
    // an endpoint.
    check(
        &structured::grid(40, 40),
        QbsConfig::with_landmark_count(6),
        40,
        4,
        "grid 40x40",
    );
}

#[test]
fn qbs_is_exact_on_hub_dominated_standins() {
    for id in [DatasetId::Youtube, DatasetId::Twitter, DatasetId::Baidu] {
        let spec = *Catalog::paper_table1().get(id).unwrap();
        let graph = spec.generate(Scale::Tiny);
        check(&graph, QbsConfig::with_landmark_count(20), 30, 1, id.name());
    }
}

#[test]
fn qbs_is_exact_on_even_degree_and_community_standins() {
    for id in [
        DatasetId::Friendster,
        DatasetId::LiveJournal,
        DatasetId::Dblp,
    ] {
        let spec = *Catalog::paper_table1().get(id).unwrap();
        let graph = spec.generate(Scale::Tiny);
        check(&graph, QbsConfig::with_landmark_count(20), 30, 2, id.name());
    }
}

#[test]
fn qbs_is_exact_with_random_landmarks() {
    let spec = *Catalog::paper_table1().get(DatasetId::Skitter).unwrap();
    let graph = spec.generate(Scale::Tiny);
    for seed in 0..4u64 {
        check(
            &graph,
            QbsConfig {
                landmarks: LandmarkStrategy::Random { count: 15, seed },
                ..QbsConfig::default()
            },
            25,
            seed,
            "random landmarks",
        );
    }
}

#[test]
fn qbs_is_exact_with_tiny_and_huge_landmark_sets() {
    let graph = power_law::generate(&PowerLawConfig {
        vertices: 400,
        edges: 1600,
        exponent: 2.3,
        seed: 5,
    });
    for count in [1usize, 2, 3, 50, 200, 400] {
        check(
            &graph,
            QbsConfig::with_landmark_count(count),
            25,
            count as u64,
            "landmark sweep",
        );
    }
}

#[test]
fn qbs_is_exact_on_structured_extremes() {
    // Graphs with maximal path multiplicity (hypercube, grid) and graphs
    // with a unique path per pair (tree, path).
    let cases = vec![
        structured::hypercube(7),
        structured::grid(15, 15),
        structured::binary_tree(255),
        structured::path(200),
        structured::cycle(99),
        structured::barbell(15, 8),
    ];
    for (i, graph) in cases.into_iter().enumerate() {
        check(
            &graph,
            QbsConfig::with_landmark_count(12),
            25,
            i as u64,
            "structured",
        );
    }
}

#[test]
fn qbs_is_exact_on_watts_strogatz_small_worlds() {
    for p in [0.0, 0.05, 0.3, 1.0] {
        let graph = watts_strogatz::generate(&WattsStrogatzConfig {
            vertices: 500,
            neighbors: 3,
            rewire_probability: p,
            seed: 11,
        });
        let graph = qbs_graph::components::largest_component(&graph).0;
        check(
            &graph,
            QbsConfig::with_landmark_count(10),
            25,
            3,
            "watts-strogatz",
        );
    }
}

#[test]
fn coverage_and_sketch_are_consistent_with_answers() {
    // Whenever the classifier says "all through landmarks", removing the
    // landmarks must actually disconnect or lengthen the pair.
    let spec = *Catalog::paper_table1().get(DatasetId::WikiTalk).unwrap();
    let graph = spec.generate(Scale::Tiny);
    let index = QbsIndex::build(graph.clone(), QbsConfig::with_landmark_count(20));
    let filter = qbs_graph::VertexFilter::from_vertices(
        graph.num_vertices(),
        index.landmarks().iter().copied(),
    );
    let workload = QueryWorkload::sample_connected(&graph, 120, 9);
    for &(u, v) in workload.pairs() {
        if index.is_landmark(u) || index.is_landmark(v) {
            continue;
        }
        let class = qbs_core::coverage::classify_pair(&index, u, v);
        let d = index.query(u, v).unwrap().distance();
        let view = qbs_graph::FilteredGraph::new(&graph, &filter);
        let sparsified = qbs_graph::bibfs::bidirectional_distance(&view, u, v).distance;
        match class {
            qbs_core::coverage::PairCoverage::AllThroughLandmarks => {
                assert!(sparsified > d, "({u},{v}) should need a landmark");
            }
            qbs_core::coverage::PairCoverage::SomeThroughLandmarks
            | qbs_core::coverage::PairCoverage::NoneThroughLandmarks => {
                assert_eq!(sparsified, d, "({u},{v}) has a landmark-free shortest path");
            }
            qbs_core::coverage::PairCoverage::NotApplicable => {}
        }
    }
}

/// Label entries are 16-bit. A build whose labels would exceed
/// `MAX_LABEL_DISTANCE` fails with a typed error: clamping them would
/// answer `distance(1, 69999) = 65535` on this path.
#[test]
fn label_distance_overflow_is_a_typed_build_error() {
    let config = QbsConfig::with_explicit_landmarks(vec![0]);
    match QbsIndex::try_build(structured::path(70_000), config.clone()) {
        Err(QbsError::LabelOverflow { distance, limit }) => {
            assert_eq!((distance, limit), (69_999, 65_534));
        }
        Err(other) => panic!("expected a label overflow, got {other}"),
        Ok(index) => panic!(
            "the 70k path built and answers distance(1, 69999) = {:?}",
            index.distance(1, 69_999)
        ),
    }
    assert!(matches!(
        Qbs::build(structured::path(70_000), config),
        Err(QbsError::LabelOverflow { .. })
    ));
}

/// The largest representable label still builds, and answers exactly.
#[test]
fn the_largest_label_distance_builds_and_matches_bibfs() {
    // 65,535 vertices: the far end is 65,534 hops from landmark 0.
    let n = MAX_LABEL_DISTANCE as usize + 1;
    let graph = structured::path(n);
    let config = QbsConfig::with_explicit_landmarks(vec![0]);
    let index = QbsIndex::try_build(graph.clone(), config).expect("every label fits");
    let far = (n - 1) as VertexId;
    for source in [0, 1] {
        let expected = qbs_graph::bibfs::bidirectional_distance(&graph, source, far).distance;
        assert_eq!(
            index.distance(source, far).unwrap(),
            expected,
            "source {source}"
        );
    }
    assert_eq!(index.distance(0, far).unwrap(), MAX_LABEL_DISTANCE);
}
