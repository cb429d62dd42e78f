//! Round-trip and rejection suite for the versioned index artifact.
//!
//! The contract under test: `serialize → load → query` is **bit-identical** to
//! `fresh-build → query` — verdicts, witnesses, connectivity answers, and the
//! piece/batch layout itself — for every `PSI_THREADS` (CI runs this file under a
//! thread matrix). And malformed artifacts (truncated, corrupted, version-skewed,
//! semantically inconsistent) must fail with section-labelled structured errors,
//! never panics and never silently-wrong indices.

use planar_subiso::{IndexLoadError, IndexParams, Pattern, Psi, PsiIndex, PsiSnapshot, QueryError};
use proptest::prelude::*;
use psi_graph::generators as gg;
use psi_graph::io::{
    encode_csr, push_u32_slice, push_u64, SectionReadError, SectionWriter, SectionedFile,
};
use psi_graph::CsrGraph;
use psi_planar::generators as pg;
use psi_planar::planar_embedding;

fn build(embedding: &psi_planar::Embedding, params: IndexParams) -> PsiIndex {
    PsiIndex::build(embedding, params)
}

fn query_patterns() -> Vec<Pattern> {
    vec![
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::clique(4),
        Pattern::path(3), // diameter 2: servable at d = 2
        Pattern::star(3),
        Pattern::single_vertex(),
    ]
}

/// Fresh-build vs save/load: equal artifacts (structural `PartialEq` covers the
/// target, faces, every batch, and every round's window labels), and
/// bit-identical query behaviour on both served indexes.
#[test]
fn loaded_index_is_bit_identical_to_fresh_build() {
    let e = pg::triangulated_grid_embedded(24, 18);
    let fresh = build(&e, IndexParams::default());

    let dir = std::env::temp_dir().join(format!("psi_index_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.psi");
    fresh.save(&path).unwrap();
    let loaded = PsiIndex::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // The artifact itself round-trips exactly (piece/batch/window layout).
    assert_eq!(loaded, fresh);
    // Re-serialisation is byte-idempotent.
    assert_eq!(loaded.to_bytes(), fresh.to_bytes());

    let ef = PsiSnapshot::from(fresh.clone());
    let el = PsiSnapshot::from(loaded);
    for p in query_patterns() {
        assert_eq!(ef.decide(&p), el.decide(&p), "verdict diverged for {p:?}");
        assert_eq!(
            ef.find_one(&p),
            el.find_one(&p),
            "witness diverged for {p:?}"
        );
    }
    // Batch paths agree with scalar paths and with each other across the boundary.
    let pats = query_patterns();
    assert_eq!(ef.find_one_batch(&pats), el.find_one_batch(&pats));
    assert_eq!(ef.decide_batch(&pats), el.decide_batch(&pats));

    // s–t connectivity batches are identical.
    let n = fresh.target().num_vertices() as u32;
    let pairs: Vec<(u32, u32)> = (0..40u32).map(|i| (i, n - 1 - i)).collect();
    assert_eq!(ef.connectivity_batch(&pairs), el.connectivity_batch(&pairs));

    // Global connectivity from the stored faces' face–vertex graph: identical
    // across the boundary. WholeGraph mode is exponential in the face–vertex
    // treewidth, so this runs on a small separate index (the big grid above would
    // take minutes).
    let small = pg::triangulated_grid_embedded(7, 7);
    let sf = build(&small, IndexParams::default());
    let sl = PsiIndex::from_bytes(&sf.to_bytes()).unwrap();
    let whole = planar_subiso::ConnectivityMode::WholeGraph;
    let gf = PsiSnapshot::from(sf).vertex_connectivity(whole, 7);
    let gl = PsiSnapshot::from(sl).vertex_connectivity(whole, 7);
    assert_eq!(gf.connectivity, 2); // the grid corner has degree 2
    assert_eq!(gf.connectivity, gl.connectivity);
    assert_eq!(gf.cut, gl.cut);
}

/// The engine's witnesses equal the classic query path's guarantees: every witness
/// verifies, and index verdicts match fresh `SubgraphIsomorphism` verdicts on
/// dense-enough instances (one-sided error only on "no", which these patterns
/// never hit on a triangulated grid).
#[test]
fn index_witnesses_verify_against_the_target() {
    let g = gg::random_stacked_triangulation(400, 42);
    let engine = PsiSnapshot::from(Psi::builder().open(&g).unwrap().freeze());
    for p in [Pattern::triangle(), Pattern::cycle(4), Pattern::star(3)] {
        let occ = engine
            .find_one(&p)
            .unwrap()
            .unwrap_or_else(|| panic!("{p:?} not found in a stacked triangulation"));
        assert!(planar_subiso::verify_occurrence(&p, &g, &occ));
    }
    // K4 verdict matches brute force on a small instance.
    let small = gg::random_stacked_triangulation(40, 3);
    let se = PsiSnapshot::from(Psi::builder().open(&small).unwrap().freeze());
    let brute = psi_baselines::ullmann_decide(&Pattern::clique(4), &small);
    if brute {
        // one-sided error: a "yes" instance could in principle be missed, but with
        // default rounds the miss probability is ≤ 1/8 per occurrence and a stacked
        // triangulation is saturated with K4s — treat a miss as a real failure.
        assert!(se.decide(&Pattern::clique(4)).unwrap());
    } else {
        assert!(!se.decide(&Pattern::clique(4)).unwrap());
    }
}

/// Corrupt / truncated / version-skewed artifacts: structured errors, no panics.
#[test]
fn malformed_artifacts_are_rejected_with_structured_errors() {
    let e = pg::triangulated_grid_embedded(6, 6);
    let index = build(&e, IndexParams::default());
    let bytes = index.to_bytes();

    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        PsiIndex::from_bytes(&bad),
        Err(IndexLoadError::File(SectionReadError::BadMagic { .. }))
    ));

    // Version skew (container version + 1).
    let mut bad = bytes.clone();
    bad[8] = bad[8].wrapping_add(1);
    assert!(matches!(
        PsiIndex::from_bytes(&bad),
        Err(IndexLoadError::File(
            SectionReadError::UnsupportedVersion { .. }
        ))
    ));

    // Truncation at many prefix lengths: always an error, never a panic.
    for cut in [0, 4, 8, 12, 24, 64, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            PsiIndex::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }

    // Bit flips through the payload region: checksum catches every one.
    for pos in (bytes.len() / 2..bytes.len()).step_by(bytes.len() / 16) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x10;
        match PsiIndex::from_bytes(&bad) {
            Err(_) => {}
            Ok(_) => panic!("bit flip at {pos} accepted"),
        }
    }
}

/// Checksum-valid but semantically inconsistent sections (the case framing alone
/// cannot catch): the semantic validators reject with the offending section named.
#[test]
fn semantically_inconsistent_sections_are_rejected() {
    let e = pg::triangulated_grid_embedded(6, 6);
    let bytes = build(&e, IndexParams::default()).to_bytes();
    let good = sections(&bytes);

    // Rebuild the file with one section replaced by garbage (valid checksum!).
    let rebuild_with = |victim: &str, payload: Vec<u8>| -> Vec<u8> {
        replace_sections(&good, &[(victim, payload)])
    };

    for victim in ["meta", "target", "faces", "round0"] {
        let bad = rebuild_with(victim, vec![0u8; 7]);
        let err = PsiIndex::from_bytes(&bad).expect_err("garbage section accepted");
        let msg = err.to_string();
        assert!(
            msg.contains(victim),
            "error for corrupted {victim:?} does not name it: {msg}"
        );
    }

    // A round section that declares more batches than it carries.
    let mut lying = Vec::new();
    push_u64(&mut lying, 1_000_000);
    let bad = rebuild_with("round0", lying);
    assert!(matches!(
        PsiIndex::from_bytes(&bad),
        Err(IndexLoadError::Csr { .. } | IndexLoadError::Section { .. })
    ));

    // A meta section declaring u32::MAX rounds: the declared count sizes no
    // allocation, so the load fails on the first round section that is absent.
    let mut meta = good.section("meta").unwrap().to_vec();
    meta[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = PsiIndex::from_bytes(&rebuild_with("meta", meta))
        .expect_err("u32::MAX declared rounds accepted");
    assert!(
        matches!(&err, IndexLoadError::Section { section, detail }
            if section == "round3" && detail == "section missing"),
        "{err}"
    );

    // v2–v4 store a decomposition after each batch, which the load skips
    // after bounds checks. A v4 artifact whose `round0` holds one well-formed
    // one-edge batch and then `decomposition`: the load decodes `round0`
    // first, so the rounds after it, which this file lacks, are never read.
    let v4_round0 = |decomposition: &[u32]| -> Vec<u8> {
        let mut round0 = Vec::new();
        push_u64(&mut round0, 1); // one batch
        encode_csr(&gg::path(2), &mut round0);
        push_u64(&mut round0, 2); // local-to-global map
        push_u32_slice(&mut round0, &[0, 1]);
        push_u64(&mut round0, 1); // one window: cluster, level start, offset
        push_u32_slice(&mut round0, &[0, 0, 0]);
        push_u32_slice(&mut round0, decomposition);
        let mut f = SectionWriter::new(4, 4);
        for name in ["meta", "target", "faces"] {
            f.section(name, |out| {
                out.extend_from_slice(good.section(name).unwrap())
            });
        }
        f.section("round0", |out| out.extend_from_slice(&round0));
        f.finish()
    };
    // One node (the node count is a u64), its root and layered word, bag
    // offsets [0, 2], the bag {0, 1} and no children.
    let one_bag = [1, 0, 0, 0, 0, 2, 0, 1, u32::MAX, u32::MAX];
    let err = PsiIndex::from_bytes(&v4_round0(&one_bag)).expect_err("round1 is missing");
    assert!(
        matches!(&err, IndexLoadError::Section { section, detail }
            if section == "round1" && detail == "section missing"),
        "{err}"
    );
    // The same round ending inside the bag: the truncation names `round0`.
    let err = PsiIndex::from_bytes(&v4_round0(&one_bag[..7]))
        .expect_err("truncated decomposition accepted");
    assert!(
        matches!(&err, IndexLoadError::Section { section, detail }
            if section == "round0" && detail.contains("truncated decomposition")),
        "{err}"
    );
    // A decomposition that declares u64::MAX nodes: the bag-offset count
    // `nodes + 1` must not overflow.
    let huge = [u32::MAX, u32::MAX, 0, 0]; // u64::MAX nodes, root, layered word
    let err =
        PsiIndex::from_bytes(&v4_round0(&huge)).expect_err("u64::MAX-node decomposition accepted");
    assert!(
        matches!(&err, IndexLoadError::Section { section, detail }
            if section == "round0" && detail.contains("decomposition too large")),
        "{err}"
    );

    // Two well-formed one-window batches of centres 0 and 6 that both hold
    // vertex 0: clusters partition the target, and the window labels rely on
    // it, so the round is refused.
    let mut overlapping = Vec::new();
    push_u64(&mut overlapping, 2); // two batches
    for centre in [0u32, 6] {
        encode_csr(&gg::path(2), &mut overlapping);
        push_u64(&mut overlapping, 2); // local-to-global map
        push_u32_slice(&mut overlapping, &[0, centre.max(1)]);
        push_u64(&mut overlapping, 1); // one window: centre, level start, offset
        push_u32_slice(&mut overlapping, &[centre, 0, 0]);
    }
    let err = PsiIndex::from_bytes(&rebuild_with("round0", overlapping))
        .expect_err("a vertex in windows of two clusters accepted");
    assert!(
        matches!(&err, IndexLoadError::Section { section, detail }
            if section == "round0" && detail == "vertex 0 in windows of two clusters"),
        "{err}"
    );

    // Dropping a required section entirely.
    let kept: Vec<&str> = good.section_names().filter(|&n| n != "faces").collect();
    let mut f = SectionWriter::new(good.version, kept.len());
    for name in kept {
        f.section(name, |out| {
            out.extend_from_slice(good.section(name).unwrap())
        });
    }
    let err = PsiIndex::from_bytes(&f.finish()).expect_err("missing section accepted");
    assert!(err.to_string().contains("faces"));

    // Faces that are not a plane embedding of the target, under valid
    // checksums: an index of `base` whose target section (and meta edge count)
    // is swapped for `target` and whose faces section holds `walks`.
    let faces_rejected = |base: &psi_planar::Embedding, target: &CsrGraph, walks: &[Vec<u32>]| {
        let bytes = build(base, IndexParams::default()).to_bytes();
        let file = sections(&bytes);
        let mut meta = file.section("meta").unwrap().to_vec();
        let m_at = meta.len() - 8;
        meta[m_at..].copy_from_slice(&(target.num_edges() as u64).to_le_bytes());
        let mut csr = Vec::new();
        encode_csr(target, &mut csr);
        let mut faces = Vec::new();
        push_u64(&mut faces, walks.len() as u64);
        push_u64(&mut faces, walks.iter().map(Vec::len).sum::<usize>() as u64);
        let mut offset = 0;
        push_u64(&mut faces, offset);
        for walk in walks {
            offset += walk.len() as u64;
            push_u64(&mut faces, offset);
        }
        push_u32_slice(&mut faces, &walks.concat());
        let replaced = [("meta", meta), ("target", csr), ("faces", faces)];
        let err = PsiIndex::from_bytes(&replace_sections(&file, &replaced))
            .expect_err("non-embedding faces accepted");
        match err {
            IndexLoadError::Section { section, detail } if section == "faces" => detail,
            other => panic!("expected a faces error, got {other}"),
        }
    };
    // A K5 target under the faces of K5 − e.
    let k5 = gg::complete(5);
    let k5_minus_e = planar_embedding(&psi_graph::GraphBuilder::from_edges(
        5,
        &k5.edges().skip(1).collect::<Vec<_>>(),
    ))
    .unwrap();
    faces_rejected(&k5_minus_e, &k5, &k5_minus_e.faces);
    // The K5 target under pinched walks: every edge lies on two sides and
    // χ = 5 − 10 + 7 = 2, but the corners at 3 split into two rotations.
    let pinched = [
        vec![0, 1, 3],
        vec![0, 1, 4],
        vec![0, 2, 3],
        vec![0, 2, 4],
        vec![1, 2, 3],
        vec![1, 2, 4],
        vec![3, 4],
    ];
    let detail = faces_rejected(&k5_minus_e, &k5, &pinched);
    assert!(detail.contains("vertex 3"), "{detail}");
    // A 5×5 triangulated grid whose only face is the walk [0, 1, 2].
    let grid = pg::triangulated_grid_embedded(5, 5);
    faces_rejected(&grid, &grid.graph, &[vec![0, 1, 2]]);
    // A 4×4 torus grid under its own faces: every walk rule holds, genus 1.
    let torus = pg::torus_grid_embedded(4, 4);
    let base = pg::triangulated_grid_embedded(4, 4);
    let detail = faces_rejected(&base, &torus.graph, &torus.faces);
    assert!(detail.contains("genus 1"), "{detail}");
}

/// The sections of a serialised index, borrowed from its bytes.
fn sections(bytes: &[u8]) -> SectionedFile<'_> {
    SectionedFile::from_bytes(bytes, planar_subiso::INDEX_SCHEMA_VERSION).unwrap()
}

/// `file` re-serialised (with valid checksums) with the named sections' payloads
/// replaced.
fn replace_sections(file: &SectionedFile, replace: &[(&str, Vec<u8>)]) -> Vec<u8> {
    let mut f = SectionWriter::new(file.version, file.section_names().count());
    for name in file.section_names() {
        let data = match replace.iter().find(|(victim, _)| *victim == name) {
            Some((_, payload)) => payload.as_slice(),
            None => file.section(name).unwrap(),
        };
        f.section(name, |out| out.extend_from_slice(data));
    }
    f.finish()
}

/// Query admission: structured [`QueryError`]s for unservable patterns, identical
/// before and after a round trip.
#[test]
fn unservable_queries_fail_identically_across_the_boundary() {
    let e = pg::triangulated_grid_embedded(8, 8);
    let fresh = build(&e, IndexParams::default());
    let loaded = PsiIndex::from_bytes(&fresh.to_bytes()).unwrap();
    let ef = PsiSnapshot::from(fresh);
    let el = PsiSnapshot::from(loaded);
    for p in [
        Pattern::clique(5),                        // k too large
        Pattern::path(4),                          // diameter too large
        Pattern::from_edges(4, &[(0, 1), (2, 3)]), // disconnected
    ] {
        let a = ef.decide(&p);
        let b = el.decide(&p);
        assert!(a.is_err());
        assert_eq!(a, b);
    }
    assert_eq!(
        ef.connectivity_batch(&[(3, 3)]),
        vec![Err(QueryError::IdenticalEndpoints { vertex: 3 })]
    );
}

/// s–t connectivity batches cross-checked against the Dinic baseline (non-adjacent
/// pairs — see `st_connectivity_capped` docs for adjacent-pair semantics).
#[test]
fn connectivity_batch_matches_flow_baseline_after_round_trip() {
    let g = gg::random_stacked_triangulation(120, 9);
    let index = Psi::builder().open(&g).unwrap().freeze();
    let engine = PsiSnapshot::from(PsiIndex::from_bytes(&index.to_bytes()).unwrap());
    let n = g.num_vertices() as u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|s| ((s + 1)..n).map(move |t| (s, t)))
        .filter(|&(s, t)| !g.has_edge(s, t))
        .take(150)
        .collect();
    let answers = engine.connectivity_batch(&pairs);
    for (&(s, t), ans) in pairs.iter().zip(&answers) {
        let expected = psi_baselines::maxflow::local_vertex_connectivity(&g, s, t, 5);
        assert_eq!(*ans, Ok(expected), "pair ({s}, {t})");
    }
}

fn arb_planar_embedded() -> impl Strategy<Value = psi_planar::Embedding> {
    (0usize..4, 3usize..9, 3usize..9, 0u64..32).prop_map(|(family, a, b, seed)| match family {
        0 => pg::triangulated_grid_embedded(a, b),
        1 => pg::grid_embedded(a, b),
        2 => pg::stacked_triangulation_embedded(a * 3 + 4, seed),
        _ => planar_embedding(&gg::random_tree(a * b + 2, seed)).unwrap(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random planar targets and parameter settings: the artifact round-trips
    /// exactly and every query (verdict + witness) is preserved.
    #[test]
    fn round_trip_preserves_queries(
        e in arb_planar_embedded(),
        rounds in 1u32..4,
        seed in 0u64..1024,
    ) {
        let params = IndexParams { rounds, seed, ..IndexParams::default() };
        let fresh = PsiIndex::build(&e, params);
        let loaded = PsiIndex::from_bytes(&fresh.to_bytes()).unwrap();
        prop_assert_eq!(&loaded, &fresh);
        prop_assert_eq!(loaded.to_bytes(), fresh.to_bytes());
        let ef = PsiSnapshot::from(fresh);
        let el = PsiSnapshot::from(loaded);
        for p in query_patterns() {
            prop_assert_eq!(ef.decide(&p), el.decide(&p));
            prop_assert_eq!(ef.find_one(&p), el.find_one(&p));
        }
    }

    /// Random corruption of a valid artifact never panics: every mutation either
    /// still parses to the identical index (mutation hit dead bytes — impossible
    /// here, checksums cover all payloads) or fails with a structured error.
    #[test]
    fn random_corruption_never_panics(
        flip_pos in 0usize..4096,
        flip_mask in 1u8..=255,
    ) {
        let e = pg::triangulated_grid_embedded(5, 5);
        let index = PsiIndex::build(&e, IndexParams { rounds: 1, ..IndexParams::default() });
        let mut bytes = index.to_bytes();
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= flip_mask;
        match PsiIndex::from_bytes(&bytes) {
            Ok(loaded) => prop_assert_eq!(loaded, index),
            Err(err) => {
                // Error formatting must not panic either.
                let _ = err.to_string();
            }
        }
    }
}
