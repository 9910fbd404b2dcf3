import numpy as np
import pytest

from textgraph import graph as gr
from textgraph.errors import ContractError, LoadError


def tiny_graph():
    """A(3) --r--> B(2), plus B --s--> B self-relation."""
    return gr.HeteroGraph(
        node_types=["A", "B"],
        node_counts=[3, 2],
        texts=[["a zero", "a one", ""], ["b zero", "b one"]],
        relations=[gr.Relation("A", "r", "B"), gr.Relation("B", "s", "B")],
        edges=[(np.array([0, 1, 2]), np.array([1, 0, 1])),
               (np.array([0]), np.array([1]))],
    )


@pytest.fixture(scope="module")
def synth():
    return gr.generate_synthetic(gr.SyntheticSpec(nodes_per_type=200, seed=3))


# ----------------------------------------------------------------- structure


def test_message_relations_are_both_directions():
    g = tiny_graph()
    assert [m.name for m in g.message_relations] == ["r", "r-rev", "s", "s-rev"]
    # B1 receives from A0 and A2 under r (in-edges)
    np.testing.assert_array_equal(np.sort(g.msg_neighbors(0, 1)), [0, 2])
    # A0 receives from B1 under r-rev (its out-edge flipped)
    np.testing.assert_array_equal(g.msg_neighbors(1, 0), [1])
    # s: B1 receives from B0; s-rev: B0 receives from B1
    np.testing.assert_array_equal(g.msg_neighbors(2, 1), [0])
    np.testing.assert_array_equal(g.msg_neighbors(3, 0), [1])


def _check_adjacency_against_edges(g):
    """Every neighbor query of g against a scan of g.edges, in edge order."""
    m = len(g.message_relations)
    off = g.type_offsets
    adj = g.message_adjacency()
    union = gr._union_neighbors(g)
    assert adj.offsets[-1] == 2 * g.total_edges
    for u in range(g.total_nodes):
        t = int(np.searchsorted(off, u, side="right")) - 1
        l = u - int(off[t])
        union_want = []
        for ri, (rel, (src, dst)) in enumerate(zip(g.relations, g.edges)):
            si, di = g.type_index(rel.src_type), g.type_index(rel.dst_type)
            out_tails = dst[src == l].tolist() if si == t else []
            in_heads = src[dst == l].tolist() if di == t else []
            # message relation 2r sends head -> tail, 2r + 1 tail -> head
            assert adj.neighbors(u * m + 2 * ri).tolist() == \
                [h + int(off[si]) for h in in_heads]
            assert adj.neighbors(u * m + 2 * ri + 1).tolist() == \
                [d + int(off[di]) for d in out_tails]
            if di == t:
                assert g.msg_neighbors(2 * ri, l).tolist() == in_heads
            if si == t:
                assert g.msg_neighbors(2 * ri + 1, l).tolist() == out_tails
                assert g.tails(ri, l).tolist() == out_tails
            union_want += [d + int(off[di]) for d in out_tails]
            union_want += [h + int(off[si]) for h in in_heads]
        assert union.neighbors(u).tolist() == union_want


def test_neighbor_queries_match_edge_scan(synth):
    _check_adjacency_against_edges(tiny_graph())
    _check_adjacency_against_edges(synth)


def test_csr_matches_brute_force(rng):
    n_src, n_dst, m = 17, 13, 120
    src = rng.integers(0, n_src, size=m)
    dst = rng.integers(0, n_dst, size=m)
    csr = gr.Csr.from_edges(src, dst, n_src)
    for i in range(n_src):
        np.testing.assert_array_equal(np.sort(csr.neighbors(i)), np.sort(dst[src == i]))
    assert csr.offsets[-1] == m


def test_global_index_round_trip():
    g = tiny_graph()
    assert g.total_nodes == 5
    np.testing.assert_array_equal(g.type_offsets, [0, 3, 5])


def test_out_of_range_edge_rejected():
    with pytest.raises(ContractError, match="out of range"):
        gr.HeteroGraph(["A"], [2], [["", ""]],
                       [gr.Relation("A", "r", "A")],
                       [(np.array([0]), np.array([5]))])


# ------------------------------------------------------------------ file IO


def test_save_load_round_trip(tmp_path, synth):
    gr.save_graph(synth, tmp_path)
    g2 = gr.load_graph(tmp_path)
    assert g2.node_types == synth.node_types
    assert g2.node_counts == synth.node_counts
    assert g2.texts == synth.texts
    assert [r.key() for r in g2.relations] == [r.key() for r in synth.relations]
    for (s1, d1), (s2, d2) in zip(synth.edges, g2.edges):
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(d1, d2)
    for t in range(2):
        np.testing.assert_array_equal(synth.node_class_ids[t], g2.node_class_ids[t])
        np.testing.assert_array_equal(synth.node_splits[t], g2.node_splits[t])
    l1, l2 = synth.edge_labels[0], g2.edge_labels[0]
    np.testing.assert_array_equal(l1.src, l2.src)
    np.testing.assert_array_equal(l1.dst, l2.dst)
    np.testing.assert_array_equal(l1.class_ids, l2.class_ids)
    np.testing.assert_array_equal(l1.splits, l2.splits)


def _write(path, text):
    path.write_text(text)


def test_loader_errors_carry_file_and_line(tmp_path):
    _write(tmp_path / "nodes.tsv", "node_type\tlocal_id\ttext\nA\t0\thello\nA\tx\toops\n")
    _write(tmp_path / "edges.tsv", "src_type\tsrc_id\trelation\tdst_type\tdst_id\n")
    with pytest.raises(LoadError, match=r"nodes\.tsv:3"):
        gr.load_graph(tmp_path)


def test_loader_rejects_sparse_ids(tmp_path):
    _write(tmp_path / "nodes.tsv", "node_type\tlocal_id\ttext\nA\t0\t\nA\t2\t\n")
    _write(tmp_path / "edges.tsv", "src_type\tsrc_id\trelation\tdst_type\tdst_id\n")
    with pytest.raises(LoadError, match="dense"):
        gr.load_graph(tmp_path)


def test_loader_rejects_unknown_type_and_range(tmp_path):
    _write(tmp_path / "nodes.tsv", "node_type\tlocal_id\ttext\nA\t0\t\n")
    _write(tmp_path / "edges.tsv",
           "src_type\tsrc_id\trelation\tdst_type\tdst_id\nA\t0\tr\tB\t0\n")
    with pytest.raises(LoadError, match=r"edges\.tsv:2.*'B'"):
        gr.load_graph(tmp_path)
    _write(tmp_path / "edges.tsv",
           "src_type\tsrc_id\trelation\tdst_type\tdst_id\nA\t0\tr\tA\t7\n")
    with pytest.raises(LoadError, match=r"edges\.tsv:2.*out of range"):
        gr.load_graph(tmp_path)


def test_loader_rejects_bad_split_and_wrong_field_count(tmp_path):
    _write(tmp_path / "nodes.tsv", "node_type\tlocal_id\ttext\nA\t0\t\n")
    _write(tmp_path / "edges.tsv",
           "src_type\tsrc_id\trelation\tdst_type\tdst_id\nA\t0\tr\tA\t0\n")
    _write(tmp_path / "node_labels.tsv",
           "node_type\tlocal_id\tclass_id\tsplit\nA\t0\t1\tdev\n")
    with pytest.raises(LoadError, match=r"node_labels\.tsv:2.*split"):
        gr.load_graph(tmp_path)
    _write(tmp_path / "node_labels.tsv", "node_type\tlocal_id\tclass_id\tsplit\nA\t0\t1\n")
    with pytest.raises(LoadError, match="expected 4"):
        gr.load_graph(tmp_path)


def test_loader_rejects_label_for_missing_edge(tmp_path):
    _write(tmp_path / "nodes.tsv", "node_type\tlocal_id\ttext\nA\t0\t\nA\t1\t\n")
    _write(tmp_path / "edges.tsv",
           "src_type\tsrc_id\trelation\tdst_type\tdst_id\nA\t0\tr\tA\t1\n")
    _write(tmp_path / "edge_labels.tsv",
           "src_type\tsrc_id\trelation\tdst_type\tdst_id\tclass_id\tsplit\n"
           "A\t1\tr\tA\t0\t0\ttrain\n")
    with pytest.raises(LoadError, match=r"edge_labels\.tsv:2.*not in edges"):
        gr.load_graph(tmp_path)


def test_missing_required_file(tmp_path):
    with pytest.raises(LoadError, match="nodes.tsv.*not found"):
        gr.load_graph(tmp_path)


@pytest.mark.parametrize("name", ["nodes.tsv", "edges.tsv", "node_labels.tsv",
                                  "edge_labels.tsv"])
def test_loader_rejects_missing_or_wrong_header(tmp_path, name):
    """Line 1 is a header, never a row: without one the first row would be
    dropped in silence, or fail a later check with a misleading message."""
    gr.save_graph(gr.generate_synthetic(gr.SyntheticSpec(nodes_per_type=40)),
                  tmp_path)
    path = tmp_path / name
    header, rows = path.read_text().split("\n", 1)
    for text in (rows, "x" + header + "\n" + rows):
        path.write_text(text)
        with pytest.raises(LoadError, match=rf"{name}:1: expected the header"):
            gr.load_graph(tmp_path)


# values a hand-edited or damaged graph file may hold in any field
FUZZ_VALUES = ("", "0", "1", "7", "-1", "x", "1.5", " 2", "1e3", "query",
               "product", "purchase", "train", "test", "-",
               "99999999999999999999", "-99999999999999999999")


def test_loader_fuzz_single_field_mutations(tmp_path):
    """Replacing one field of one line of a saved graph, header lines
    included, leaves a graph that loads or raises LoadError or ContractError;
    nothing else escapes the loader."""
    gr.save_graph(gr.generate_synthetic(gr.SyntheticSpec(nodes_per_type=30)),
                  tmp_path / "base")
    files = {name: (tmp_path / "base" / name).read_text().split("\n")
             for name in sorted(gr.TSV_COLUMNS)}
    names = sorted(files)
    rng = np.random.default_rng(0)
    outcomes = {"loaded": 0, "LoadError": 0, "ContractError": 0}
    for trial in range(300):
        name = names[rng.integers(len(names))]
        lines = list(files[name])
        i = int(rng.integers(len(lines) - 1))  # the last is after the final \n
        fields = lines[i].split("\t")
        fields[rng.integers(len(fields))] = FUZZ_VALUES[
            rng.integers(len(FUZZ_VALUES))]
        lines[i] = "\t".join(fields)
        d = tmp_path / f"m{trial}"
        d.mkdir()
        for other, text in files.items():
            (d / other).write_text("\n".join(lines if other == name else text))
        try:
            gr.load_graph(d)
            outcomes["loaded"] += 1
        except (LoadError, ContractError) as e:
            outcomes[type(e).__name__] += 1
    assert outcomes["loaded"] and outcomes["LoadError"], outcomes


# ------------------------------------------------------------ synthetic data


def test_synthetic_shape_and_labels(synth):
    assert synth.node_types == ["query", "product"]
    assert synth.node_counts == [200, 200]
    assert synth.designated_relation == 0
    # node labels are the planted clusters, all nodes labeled, 4 classes
    for t in range(2):
        assert set(np.unique(synth.node_class_ids[t])) == {0, 1, 2, 3}
        counts = np.bincount(synth.node_splits[t], minlength=3)
        np.testing.assert_allclose(counts / 200.0, [0.6, 0.1, 0.3], atol=0.02)
    labels = synth.edge_labels[0]
    qc = synth.node_class_ids[0][labels.src]
    pc = synth.node_class_ids[1][labels.dst]
    np.testing.assert_array_equal(labels.class_ids, (pc - qc) % 4)


def test_synthetic_edges_favor_intra_cluster(synth):
    s, d = synth.edges[0]
    same = (synth.node_class_ids[0][s] == synth.node_class_ids[1][d]).mean()
    assert same > 0.7


def test_synthetic_modularity_exceeds_threshold(synth):
    # direct formula on the undirected union graph, communities = planted clusters
    comm = np.concatenate(synth.node_class_ids)
    degrees = np.zeros(synth.total_nodes)
    m = 0
    intra = np.zeros(4)
    for rel, (src, dst) in zip(synth.relations, synth.edges):
        si = synth.type_index(rel.src_type)
        di = synth.type_index(rel.dst_type)
        gs = src + synth.type_offsets[si]
        gd = dst + synth.type_offsets[di]
        m += gs.size
        np.add.at(degrees, gs, 1.0)
        np.add.at(degrees, gd, 1.0)
        same = comm[gs] == comm[gd]
        np.add.at(intra, comm[gs][same], 1.0)
    deg_sum = np.array([degrees[comm == c].sum() for c in range(4)])
    q = (intra / m - (deg_sum / (2.0 * m)) ** 2).sum()
    assert q > 0.3


def test_synthetic_text_is_cluster_sliced(synth):
    # tokens of a cluster-0 query concentrate in the first vocab quarter
    spec = gr.SyntheticSpec()
    i = int(np.nonzero(synth.node_class_ids[0] == 0)[0][0])
    toks = synth.texts[0][i].split()
    in_slice = sum(1 for t in toks if int(t[1:]) < 30)
    assert len(toks) == spec.tokens_per_node
    assert in_slice > spec.tokens_per_node // 2


def test_synthetic_spec_validation():
    with pytest.raises(ContractError):
        gr.generate_synthetic(gr.SyntheticSpec(clusters=1))
    with pytest.raises(ContractError):
        gr.generate_synthetic(gr.SyntheticSpec(intra_p=0.01, inter_p=0.01))
    with pytest.raises(ContractError):
        gr.generate_synthetic(gr.SyntheticSpec(intra_p=1.5))


def test_link_edges_split_semantics(synth):
    rels, srcs, _ = synth.link_edges(gr.TRAIN)
    # unlabeled relation 1 contributes everything; labeled relation 0 only train rows
    n_rel1 = synth.edges[1][0].size
    n_rel0_train = int((synth.edge_labels[0].splits == gr.TRAIN).sum())
    assert (rels == 1).sum() == n_rel1
    assert (rels == 0).sum() == n_rel0_train
    rels_v, _, _ = synth.link_edges(gr.VALID)
    assert set(np.unique(rels_v)) == {0}


# ------------------------------------------------------------- ego sampling


def bipartite_20_21():
    """Complete bipartite Q(20) -> P(21): every P node has 20 in-neighbors,
    every Q node has 21 out-neighbors."""
    src = np.repeat(np.arange(20), 21)
    dst = np.tile(np.arange(21), 20)
    return gr.HeteroGraph(["Q", "P"], [20, 21],
                          [[""] * 20, [""] * 21],
                          [gr.Relation("Q", "e", "P")],
                          [(src, dst)])


def test_expansion_slots_exactly_421():
    g = bipartite_20_21()
    batch = gr.sample_neighbors(g, [(1, 0)], fanouts=20, num_layers=2, rng=0)
    assert batch.expansion_slots == 421
    assert batch.num_sources <= 421


def test_ego_blocks_respect_structure(synth):
    rng = np.random.default_rng(5)
    targets = np.stack([np.zeros(8, dtype=np.int64),
                        rng.integers(0, 200, size=8)], axis=1)
    batch = gr.sample_neighbors(synth, targets, fanouts=3, num_layers=2, rng=7)
    assert len(batch.blocks) == 2
    # chaining: each block's targets are the next block's full source list
    inner, outer = batch.blocks
    np.testing.assert_array_equal(inner.src_refs[:inner.num_targets], outer.src_refs)
    np.testing.assert_array_equal(outer.src_refs[:outer.num_targets], batch.target_refs)
    # every sampled edge is a real graph edge under its message relation
    for block in batch.blocks:
        for mi, (src_pos, dst_pos) in enumerate(block.edges):
            assert len(src_pos) == len(dst_pos)
            for sp, dp in zip(src_pos.tolist(), dst_pos.tolist()):
                assert dp < block.num_targets
                st, sl = block.src_refs[sp]
                dt, dl = block.src_refs[dp]
                mr = synth.message_relations[mi]
                assert (st, dt) == (mr.src_type, mr.dst_type)
                assert sl in synth.msg_neighbors(mi, dl)


def test_ego_fanout_cap_and_determinism(synth):
    b1 = gr.sample_neighbors(synth, [(0, 3)], fanouts=2, num_layers=2, rng=11)
    b2 = gr.sample_neighbors(synth, [(0, 3)], fanouts=2, num_layers=2, rng=11)
    for x, y in zip(b1.blocks, b2.blocks):
        np.testing.assert_array_equal(x.src_refs, y.src_refs)
        for (s1, d1), (s2, d2) in zip(x.edges, y.edges):
            np.testing.assert_array_equal(s1, s2)
            np.testing.assert_array_equal(d1, d2)
    # cap: no target receives more than fanout messages per relation
    for block in b1.blocks:
        for src_pos, dst_pos in block.edges:
            if len(dst_pos):
                assert np.bincount(dst_pos).max() <= 2


def test_ego_saturating_fanout_reaches_two_hop_closure():
    g = tiny_graph()
    batch = gr.sample_neighbors(g, [(1, 1)], fanouts=100, num_layers=2, rng=0)
    # hop 1: A0, A2 (r in-edges), B0 (s); hop 2 adds A1 via B0's r in-edge
    got = {tuple(r) for r in batch.source_refs.tolist()}
    assert got == {(1, 1), (0, 0), (0, 2), (1, 0), (0, 1)}


def test_ego_isolated_target():
    g = gr.HeteroGraph(["A"], [3], [["", "", ""]],
                       [gr.Relation("A", "r", "A")],
                       [(np.array([0]), np.array([1]))])
    batch = gr.sample_neighbors(g, [(0, 2)], fanouts=4, num_layers=2, rng=0)
    assert batch.expansion_slots == 1
    for block in batch.blocks:
        np.testing.assert_array_equal(block.src_refs, [[0, 2]])
        assert all(s.size == 0 for s, _ in block.edges)


def test_ego_duplicate_targets_dedup_and_index():
    g = tiny_graph()
    batch = gr.sample_neighbors(g, [(1, 1), (1, 0), (1, 1)], fanouts=2,
                                num_layers=1, rng=0)
    np.testing.assert_array_equal(batch.target_refs, [[1, 1], [1, 0]])
    np.testing.assert_array_equal(batch.target_index([(1, 0), (1, 1)]), [1, 0])
    with pytest.raises(ContractError, match="not a target"):
        batch.target_index([(0, 0)])


def _reference_sample(graph, refs, fanouts, num_layers, rng):
    """The sampler as a per-node loop that interns one node at a time: the
    oracle for the array-form sample_neighbors."""
    mrels = graph.message_relations
    fan = gr._normalize_fanouts(fanouts, len(mrels))
    pos_of, nodes = {}, []

    def intern(t, l):
        if (t, l) not in pos_of:
            pos_of[(t, l)] = len(nodes)
            nodes.append((t, l))
        return pos_of[(t, l)]

    target_pos = list(dict.fromkeys(intern(int(t), int(l)) for t, l in refs))
    expanded = {}
    slots = len(target_pos)
    frontier = list(target_pos)
    for _ in range(num_layers):
        discovered = []
        for p in frontier:
            if p in expanded:
                continue
            t, l = nodes[p]
            per_rel = []
            for mi, mr in enumerate(mrels):
                nbrs = graph.msg_neighbors(mi, l) if mr.dst_type == t else gr._EMPTY
                if nbrs.size > fan[mi]:
                    nbrs = rng.choice(nbrs, size=fan[mi], replace=False)
                slots += int(nbrs.size)
                per_rel.append([intern(mr.src_type, x) for x in nbrs.tolist()])
                discovered.extend(per_rel[-1])
            expanded[p] = per_rel
        frontier = list(dict.fromkeys(discovered))

    blocks = []
    tgt = list(target_pos)
    for _ in range(num_layers):
        local_of = {p: i for i, p in enumerate(tgt)}
        src_order = list(tgt)
        e_src = [[] for _ in mrels]
        e_dst = [[] for _ in mrels]
        for dst_local, p in enumerate(tgt):
            for mi, nbr_pos in enumerate(expanded[p]):
                for q in nbr_pos:
                    if q not in local_of:
                        local_of[q] = len(src_order)
                        src_order.append(q)
                    e_src[mi].append(local_of[q])
                    e_dst[mi].append(dst_local)
        blocks.append((np.array([nodes[p] for p in src_order]).reshape(-1, 2),
                       len(tgt), list(zip(e_src, e_dst))))
        tgt = src_order
    targets = np.array([nodes[p] for p in target_pos]).reshape(-1, 2)
    return blocks[::-1], targets, slots


def with_isolated_node(graph):
    """graph plus one texted, edgeless node of type 0, the last local id."""
    counts = list(graph.node_counts)
    counts[0] += 1
    texts = [list(t) for t in graph.texts]
    texts[0].append("lonely")
    return gr.HeteroGraph(graph.node_types, counts, texts, graph.relations,
                          graph.edges)


@pytest.mark.parametrize("fanouts", [3, [1, 4, 2, 6], 10_000],
                         ids=["int", "per-relation", "saturating"])
@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_sampler_matches_per_node_reference(synth, fanouts, num_layers):
    g = with_isolated_node(synth)
    isolated = g.node_counts[0] - 1
    for seed in range(4):
        draw = np.random.default_rng(100 + seed)
        targets = np.stack([draw.integers(0, 2, size=12),
                            draw.integers(0, 200, size=12)], axis=1)
        # repeated targets, and the isolated node among them
        targets = np.concatenate([targets, targets[:4], [[0, isolated]]])
        rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
        blocks, target_refs, slots = _reference_sample(g, targets, fanouts,
                                                       num_layers, rng_ref)
        batch = gr.sample_neighbors(g, targets, fanouts, num_layers, rng_new)
        np.testing.assert_array_equal(batch.target_refs, target_refs)
        assert batch.expansion_slots == slots
        assert len(batch.blocks) == len(blocks)
        for got, (src_refs, num_targets, edges) in zip(batch.blocks, blocks):
            np.testing.assert_array_equal(got.src_refs, src_refs)
            assert got.num_targets == num_targets
            assert len(got.edges) == len(edges)
            for (s_got, d_got), (s_ref, d_ref) in zip(got.edges, edges):
                np.testing.assert_array_equal(s_got, s_ref)
                np.testing.assert_array_equal(d_got, d_ref)
        # the same draws were made, in the same order
        assert rng_new.random() == rng_ref.random()


def test_ego_rejects_bad_input():
    g = tiny_graph()
    with pytest.raises(ContractError, match="at least one target"):
        gr.sample_neighbors(g, [], fanouts=2, num_layers=1)
    with pytest.raises(ContractError, match="out of range"):
        gr.sample_neighbors(g, [(0, 99)], fanouts=2, num_layers=1)
    with pytest.raises(ContractError, match="fanouts must be positive"):
        gr.sample_neighbors(g, [(0, 0)], fanouts=0, num_layers=1)
    with pytest.raises(ContractError, match="4 fanouts"):
        gr.sample_neighbors(g, [(0, 0)], fanouts=[1, 2], num_layers=1)


# ------------------------------------------------------------- partitioning


def test_partitions_are_balanced(synth):
    pmap = gr.assign_partitions(synth, 4, rng=0)
    sizes = np.bincount(pmap.leaf_of, minlength=4)
    assert sizes.max() - sizes.min() <= 1
    assert (pmap.leaf_of >= 0).all()
    np.testing.assert_array_equal(pmap.group_of_leaf, [0, 0, 1, 1])


def test_partitions_capture_locality(synth):
    pmap = gr.assign_partitions(synth, 4, rng=0)
    adj_pairs = []
    for rel, (src, dst) in zip(synth.relations, synth.edges):
        si = synth.type_index(rel.src_type)
        di = synth.type_index(rel.dst_type)
        adj_pairs.append((src + synth.type_offsets[si], dst + synth.type_offsets[di]))
    gs = np.concatenate([p[0] for p in adj_pairs])
    gd = np.concatenate([p[1] for p in adj_pairs])
    observed = (pmap.leaf_of[gs] == pmap.leaf_of[gd]).mean()
    rng = np.random.default_rng(1)
    baseline = max(
        (lambda perm: (perm[gs] == perm[gd]).mean())(rng.permutation(pmap.leaf_of))
        for _ in range(5)
    )
    assert observed > baseline + 0.1


def test_partitions_validate_leaf_count(synth):
    with pytest.raises(ContractError):
        gr.assign_partitions(synth, 1)


# ---------------------------------------------------------- target sampling


def test_sample_targets_global_permutation(synth):
    refs, _ = synth.node_label_rows(gr.TRAIN)
    out = gr.sample_targets(synth, "node", refs.shape[0], rng=0)
    assert not out.with_replacement
    got = {tuple(r) for r in out.node_refs.tolist()}
    want = {tuple(r) for r in refs.tolist()}
    assert got == want  # batch == pool size -> a permutation of the pool


def test_sample_targets_replacement_flag(synth):
    refs, _ = synth.node_label_rows(gr.TRAIN)
    out = gr.sample_targets(synth, "node", refs.shape[0] + 1, rng=0)
    assert out.with_replacement


def test_sample_targets_partition_local(synth):
    pmap = gr.assign_partitions(synth, 4, rng=0)
    out = gr.sample_targets(synth, "node", 16, mode="partition_local",
                            partition_map=pmap, rng=2)
    assert out.leaf is not None
    gidx = synth.type_offsets[out.node_refs[:, 0]] + out.node_refs[:, 1]
    assert (pmap.leaf_of[gidx] == out.leaf).all()


def test_sample_targets_edge_and_link(synth):
    out = gr.sample_targets(synth, "edge", 8, rng=0)
    assert out.kind == "edges" and out.edge_classes is not None
    assert (out.edge_rels == 0).all()
    link = gr.sample_targets(synth, "link", 8, rng=0)
    assert link.edge_classes is None
    for ri, s, d in zip(link.edge_rels, link.edge_srcs, link.edge_dsts):
        if ri == 0:
            assert int(d) in synth.tails(0, int(s)).tolist()


def test_sample_targets_validation(synth):
    with pytest.raises(ContractError):
        gr.sample_targets(synth, "node", 0)
    with pytest.raises(ContractError):
        gr.sample_targets(synth, "node", 4, mode="partition_local")
    with pytest.raises(ContractError):
        gr.sample_targets(synth, "bogus", 4)


def test_loader_keeps_dash_as_text_and_empty_type_textless(tmp_path):
    _write(tmp_path / "nodes.tsv",
           "node_type\tlocal_id\ttext\nA\t0\t-\nA\t1\t-\nB\t0\t\nB\t1\t\n")
    _write(tmp_path / "edges.tsv",
           "src_type\tsrc_id\trelation\tdst_type\tdst_id\nA\t0\tr\tB\t1\n")
    g = gr.load_graph(tmp_path)
    assert g.texts == [["-", "-"], ["", ""]]
    assert g.has_text(0) and not g.has_text(1)
    gr.save_graph(g, tmp_path / "again")
    assert gr.load_graph(tmp_path / "again").texts == g.texts
