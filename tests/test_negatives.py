import numpy as np
import pytest

from textgraph import graph as gr
from textgraph import negatives as ng
from textgraph.errors import ContractError


@pytest.fixture(scope="module")
def synth():
    return gr.generate_synthetic(gr.SyntheticSpec(nodes_per_type=300, seed=1))


def _positives(graph, n, rng):
    rels, srcs, dsts = graph.link_edges(gr.TRAIN)
    idx = rng.choice(rels.size, size=n, replace=False)
    return rels[idx], srcs[idx], dsts[idx]


def test_layout_and_labels(synth):
    rng = np.random.default_rng(0)
    rels, heads, tails = _positives(synth, 8, rng)
    batch = ng.corrupt_independent(synth, rels, heads, tails, k=3, rng=1)
    assert len(batch) == 8 + 24
    assert batch.positives_count == 8 and batch.negatives_per_positive == 3
    assert (batch.labels[:8] == 1).all() and (batch.labels[8:] == -1).all()
    # negative j of positive i keeps i's relation and exactly one endpoint
    for i in range(8):
        for j in range(3):
            row = 8 + i * 3 + j
            assert batch.rels[row] == rels[i]
            same_head = batch.heads[row] == heads[i]
            same_tail = batch.tails[row] == tails[i]
            assert same_head != same_tail  # one side changed, the other kept


def test_independent_determinism(synth):
    rng = np.random.default_rng(2)
    rels, heads, tails = _positives(synth, 16, rng)
    a = ng.corrupt_independent(synth, rels, heads, tails, k=4, rng=9)
    b = ng.corrupt_independent(synth, rels, heads, tails, k=4, rng=9)
    np.testing.assert_array_equal(a.heads, b.heads)
    np.testing.assert_array_equal(a.tails, b.tails)


def test_joint_endpoint_bound_holds(synth):
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(4, 40))
        rels, heads, tails = _positives(synth, n, rng)
        k = int(rng.integers(1, 8))
        batch = ng.corrupt_joint(synth, rels, heads, tails, k=k, rng=trial)
        assert batch.distinct_endpoints <= 3 * n
        # recount with a brute-force set to trust the field
        want = ng.count_distinct_endpoints(synth, batch.rels, batch.heads, batch.tails)
        assert batch.distinct_endpoints == want


def test_joint_negatives_are_valid_corruptions(synth):
    rng = np.random.default_rng(4)
    rels, heads, tails = _positives(synth, 12, rng)
    batch = ng.corrupt_joint(synth, rels, heads, tails, k=2, rng=5)
    for i in range(12):
        for j in range(2):
            row = 12 + i * 2 + j
            assert batch.rels[row] == rels[i]
            assert (batch.heads[row] == heads[i]) or (batch.tails[row] == tails[i])


def test_independent_usually_exceeds_joint_bound(synth):
    # with 300-node types and n=64, k=8, fresh draws blow past 3n fast
    rng = np.random.default_rng(5)
    rels, heads, tails = _positives(synth, 64, rng)
    wider = 0
    for t in range(10):
        ind = ng.corrupt_independent(synth, rels, heads, tails, k=8, rng=100 + t)
        if ind.distinct_endpoints > 3 * 64:
            wider += 1
    assert wider >= 9


def test_count_distinct_endpoints_small():
    g = gr.HeteroGraph(["A", "B"], [3, 3], [[""] * 3, [""] * 3],
                       [gr.Relation("A", "r", "B")],
                       [(np.array([0, 1]), np.array([0, 0]))])
    # rows: (A0, B0), (A1, B0) -> endpoints {A0, A1, B0}
    assert ng.count_distinct_endpoints(g, [0, 0], [0, 1], [0, 0]) == 3


def test_singleton_types_fallback_and_pool_error():
    g = gr.HeteroGraph(["A", "B"], [1, 1], [[""], [""]],
                       [gr.Relation("A", "r", "B")],
                       [(np.array([0]), np.array([0]))])
    batch = ng.corrupt_independent(g, [0], [0], [0], k=2, rng=0)
    assert batch.corrupt_fallback
    with pytest.raises(ContractError, match="pool"):
        ng.corrupt_joint(g, [0], [0], [0], k=1, rng=0)


def _reference_joint(graph, rels, heads, tails, k, rng):
    """corrupt_joint's fill as a per-positive scan of the pool, cyclically
    from the slot after the positive, then around the compatible slots again
    from the first: the oracle for the index-rule fill.  Returns the
    negatives' heads and tails, and whether any positive wrapped around."""
    head_types, tail_types = ng.endpoint_types(graph, rels)
    n = rels.size
    pool = []  # (type, id) per slot, None when both types are singletons
    for s in range(n):
        types = (head_types[s], tail_types[s])
        drawn = ng._corrupt_one_side(rng, graph, types,
                                     (int(heads[s]), int(tails[s])))
        pool.append(None if drawn is None else (int(types[drawn[0]]), drawn[1]))
    neg_heads, neg_tails = np.repeat(heads, k), np.repeat(tails, k)
    wrapped = False
    for i in range(n):
        ht, tt = int(head_types[i]), int(tail_types[i])
        taken = 0
        for step in range(n):
            s = (i + 1 + step) % n
            if pool[s] is None:
                continue
            pt, pid = pool[s]
            row = i * k + taken
            if pt == tt:
                neg_tails[row] = pid
            elif pt == ht:
                neg_heads[row] = pid
            else:
                continue
            taken += 1
            if taken == k:
                break
        if taken < k:
            compatible = [s for s in range(n)
                          if pool[s] is not None and pool[s][0] in (ht, tt)]
            if not compatible:
                raise ContractError(
                    f"joint pool has no entity compatible with positive {i} "
                    f"(types {graph.node_types[ht]}/{graph.node_types[tt]})")
            wrapped = True
            c = 0
            while taken < k:
                pt, pid = pool[compatible[c % len(compatible)]]
                row = i * k + taken
                if pt == tt:
                    neg_tails[row] = pid
                else:
                    neg_heads[row] = pid
                taken += 1
                c += 1
    return neg_heads, neg_tails, wrapped


def _singleton_types_graph():
    """A and D have one node each, so D-w-D positives draw no pool slot and
    A-r-B, A-u-C ones always corrupt their tail."""
    counts = [1, 3, 2, 1]
    rels = [gr.Relation("A", "r", "B"), gr.Relation("B", "s", "B"),
            gr.Relation("A", "u", "C"), gr.Relation("C", "v", "B"),
            gr.Relation("D", "w", "D")]
    edges = [(np.array([0, 0]), np.array([0, 2])),
             (np.array([0, 1]), np.array([1, 2])),
             (np.array([0]), np.array([1])),
             (np.array([0, 1]), np.array([2, 0])),
             (np.array([0]), np.array([0]))]
    return gr.HeteroGraph(["A", "B", "C", "D"], counts,
                          [[""] * c for c in counts], rels, edges)


def test_joint_fill_matches_per_positive_reference(synth):
    seen = {"k > n": 0, "wrap-around": 0, "error": 0}
    for graph, p_rel in ((synth, None),
                         (_singleton_types_graph(), [0.3, 0.3, 0.2, 0.18, 0.02])):
        draw = np.random.default_rng(7)
        for case in range(300):
            n = int(draw.integers(1, 10))
            rels = draw.choice(len(graph.relations), size=n, p=p_rel)
            heads, tails = (
                np.array([draw.integers(graph.node_counts[t])
                          for t in graph.relation_types[rels, side]])
                for side in (0, 1))
            k = int(draw.integers(1, 2 * n + 3))
            rng_ref = np.random.default_rng(case)
            rng_new = np.random.default_rng(case)
            try:
                want = _reference_joint(graph, rels, heads, tails, k, rng_ref)
            except ContractError as e:
                seen["error"] += 1
                with pytest.raises(ContractError) as got:
                    ng.corrupt_joint(graph, rels, heads, tails, k, rng_new)
                assert str(got.value) == str(e)
            else:
                batch = ng.corrupt_joint(graph, rels, heads, tails, k, rng_new)
                np.testing.assert_array_equal(batch.rels[n:], np.repeat(rels, k))
                np.testing.assert_array_equal(batch.heads[n:], want[0])
                np.testing.assert_array_equal(batch.tails[n:], want[1])
                seen["k > n"] += k > n
                seen["wrap-around"] += want[2]
            # the same pool draws were made
            assert rng_new.random() == rng_ref.random()
    assert all(seen.values()), seen


def test_validation_errors(synth):
    with pytest.raises(ContractError):
        ng.corrupt_independent(synth, [], [], [], k=1)
    with pytest.raises(ContractError):
        ng.corrupt_independent(synth, [0], [0], [0], k=0)
    with pytest.raises(IndexError):
        ng.endpoint_types(synth, np.array([99]))


def test_eval_negatives_filtered():
    # A0 connects to every B except 3 and 4; filtered draws land only there
    src = np.zeros(8, dtype=np.int64)
    dst = np.array([0, 1, 2, 5, 6, 7, 8, 9], dtype=np.int64)
    g = gr.HeteroGraph(["A", "B"], [2, 10], [["", ""], [""] * 10],
                       [gr.Relation("A", "r", "B")], [(src, dst)])
    ids, dropped = ng.sample_eval_negatives(g, 0, head=0, tail=0, count=50, rng=0)
    assert set(ids.tolist()) <= {3, 4}
    assert len(ids) + dropped == 50


def test_full_eval_negatives():
    src = np.zeros(3, dtype=np.int64)
    dst = np.array([0, 1, 2], dtype=np.int64)
    g = gr.HeteroGraph(["A", "B"], [2, 6], [["", ""], [""] * 6],
                       [gr.Relation("A", "r", "B")], [(src, dst)])
    filtered = ng.full_eval_negatives(g, 0, head=0, tail=0)
    np.testing.assert_array_equal(filtered, [3, 4, 5])


@pytest.mark.parametrize("corrupt", [ng.corrupt_joint, ng.corrupt_independent])
def test_negative_count_past_a_batch_is_a_contract_error(synth, corrupt):
    """k = 2**62 would overflow np.repeat's size (a crash by signal); a
    count past MAX_BATCH_EDGES edges per batch is refused before any draw."""
    rels, heads, tails = _positives(synth, 4, np.random.default_rng(0))
    with pytest.raises(ContractError, match="edges per batch"):
        corrupt(synth, rels, heads, tails, 2 ** 62, rng=0)
