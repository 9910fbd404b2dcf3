import numpy as np
import pytest

from textgraph import metrics as mt
from textgraph.errors import ContractError


def test_rank_is_pessimistic_on_ties():
    q = mt.RankedQuery(1.0, np.array([2.0, 1.0, 0.5]))
    assert q.rank == 3  # one strictly above, one tie, tie counts against
    assert mt.RankedQuery(5.0, np.array([1.0, 2.0])).rank == 1
    assert mt.RankedQuery(0.0, np.array([0.0, 0.0])).rank == 3


def sort_rank_oracle(pos, negs):
    """Independent ranking: sort descending with the positive losing ties."""
    items = [(s, 0) for s in negs] + [(pos, 1)]
    items.sort(key=lambda it: (-it[0], it[1]))
    return [i for i, it in enumerate(items) if it[1] == 1][0] + 1


def test_rank_matches_sort_oracle(rng):
    for _ in range(200):
        pos = float(rng.integers(-3, 4))  # integer scores force ties
        negs = rng.integers(-3, 4, size=int(rng.integers(1, 12))).astype(float)
        assert mt.RankedQuery(pos, negs).rank == sort_rank_oracle(pos, negs)


def test_mrr_small_fixture():
    queries = [mt.RankedQuery(3.0, np.array([1.0, 2.0])),   # rank 1
               mt.RankedQuery(1.0, np.array([2.0, 3.0])),   # rank 3
               mt.RankedQuery(2.0, np.array([2.0, 1.0]))]   # rank 2 (tie)
    want = (1.0 + 1.0 / 3.0 + 0.5) / 3.0
    assert abs(mt.mrr(queries) - want) < 1e-12
    with pytest.raises(ContractError):
        mt.mrr([])


def test_accuracy():
    assert mt.accuracy([1, 2, 3, 4], [1, 2, 0, 4]) == 0.75
    with pytest.raises(ContractError):
        mt.accuracy([], [])
    with pytest.raises(ContractError):
        mt.accuracy([1, 2], [1])


def test_f1_hand_example():
    # labels:      0 0 1 1 2
    # predictions: 0 1 1 1 1
    rep = mt.f1_scores([0, 1, 1, 1, 1], [0, 0, 1, 1, 2], num_classes=4)
    # class 0: tp=1 fp=0 fn=1 -> 2/3; class 1: tp=2 fp=2 fn=0 -> 2/3
    # class 2: tp=0 fp=0 fn=1 -> 0; class 3: unseen -> 0, zero support
    np.testing.assert_allclose(rep.per_class, [2 / 3, 2 / 3, 0.0, 0.0], atol=1e-12)
    assert abs(rep.macro - (2 / 3 + 2 / 3) / 4.0) < 1e-12
    assert rep.zero_support_classes == [3]
    assert abs(rep.micro - 3 / 5) < 1e-12


def test_micro_f1_equals_accuracy(rng):
    for _ in range(20):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 5, size=n)
        labels = rng.integers(0, 5, size=n)
        rep = mt.f1_scores(preds, labels, num_classes=5)
        assert abs(rep.micro - mt.accuracy(preds, labels)) < 1e-12


def test_f1_validation():
    with pytest.raises(IndexError):
        mt.f1_scores([0, 5], [0, 1], num_classes=3)
    with pytest.raises(ContractError):
        mt.f1_scores([], [], num_classes=3)
