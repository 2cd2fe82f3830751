"""The tracer's work counters against brute-force counts on small shapes."""

from itertools import permutations, product
from math import factorial

import pytest

from macchroma import chromatic, graphs, jack, macdonald
from macchroma.shapes import partitions_of
from tracer import Tracer


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def _cells(mu):
    """French cells in reading order (top row first, left to right)."""
    return [(row, col) for row in range(len(mu), 0, -1) for col in range(1, mu[row - 1] + 1)]


def _brute_fillings(mu):
    """(content, maj, inv - arm_des, mask) of every non-attacking filling,
    from the definitions, over all n^n maps of cells to 1..n."""
    cells = _cells(mu)
    n = len(cells)
    label = {cell: i for i, cell in enumerate(cells)}
    attacking = [
        (label[a], label[b])
        for a in cells for b in cells
        if label[a] < label[b] and (a[0] == b[0] or (a[0] == b[0] + 1 and a[1] > b[1]))
    ]
    uppers = [cell for cell in cells if cell[0] > 1]
    out = []
    for values in product(range(1, n + 1), repeat=n):
        if any(values[u] == values[v] for u, v in attacking):
            continue
        inv = sum(values[u] > values[v] for u, v in attacking)
        maj = arm_des = mask = 0
        for bit, (row, col) in enumerate(uppers):
            above, below = values[label[(row, col)]], values[label[(row - 1, col)]]
            if above == below:
                mask |= 1 << bit
            elif above > below:
                maj += sum(1 for r in range(row + 1, len(mu) + 1) if mu[r - 1] >= col) + 1
                arm_des += mu[row - 1] - col
        content = tuple(values.count(v) for v in range(1, n + 1))
        out.append((content, maj, inv - arm_des, mask))
    return out


@pytest.mark.parametrize("mu", [(2, 1), (2, 2), (3, 1), (2, 1, 1)])
def test_filling_counters_match_brute_force(tracer, mu):
    brute = _brute_fillings(mu)
    dominant = [f for f in brute if list(f[0]) == sorted(f[0], reverse=True)]
    assert sum(1 for _ in macdonald.non_attacking_fillings(mu)) == len(brute)
    assert tracer.report()["yielded"]["macdonald.non_attacking_fillings"] == len(brute)
    assert tracer.counts["dominant_fillings"] == len(dominant)
    assert tracer.counts["filling_keys"] == len(set(dominant))


def _brute_n_lambda(h, lam):
    blocks = [b for b, length in enumerate(lam) for _ in range(length)]
    kept = 0
    for sigma in permutations(range(1, h.n + 1)):
        same = [j for j in range(1, h.n) if blocks[j] == blocks[j - 1]]
        descent = any(sigma[j - 1] > sigma[j] and not h.has_edge(sigma[j - 1], sigma[j])
                      for j in same)
        lr_max = any(
            all(sigma[i] < sigma[j] and not h.has_edge(sigma[i], sigma[j])
                for i in range(j) if blocks[i] == blocks[j])
            for j in same
        )
        kept += not (descent or lr_max)
    return kept


def _brute_n_tilde(h, lam):
    starts = [sum(lam[:b]) for b in range(len(lam))]
    kept = 0
    for sigma in permutations(range(1, h.n + 1)):
        blocks = [sigma[s:s + length] for s, length in zip(starts, lam)]
        kept += all(
            block[0] == min(block)
            and all(block[i] > block[i + 1] or h.has_edge(block[i], block[i + 1])
                    for i in range(len(block) - 1))
            for block in blocks
        )
    return kept


@pytest.mark.parametrize("mu", [(2, 1), (2, 2), (3, 1, 1)])
def test_permutation_counters_match_brute_force(tracer, mu):
    h = graphs.attacking_data(mu).g_plus
    n = h.n
    for lam in partitions_of(n):
        chromatic.n_lambda(h, lam)
        chromatic.n_tilde(h, lam)
    kept = sum(_brute_n_lambda(h, lam) + _brute_n_tilde(h, lam) for lam in partitions_of(n))
    assert tracer.counts["perms_scanned"] == 2 * len(partitions_of(n)) * factorial(n)
    assert tracer.counts["perms_kept"] == kept


@pytest.mark.parametrize("mu", [(2, 1), (2, 2), (3, 2)])
def test_edge_subset_counter_matches_component_partition_calls(tracer, mu):
    jack.jack_power(mu)
    edges = graphs.attacking_data(mu).g_plus.edges
    assert tracer.counts["edge_subsets"] == 2 ** len(edges)
    assert tracer.report()["calls"]["graphs.component_partition"] == 2 ** len(edges)
