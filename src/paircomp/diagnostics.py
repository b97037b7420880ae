"""Worst-case inestimability diagnostics for a comparison topology.

The minimax lower bound for noisy-sorting estimation on a fixed graph is
max(alpha(alpha - 1), beta(G^c)) / (4 n^2), where alpha is the independence
number and beta(G^c) the largest biclique of the complement.  Both are
given in closed form at every n for the star, path, cycle, complete and
two_cliques families (by the graph's family tag).  Any other graph goes to
the exact searches, which hold to n <= 32 for alpha and n <= 20 for beta and
raise SearchBudgetError past that: a recursive branch and bound over Python
bitmasks for alpha, and for beta a branch and bound that goes level by level,
one vertex per level, over numpy arrays of bitmasks.
The module also constructs the adversarial model pairs that certify the
bound: two noisy-sorting models that agree on every observed edge yet
differ by a known Frobenius separation.

Witness rule: max_independent_set, max_biclique_complement and the closed
forms all return the lexicographically smallest optimum, vertices in
ascending order.  For beta that is the smallest V1; V2 is every vertex
outside V1 with no edge into V1, and beta = 0 gives ((), ()).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, degree_functional
from .models import NoisySorting, _invert

__all__ = [
    "SearchBudgetError",
    "max_independent_set",
    "max_biclique_complement",
    "AdversarialPair",
    "adversarial_pair",
    "DiagnosticsReport",
    "minimax_lower_bound",
    "report_to_text",
    "report_to_json",
]

INDEPENDENT_SET_BUDGET = 32
BICLIQUE_BUDGET = 20
ADVERSARIAL_LAMBDA = 0.25


class SearchBudgetError(ValueError):
    """Raised when an exact search is requested beyond its size budget."""


def _neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges.tolist():  # python ints, not numpy scalars: cheaper bit arithmetic
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _members(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if mask >> v & 1)


def max_independent_set(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with a witness (branch and bound)."""
    if g.n > INDEPENDENT_SET_BUDGET:
        raise SearchBudgetError(
            f"exact independent-set search budget is n <= {INDEPENDENT_SET_BUDGET}, got n={g.n}"
        )
    nbr = _neighbor_masks(g)
    best_size = 0
    best_mask = 0

    def expand(candidates: int, current: int, size: int) -> None:
        nonlocal best_size, best_mask
        if size + candidates.bit_count() <= best_size:
            return
        if candidates == 0:
            best_size, best_mask = size, current
            return
        v = (candidates & -candidates).bit_length() - 1
        bit = 1 << v
        expand(candidates & ~bit & ~nbr[v], current | bit, size + 1)
        expand(candidates & ~bit, current, size)

    expand((1 << g.n) - 1, 0, 0)
    return best_size, _members(best_mask, g.n)


def max_biclique_complement(g: Graph) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact max |V1||V2| over disjoint sets with no graph edges across.

    Equivalently the biclique number of the complement graph.  For a fixed
    V1 the best V2 is every vertex outside V1 with no edge into V1 (its
    "avail" set).  The search decides vertex v for every node of level v at
    once: a level is a numpy frontier of (V1, avail) bitmasks in include-first
    depth-first order.  Nodes whose bound (|V1| + n - v) * |avail| is below
    the best score so far are pruned, every survivor branches into its
    include and exclude child, and the include children are scored.  Ties
    are kept, so the witness is the smallest V1 scoring beta.
    """
    if g.n > BICLIQUE_BUDGET:
        raise SearchBudgetError(
            f"exact biclique search budget is n <= {BICLIQUE_BUDGET}, got n={g.n}"
        )
    n = g.n
    nbr = _neighbor_masks(g)
    full = (1 << n) - 1
    part1 = np.zeros(1, np.uint32)  # n <= BICLIQUE_BUDGET <= 32 bits
    avail = np.full(1, full, np.uint32)
    best, best_parts = 0, (0, 0)
    for v in range(n):
        size1 = np.bitwise_count(part1).astype(np.int64)
        keep = (size1 + (n - v)) * np.bitwise_count(avail) >= max(best, 1)
        part1, avail, size1 = part1[keep], avail[keep], size1[keep]
        with_v = part1 | np.uint32(1 << v)
        avail_v = avail & np.uint32(full & ~(1 << v | nbr[v]))
        score = (size1 + 1) * np.bitwise_count(avail_v)
        top = int(score.max())
        if top >= max(best, 1):
            i = int(np.argmax(score == top))  # smallest V1 of this level
            hit = (int(with_v[i]), int(avail_v[i]))
            if top > best or _members(hit[0], n) < _members(best_parts[0], n):
                best, best_parts = top, hit
        # children in preorder: each include child right before its sibling
        part1 = np.stack([with_v, part1], axis=1).ravel()
        avail = np.stack([avail_v, avail], axis=1).ravel()
    return best, (_members(best_parts[0], n), _members(best_parts[1], n))


# closed forms in the exact searches' shapes and witness rule; None for a
# family without closed forms
def _closed_form_witnesses(g: Graph):
    n = g.n
    if g.family == "star":
        ind = tuple(range(1, n)) if n > 2 else (0,)
        half = (n - 1) // 2
        v1, v2 = ind[:half], ind[half:]
    elif g.family == "path":
        ind = tuple(range(0, n, 2))
        k = (n - 1) // 2
        v1, v2 = tuple(range(k)), tuple(range(k + 1, n))
    elif g.family == "cycle":
        ind = tuple(range(0, 2 * (n // 2), 2))
        k = (n - 2) // 2
        v1, v2 = tuple(range(k)), tuple(range(k + 1, n - 1))
    elif g.family == "complete":
        ind, v1, v2 = (0,), (), ()
    elif g.family == "two_cliques":
        h = n // 2
        ind, v1, v2 = (0, h), tuple(range(h)), tuple(range(h, n))
    else:
        return None
    v1, v2 = (v1, v2) if v1 and v2 else ((), ())
    return (len(ind), ind), (len(v1) * len(v2), (v1, v2))


@dataclass(frozen=True)
class AdversarialPair:
    """Two noisy-sorting models indistinguishable on the graph edges.

    m1 and m2 agree entrywise on every edge; their full-matrix separation
    is ||M(m1) - M(m2)||_F^2 = 8 lam^2 KT(m1.ranks, m2.ranks), with
    M = make_noisy_sorting and lam = m1.lam = m2.lam.
    """

    m1: NoisySorting
    m2: NoisySorting
    mode: str
    witness: tuple


def adversarial_pair(g: Graph, mode: str) -> AdversarialPair:
    """Construct the certificate pair for one of the two lower-bound terms.

    A list of blocks takes the top ranks, in order under m1 and in reverse
    order under m2: the witness items as singletons in independent_set
    mode, [V1, V2] in biclique mode.  All other items keep identical ranks,
    so the two models agree on every graph edge.  The noise gap is
    ADVERSARIAL_LAMBDA, the value the diagnostics report states.
    """
    if mode not in ("independent_set", "biclique"):
        raise ValueError(f"unknown adversarial mode {mode!r}")
    closed = _closed_form_witnesses(g)
    if mode == "independent_set":
        alpha, witness = closed[0] if closed else max_independent_set(g)
        if alpha < 2:
            raise ValueError(f"independent set of size {alpha} gives no pair")
        blocks: tuple = tuple((v,) for v in witness)
    else:
        _, witness = closed[1] if closed else max_biclique_complement(g)
        if not all(witness):
            raise ValueError("graph admits no complement biclique with nonempty parts")
        blocks = witness
    top1 = [v for block in blocks for v in block]
    top2 = [v for block in reversed(blocks) for v in block]
    rest = sorted(set(range(g.n)).difference(top1))
    return AdversarialPair(
        m1=NoisySorting(_invert(np.array(top1 + rest)), ADVERSARIAL_LAMBDA),
        m2=NoisySorting(_invert(np.array(top2 + rest)), ADVERSARIAL_LAMBDA),
        mode=mode,
        witness=witness,
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    alpha: int
    beta_complement: int
    minimax_lb: float
    degree_functional: float
    independent_set: tuple[int, ...]
    biclique: tuple[tuple[int, ...], tuple[int, ...]]


def minimax_lower_bound(g: Graph) -> DiagnosticsReport:
    """Assemble the worst-case report: max(alpha(alpha-1), beta(G^c)) / (4 n^2)."""
    d_g = degree_functional(g)  # raises on an isolated vertex before any search
    closed = _closed_form_witnesses(g)
    alpha, ind_witness = closed[0] if closed else max_independent_set(g)
    beta, bic_witness = closed[1] if closed else max_biclique_complement(g)
    lb = max(alpha * (alpha - 1), beta) / (4.0 * g.n**2)
    return DiagnosticsReport(
        alpha=alpha,
        beta_complement=beta,
        minimax_lb=lb,
        degree_functional=d_g,
        independent_set=ind_witness,
        biclique=bic_witness,
    )


def _report_fields(r: DiagnosticsReport) -> dict:
    # adversarial_lambda records the noise gap used by certificate pairs;
    # their separation is 8 lambda^2 KT, so any other convention rescales
    return {
        "alpha": r.alpha,
        "beta_complement": r.beta_complement,
        "minimax_lb": r.minimax_lb,
        "degree_functional": r.degree_functional,
        "adversarial_lambda": ADVERSARIAL_LAMBDA,
        "independent_set": list(r.independent_set),
        "biclique": [list(r.biclique[0]), list(r.biclique[1])],
    }


def _text_value(value) -> str:
    if isinstance(value, list):
        return " ".join(map(str, value))
    return format(value, ".17g") if isinstance(value, float) else str(value)


def report_to_text(r: DiagnosticsReport) -> str:
    """One 'name = value' line per report field, the biclique as its two sides."""
    fields = _report_fields(r)
    fields["biclique_v1"], fields["biclique_v2"] = fields.pop("biclique")
    return "".join(f"{name} = {_text_value(value)}\n" for name, value in fields.items())


def report_to_json(r: DiagnosticsReport) -> str:
    return json.dumps(_report_fields(r), indent=2)
