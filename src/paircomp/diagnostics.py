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
The module also constructs the adversarial matrix pairs that certify the
bound: two noisy-sorting matrices that agree on every observed edge yet
differ by a known Frobenius separation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, degree_functional
from .models import identity_permutation, make_noisy_sorting

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
    for u, v in g.edges:
        u, v = int(u), int(v)  # python ints: bitmasks may exceed 64 bits
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def max_independent_set(g: Graph, budget: int = INDEPENDENT_SET_BUDGET) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with a witness (branch and bound)."""
    if g.n > budget:
        raise SearchBudgetError(
            f"exact independent-set search budget is n <= {budget}, got n={g.n}"
        )
    nbr = _neighbor_masks(g)
    best_size = 0
    best_mask = 0

    def expand(candidates: int, current: int, size: int) -> None:
        nonlocal best_size, best_mask
        if size + candidates.bit_count() <= best_size:
            return
        if candidates == 0:
            if size > best_size:
                best_size, best_mask = size, current
            return
        v = (candidates & -candidates).bit_length() - 1
        bit = 1 << v
        expand(candidates & ~bit & ~nbr[v], current | bit, size + 1)
        expand(candidates & ~bit, current, size)

    expand((1 << g.n) - 1, 0, 0)
    witness = tuple(v for v in range(g.n) if best_mask >> v & 1)
    return best_size, witness


def max_biclique_complement(g: Graph, budget: int = BICLIQUE_BUDGET) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact max |V1||V2| over disjoint sets with no graph edges across.

    Equivalently the biclique number of the complement graph.  For a fixed
    V1 the best V2 is every vertex outside V1 with no edge into V1 (its
    "avail" set).  The search decides vertex v for every node of level v at
    once: a level is a numpy frontier of (V1, avail) bitmasks in include-first
    depth-first order.  Nodes whose bound (|V1| + n - v) * |avail| is below
    the best score so far are pruned, every survivor branches into its
    include and exclude child, and the include children are scored.  Ties
    are kept, so the witness is the first pair scoring beta in depth-first
    preorder.
    """
    budget = min(budget, 64)  # the frontier holds 64-bit masks
    if g.n > budget:
        raise SearchBudgetError(
            f"exact biclique search budget is n <= {budget}, got n={g.n}"
        )
    n = g.n
    nbr = _neighbor_masks(g)
    dtype = np.uint32 if n <= 32 else np.uint64
    full = (1 << n) - 1
    part1 = np.zeros(1, dtype)
    avail = np.full(1, full, dtype)
    best, best_parts = 0, (0, 0)
    for v in range(n):
        size1 = np.bitwise_count(part1).astype(np.int64)
        keep = (size1 + (n - v)) * np.bitwise_count(avail) >= max(best, 1)
        part1, avail, size1 = part1[keep], avail[keep], size1[keep]
        with_v = part1 | dtype(1 << v)
        avail_v = avail & dtype(full & ~(1 << v | nbr[v]))
        score = (size1 + 1) * np.bitwise_count(avail_v)
        top = int(score.max())
        if top >= max(best, 1):
            i = int(np.argmax(score == top))  # first of this level in preorder
            hit = (int(with_v[i]), int(avail_v[i]))
            # an earlier level's hit comes first unless, at the lowest vertex
            # where the two V1 differ, the new hit includes it and the old
            # one still has a vertex above it (else the old one is its prefix)
            diff = hit[0] ^ best_parts[0]
            low = diff & -diff
            if top > best or (hit[0] & low and best_parts[0] >> low.bit_length()):
                best, best_parts = top, hit
        # children in preorder: each include child right before its sibling
        part1 = np.stack([with_v, part1], axis=1).ravel()
        avail = np.stack([avail_v, avail], axis=1).ravel()
    v1 = tuple(v for v in range(n) if best_parts[0] >> v & 1)
    v2 = tuple(v for v in range(n) if best_parts[1] >> v & 1)
    return best, (v1, v2)


# closed forms, equal to the exact searches' witnesses wherever those run
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
    return ind, ((v1, v2) if v1 and v2 else ((), ()))


def _alpha_with_witness(g: Graph) -> tuple[int, tuple[int, ...]]:
    closed = _closed_form_witnesses(g)
    if closed is None:
        return max_independent_set(g)
    return len(closed[0]), closed[0]


def _beta_with_witness(g: Graph) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    closed = _closed_form_witnesses(g)
    if closed is None:
        return max_biclique_complement(g)
    v1, v2 = closed[1]
    return len(v1) * len(v2), (v1, v2)


@dataclass(frozen=True)
class AdversarialPair:
    """Two noisy-sorting matrices indistinguishable on the graph edges.

    m1 and m2 agree entrywise on every edge; their full-matrix separation
    is ||m1 - m2||_F^2 = 8 lam^2 KT(pi1, pi2).
    """

    m1: np.ndarray
    m2: np.ndarray
    pi1: np.ndarray
    pi2: np.ndarray
    lam: float
    mode: str
    witness: tuple


def adversarial_pair(g: Graph, mode: str, lam: float = ADVERSARIAL_LAMBDA) -> AdversarialPair:
    """Construct the certificate pair for one of the two lower-bound terms.

    A list of blocks takes the top ranks, in order under pi1 and in reverse
    order under pi2: the witness items as singletons in independent_set
    mode, [V1, V2] in biclique mode.  All other items keep identical ranks,
    so the two matrices agree on every graph edge.
    """
    if mode not in ("independent_set", "biclique"):
        raise ValueError(f"unknown adversarial mode {mode!r}")
    if not 0.0 < lam <= 0.5:
        raise ValueError(f"lambda must lie in (0, 1/2], got {lam}")
    if mode == "independent_set":
        alpha, witness = _alpha_with_witness(g)
        if alpha < 2:
            raise ValueError(f"independent set of size {alpha} gives no pair")
        blocks: tuple = tuple((v,) for v in witness)
    else:
        _, witness = _beta_with_witness(g)
        if not all(witness):
            raise ValueError("graph admits no complement biclique with nonempty parts")
        blocks = witness
    top1 = [v for block in blocks for v in block]
    top2 = [v for block in reversed(blocks) for v in block]
    rest = sorted(set(range(g.n)).difference(top1))
    pi1 = identity_permutation(g.n)
    pi2 = identity_permutation(g.n)
    pi1[top1 + rest] = pi2[top2 + rest] = np.arange(g.n)
    return AdversarialPair(
        m1=make_noisy_sorting(pi1, lam),
        m2=make_noisy_sorting(pi2, lam),
        pi1=pi1,
        pi2=pi2,
        lam=lam,
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
    alpha, ind_witness = _alpha_with_witness(g)
    beta, bic_witness = _beta_with_witness(g)
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
