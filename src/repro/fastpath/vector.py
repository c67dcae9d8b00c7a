"""Vectorized SCC/BFS backends for the ω-emptiness kernels.

The pure-Python kernels in :mod:`repro.fastpath.scc` bottom out at the cost
of one interpreted loop iteration per edge visit.  When numpy + scipy are
importable (they are optional — nothing in this package *requires* them),
the large SCC and closure passes can instead run through
``scipy.sparse.csgraph``: ``connected_components(connection="strong")`` is
a C implementation of Pearce's SCC algorithm, and ``breadth_first_order``
is a C BFS.  The per-pair Streett/Rabin checks then become ``bincount``
reductions over the component labelling.

Semantics are identical to the pure kernels — SCC decompositions are
unique, so the *set* of good component masks, the closures, and the
verdicts all match bit for bit; only the enumeration order of components
can differ, which the dense route already documents as acceptable.

Every entry point assumes a rectangular adjacency (every row the same
length, as transition tables are); callers keep the pure route for anything
else.  ``HAVE_VECTOR`` is False when the imports fail and every caller must
check it first.

Importing this module imports numpy and scipy, which costs far more than a
whole paper-scale classification.  No module imports it at load time:
:mod:`repro.fastpath.scc` and :mod:`repro.fastpath.product` import it
inside the branches that use it, once a graph reaches
:data:`repro.fastpath.scc.VECTOR_MIN_STATES` states or a pair product
passes :data:`repro.fastpath.product._VECTOR_HANDOVER` discovered states.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised implicitly by every vector test
    import numpy as _np
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import breadth_first_order as _breadth_first_order
    from scipy.sparse.csgraph import connected_components as _connected_components
except ImportError:  # pragma: no cover - container without numpy/scipy
    _np = None

HAVE_VECTOR = _np is not None


def bools_from_mask(mask: int, num_states: int):
    """A boolean numpy array with ``arr[i] == bool(mask >> i & 1)``."""
    raw = mask.to_bytes((num_states + 7) // 8 or 1, "little")
    return _np.unpackbits(
        _np.frombuffer(raw, dtype=_np.uint8), count=num_states, bitorder="little"
    ).astype(bool)


def mask_from_states(states, num_states: int) -> int:
    """The int mask of a numpy array of state ids (inverse of flatnonzero)."""
    flags = _np.zeros(num_states, dtype=_np.uint8)
    flags[states] = 1
    return int.from_bytes(_np.packbits(flags, bitorder="little").tobytes(), "little")


def as_state_array(states):
    """A list (or array) of state ids as an int64 numpy array."""
    return _np.asarray(states, dtype=_np.int64)


def delta_array(adjacency):
    """The adjacency as an ``(n, k)`` int array, or None if it is ragged."""
    try:
        delta = _np.asarray(adjacency, dtype=_np.int64)
    except (ValueError, TypeError):
        return None
    return delta if delta.ndim == 2 else None


def strong_components(delta, candidate):
    """SCC labelling of the subgraph of ``delta`` induced by ``candidate``.

    Returns ``(labels, n_comp, nontrivial)`` where ``labels`` maps local
    positions (indices into ``candidate``) to component ids and
    ``nontrivial[c]`` is True when component ``c`` carries a cycle (more
    than one member, or a singleton with a self-loop).
    """
    m = candidate.size
    new_id = _np.full(delta.shape[0], -1, dtype=_np.int64)
    new_id[candidate] = _np.arange(m)
    sub = new_id[delta[candidate]]  # (m, k); -1 marks edges leaving the subgraph
    keep = sub >= 0
    # The edge list is already row-sorted (row i's edges are row i of ``sub``),
    # so the CSR arrays can be assembled directly — no COO round trip.
    indptr = _np.zeros(m + 1, dtype=_np.int64)
    _np.cumsum(keep.sum(axis=1), out=indptr[1:])
    indices = sub.ravel()[keep.ravel()]
    graph = _csr_matrix(
        (_np.ones(indices.size, dtype=_np.int32), indices, indptr), shape=(m, m)
    )
    n_comp, labels = _connected_components(
        graph, directed=True, connection="strong"
    )
    nontrivial = _np.bincount(labels, minlength=n_comp) > 1
    selfloop = (sub == _np.arange(m)[:, None]).any(axis=1)
    nontrivial[labels[selfloop]] = True
    return labels, n_comp, nontrivial


def streett_round(delta, candidate, pair_bools, num_states):
    """One pruning round of the Streett fixpoint, vectorized.

    ``candidate`` is a numpy array of state ids; ``pair_bools`` the Streett
    pairs as ``(left, right)`` boolean arrays over all states.  Returns
    ``(good_masks, next_candidates)``: masks of the good components found
    this round and the restricted member arrays still to be pruned —
    exactly what one iteration of the pure pending-loop produces.
    """
    labels, n_comp, nontrivial = strong_components(delta, candidate)
    violated = _np.zeros(n_comp, dtype=bool)
    keep_state = _np.ones(candidate.size, dtype=bool)
    for left, right in pair_bools:
        has_left = _np.bincount(labels[left[candidate]], minlength=n_comp) > 0
        not_right = ~right[candidate]
        has_outside = _np.bincount(labels[not_right], minlength=n_comp) > 0
        bad = has_outside & ~has_left
        violated |= bad
        keep_state &= ~(bad[labels] & not_right)

    order = _np.argsort(labels, kind="stable")
    bounds = _np.searchsorted(labels[order], _np.arange(n_comp + 1))
    good_masks: list[int] = []
    next_candidates = []
    for comp in _np.flatnonzero(nontrivial):
        members = order[bounds[comp] : bounds[comp + 1]]
        if violated[comp]:
            restricted = members[keep_state[members]]
            if restricted.size:
                next_candidates.append(candidate[restricted])
        else:
            good_masks.append(mask_from_states(candidate[members], num_states))
    return good_masks, next_candidates


def rabin_pair_mask(delta, candidate, left, num_states) -> int:
    """States of ``candidate`` on a cycle meeting ``left`` (a bool array)."""
    labels, n_comp, nontrivial = strong_components(delta, candidate)
    hit = _np.bincount(labels[left[candidate]], minlength=n_comp) > 0
    take = (nontrivial & hit)[labels]
    if not take.any():
        return 0
    return mask_from_states(candidate[take], num_states)


def forward_closure_mask(delta, initial: int, num_states: int) -> int:
    """Forward-reachable set from ``initial``, via one C breadth-first pass."""
    k = delta.shape[1]
    indices = delta.ravel()
    graph = _csr_matrix(
        (
            _np.ones(indices.size, dtype=_np.int32),
            indices,
            _np.arange(num_states + 1, dtype=_np.int64) * k,
        ),
        shape=(num_states, num_states),
    )
    reached = _breadth_first_order(
        graph, initial, directed=True, return_predecessors=False
    )
    return mask_from_states(reached, num_states)


def backward_closure_mask(delta, target_mask: int, num_states: int) -> int:
    """States that can reach ``target_mask``: BFS on the reversed graph from
    a virtual super-source wired to every target state."""
    targets = _np.flatnonzero(bools_from_mask(target_mask, num_states))
    if targets.size == 0:
        return 0
    k = delta.shape[1]
    rows = _np.concatenate(
        [delta.ravel(), _np.full(targets.size, num_states, dtype=_np.int64)]
    )
    cols = _np.concatenate(
        [_np.repeat(_np.arange(num_states), k), targets]
    )
    graph = _csr_matrix(
        (_np.ones(rows.size, dtype=_np.int32), (rows, cols)),
        shape=(num_states + 1, num_states + 1),
    )
    reached = _breadth_first_order(
        graph, num_states, directed=True, return_predecessors=False
    )
    return mask_from_states(reached[reached < num_states], num_states)
