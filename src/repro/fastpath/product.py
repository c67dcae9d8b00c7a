"""Dense synchronous products: integer-coded state vectors, flat tables.

The reference route explores products over tuples of ints with per-symbol
``alphabet.index`` lookups and frozenset/tuple hashing.  These kernels
encode a state vector as one integer in mixed radix (``code = p·n₁ + q``
for a pair) and drive the exploration off flat per-automaton tables, so the
inner loop is pure integer arithmetic plus one small-int dict probe.

Exploration order is *identical* to :func:`repro.finitary.dfa.explore` —
same BFS, symbols in the base alphabet's order, states numbered by
discovery — so the produced tables match the reference row for row.

The pair kernel has a second, level-synchronous numpy BFS for large
products.  It is pay-per-use: every pair exploration starts on the pure
slot array, and only one that discovers more than
:data:`_VECTOR_HANDOVER` states restarts on numpy (importing it on first
use).  Both BFS routes number states identically, so the handover never
changes a row.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import AutomatonError
from repro.fastpath.tables import flat_table, flat_table_over

_BUILD_LIMIT = 2_000_000

#: Largest code space for which the pair kernel trades the interning dict
#: for a flat slot array (4M entries ≈ 32 MB of small-int pointers).
_FLAT_INDEX_LIMIT = 1 << 22

#: Discovered-state count past which a flat-slot pair exploration restarts
#: on the numpy BFS.  The numpy route's fixed per-level cost loses below
#: about 80 reached states and wins from about 350 up; restarting here keeps
#: every large product on numpy while small ones never import it.
_VECTOR_HANDOVER = 256


def explore_pair_dense(
    table_a,
    n_a: int,
    table_b,
    n_b: int,
    k: int,
    initial_a: int,
    initial_b: int,
    *,
    state_limit: int = _BUILD_LIMIT,
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """BFS product of two flat tables; returns (rows, order-of-pairs).

    The reachable code space ``n_a·n_b`` is usually small enough to intern
    through a flat slot array — one list index per probe instead of hashing
    every successor code — with per-symbol successor codes produced by
    zipping the two table row slices.  A flat-slot exploration that
    discovers more than :data:`_VECTOR_HANDOVER` states restarts on the
    numpy BFS when that backend is available; both produce the same rows.
    """
    scaled_a = [target * n_b for target in table_a]
    initial = initial_a * n_b + initial_b
    total = n_a * n_b
    order: list[int] = [initial]
    rows: list[list[int]] = []
    head = 0
    if total <= _FLAT_INDEX_LIMIT:
        # One bound check per discovery serves both the state limit and the
        # handover; past the handover only the state limit remains.
        cap = min(state_limit, _VECTOR_HANDOVER)
        slots = [-1] * total
        slots[initial] = 0
        while head < len(order):
            code = order[head]
            head += 1
            base_a = (code // n_b) * k
            base_b = (code % n_b) * k
            row: list[int] = []
            append = row.append
            for successor_a, successor_b in zip(
                scaled_a[base_a : base_a + k], table_b[base_b : base_b + k]
            ):
                successor = successor_a + successor_b
                slot = slots[successor]
                if slot < 0:
                    if len(order) >= cap:
                        if len(order) >= state_limit:
                            raise AutomatonError(
                                f"automaton construction exceeded {state_limit} states"
                            )
                        if _pair_vector_available():
                            return _explore_pair_vector(
                                scaled_a, table_b, n_b, k, initial, total, state_limit
                            )
                        cap = state_limit
                    slot = len(order)
                    slots[successor] = slot
                    order.append(successor)
                append(slot)
            rows.append(row)
        return rows, [divmod(code, n_b) for code in order]

    index: dict[int, int] = {initial: 0}
    while head < len(order):
        code = order[head]
        head += 1
        base_a = (code // n_b) * k
        base_b = (code % n_b) * k
        row = []
        append = row.append
        for successor_a, successor_b in zip(
            scaled_a[base_a : base_a + k], table_b[base_b : base_b + k]
        ):
            successor = successor_a + successor_b
            slot = index.get(successor)
            if slot is None:
                if len(order) >= state_limit:
                    raise AutomatonError(
                        f"automaton construction exceeded {state_limit} states"
                    )
                slot = len(order)
                index[successor] = slot
                order.append(successor)
            append(slot)
        rows.append(row)
    return rows, [divmod(code, n_b) for code in order]


def _pair_vector_available() -> bool:
    """Whether the numpy pair BFS may run (imports numpy on first call)."""
    from repro.fastpath.config import vector_enabled

    if not vector_enabled():
        return False
    from repro.fastpath import vector

    return vector.HAVE_VECTOR


def _explore_pair_vector(
    scaled_a, table_b, n_b: int, k: int, initial: int, total: int, state_limit: int
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Level-synchronous BFS of the pair product in numpy.

    Processing one whole frontier at a time is equivalent to the sequential
    queue: the tables are static, frontier states sit in slot order, and new
    codes are numbered by first occurrence in the row-major successor matrix
    — exactly the order the per-state loop would discover them in.
    """
    import numpy as _np

    rows_a = _np.asarray(scaled_a, dtype=_np.int64).reshape(-1, k)
    rows_b = _np.asarray(table_b, dtype=_np.int64).reshape(-1, k)
    slots = _np.full(total, -1, dtype=_np.int64)
    slots[initial] = 0
    count = 1
    frontier = _np.asarray([initial], dtype=_np.int64)
    level_codes = [frontier]
    row_chunks = []
    while frontier.size:
        successors = rows_a[frontier // n_b] + rows_b[frontier % n_b]
        flat = successors.ravel()
        undiscovered = flat[slots[flat] < 0]
        values, first_position = _np.unique(undiscovered, return_index=True)
        fresh = values[_np.argsort(first_position, kind="stable")]
        if count + fresh.size > state_limit:
            raise AutomatonError(
                f"automaton construction exceeded {state_limit} states"
            )
        slots[fresh] = _np.arange(count, count + fresh.size)
        count += fresh.size
        row_chunks.append(slots[successors])
        level_codes.append(fresh)
        frontier = fresh
    rows = _np.concatenate(row_chunks).tolist()
    codes = _np.concatenate(level_codes)
    order = list(zip((codes // n_b).tolist(), (codes % n_b).tolist()))
    return rows, order


def explore_vector_dense(
    tables: Sequence,
    sizes: Sequence[int],
    k: int,
    initials: Sequence[int],
    *,
    state_limit: int = _BUILD_LIMIT,
) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """BFS product of N flat tables; returns (rows, order-of-vectors)."""
    m = len(tables)
    if m == 2:
        rows, order = explore_pair_dense(
            tables[0], sizes[0], tables[1], sizes[1], k,
            initials[0], initials[1], state_limit=state_limit,
        )
        return rows, order

    # Mixed-radix strides (last component is the fastest-varying digit);
    # pre-scaling each table by its stride makes a successor code a plain
    # sum of m table reads.
    strides = [1] * m
    for i in range(m - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    scaled = [
        [target * stride for target in table]
        for table, stride in zip(tables, strides)
    ]

    def encode(vector: Sequence[int]) -> int:
        code = 0
        for size, component in zip(sizes, vector):
            code = code * size + component
        return code

    def decode(code: int) -> tuple[int, ...]:
        components = [0] * m
        for i in range(m - 1, -1, -1):
            code, components[i] = divmod(code, sizes[i])
        return tuple(components)

    component_range = range(m)
    initial = encode(initials)
    index: dict[int, int] = {initial: 0}
    order: list[int] = [initial]
    rows: list[list[int]] = []
    head = 0
    while head < len(order):
        vector = decode(order[head])
        head += 1
        bases = [component * k for component in vector]
        row: list[int] = []
        append = row.append
        for a in range(k):
            successor = 0
            for i in component_range:
                successor += scaled[i][bases[i] + a]
            slot = index.get(successor)
            if slot is None:
                if len(order) >= state_limit:
                    raise AutomatonError(
                        f"automaton construction exceeded {state_limit} states"
                    )
                slot = len(order)
                index[successor] = slot
                order.append(successor)
            append(slot)
        rows.append(row)
    return rows, [decode(code) for code in order]


def dfa_product_dense(dfa_a, dfa_b, combine: Callable[[bool, bool], bool]):
    """The reference ``DFA._product`` over dense tables (same state order)."""
    from repro.finitary.dfa import DFA

    k = len(dfa_a.alphabet)
    rows, order = explore_pair_dense(
        flat_table(dfa_a._delta),  # noqa: SLF001 — fastpath is the in-tree twin
        dfa_a.num_states,
        flat_table_over(dfa_b._delta, dfa_b.alphabet, dfa_a.alphabet),  # noqa: SLF001
        dfa_b.num_states,
        k,
        dfa_a.initial,
        dfa_b.initial,
    )
    accept_a = dfa_a.accepting
    accept_b = dfa_b.accepting
    accepting = [
        i for i, (p, q) in enumerate(order) if combine(p in accept_a, q in accept_b)
    ]
    return DFA.trusted(dfa_a.alphabet, rows, 0, accepting)
