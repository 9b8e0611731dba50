"""Lucas numbers, wheel-graph spanning trees, and small integer predicates."""

import dataclasses
import itertools
import math

__all__ = [
    "EnumerationLimitError",
    "WheelGraph",
    "determinant_fraction_free",
    "is_perfect_square",
    "laplacian",
    "lucas",
    "residue_mod8",
    "spanning_trees_bruteforce",
    "wheel_spanning_trees",
]


class EnumerationLimitError(RuntimeError):
    """Brute-force enumeration refused: the edge count exceeds the bound."""


def lucas(n: int) -> int:
    """n-th Lucas number with L1 = 1 and L2 = 3; indexing starts at 1."""
    if n < 1:
        raise ValueError(f"Lucas numbers are indexed from 1, got {n}")
    a, b = 2, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


@dataclasses.dataclass(frozen=True)
class WheelGraph:
    """A hub joined to every vertex of a cycle on `rim` vertices.

    For rim = 2 the cycle degenerates to a doubled edge, so the graph is a
    multigraph; edges() returns both parallel copies.
    """

    rim: int

    def __post_init__(self):
        if self.rim < 2:
            raise ValueError(f"wheel needs at least 2 rim vertices, got {self.rim}")

    @property
    def vertex_count(self) -> int:
        return self.rim + 1

    @property
    def hub(self) -> int:
        return self.rim

    def edges(self) -> tuple[tuple[int, int], ...]:
        rim_edges = tuple((i, (i + 1) % self.rim) for i in range(self.rim))
        spokes = tuple((self.hub, i) for i in range(self.rim))
        return rim_edges + spokes


def laplacian(graph: WheelGraph) -> list[list[int]]:
    """Multigraph Laplacian; parallel edges accumulate."""
    size = graph.vertex_count
    m = [[0] * size for _ in range(size)]
    for u, v in graph.edges():
        m[u][u] += 1
        m[v][v] += 1
        m[u][v] -= 1
        m[v][u] -= 1
    return m


def determinant_fraction_free(matrix):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Works over any integral domain whose `//` is exact division: integers,
    or Laurent polynomials over Z (Bareiss, Math. Comp. 22, 1968).  A zero
    pivot is replaced by swapping in a lower row; a matrix with no pivot
    left is singular and gives that zero entry.  The empty matrix gives 1.

    Step k of Bareiss sends every lower row i to
    (p_k row_i - m[i][k] row_k) / p_(k-1), p_k being the k-th pivot and
    p_(-1) = 1.  A row whose column-k entry is zero would only be scaled by
    p_k / p_(k-1), so it is left as stored, and the number s of steps its
    stored entries have seen is kept with it.  When the row is next used at
    a step k, as pivot row or as a row to eliminate, the factors it skipped
    telescope to p_(k-1) / p_(s-1): its nonzero entries are multiplied by
    p_(k-1) and divided by p_(s-1).  The division is exact, because each
    result is the entry plain Bareiss would hold at step k, a minor of the
    matrix.  Scaling keeps zeros zero, so the zero tests read stored
    entries.  A matrix without zeros skips no row and does plain Bareiss
    arithmetic; on the arrow-shaped wheel minors elimination takes O(n^2)
    ring operations instead of O(n^3).

    Raises:
        ValueError: when the rows are not all as long as there are rows,
            before any elimination.
    """
    m = [list(row) for row in matrix]
    size = len(m)
    lengths = [len(row) for row in m]
    if any(length != size for length in lengths):
        raise ValueError(
            f"determinant needs a square matrix, got {size} rows of lengths {lengths}"
        )
    if size == 0:
        return 1
    sign = 1
    # pivots[k] divides the cross products of step k: 1, then each pivot.
    # Row i's stored entries are those Bareiss holds after since[i] steps.
    pivots = [1]
    since = [0] * size

    def bring_current(i, k):
        # Scale row i from column k on by the factors of the steps it skipped.
        level = since[i]
        if level < k:
            row = m[i]
            up, down = pivots[k], pivots[level]
            for j in range(k, size):
                if row[j]:
                    row[j] = row[j] * up // down
            since[i] = k

    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    since[k], since[r] = since[r], since[k]
                    sign = -sign
                    break
            else:
                return m[k][k]
        bring_current(k, k)
        pivot_row = m[k]
        pivot = pivot_row[k]
        prev = pivots[k]
        for i in range(k + 1, size):
            row = m[i]
            if not row[k]:
                continue
            bring_current(i, k)
            lead = row[k]
            for j in range(k + 1, size):
                # Exact by the Bareiss identity: prev divides the cross product.
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
            row[k] = 0
            since[i] = k + 1
        pivots.append(pivot)
    bring_current(size - 1, size - 1)
    return sign * m[-1][-1]


def wheel_spanning_trees(n: int) -> int:
    """Spanning-tree count of the wheel with n rim vertices, by a Laplacian cofactor."""
    lap = laplacian(WheelGraph(n))
    minor = [row[1:] for row in lap[1:]]
    return determinant_fraction_free(minor)


def spanning_trees_bruteforce(graph: WheelGraph, max_edges: int = 20) -> int:
    """Count spanning trees by enumerating edge subsets.

    Independent oracle for the cofactor route; parallel edges count as
    distinct.  Refuses graphs with more than `max_edges` edges.
    """
    edges = graph.edges()
    if len(edges) > max_edges:
        raise EnumerationLimitError(
            f"{len(edges)} edges exceeds the enumeration bound of {max_edges}"
        )
    size = graph.vertex_count
    count = 0
    for subset in itertools.combinations(edges, size - 1):
        parent = list(range(size))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


def is_perfect_square(value: int) -> tuple[bool, int | None]:
    """Whether `value` is a perfect square, plus its exact root when it is."""
    if value < 0:
        return False, None
    root = math.isqrt(value)
    if root * root == value:
        return True, root
    return False, None


def residue_mod8(value: int) -> int:
    """Nonnegative residue of `value` modulo 8."""
    return value % 8
