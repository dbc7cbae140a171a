"""Billiard tables built from lattice subspaces, and transitivity analysis.

A scatterer is a tubular neighborhood of a translated subtorus: an
integer-spanned generator subspace fixes the axis directions, collisions are
geometrically nontrivial only in the orthocomplement (the base space), and
the axis translates repeat along the projection of the integer lattice into
the base space.

Tables carry tri-state validation flags. Connectedness of the exterior domain
and positivity of the boundary spatial angle are *assumed*, not decided: both
are global conditions the caller must guarantee (see README).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    BaseDimTooSmall,
    BudgetExceeded,
    DependentBasis,
    DimensionMismatch,
    RadiusTooLarge,
    UnknownCylinderIndex,
)
from .lattice import ProjectedLattice, hermite_generating_rows
from .linalg import as_matrix, integer_nullspace, rational_rank, span_split

# Tri-state validation flags.
HOLDS = "holds"
FAILS = "fails"
UNCHECKED = "unchecked"

# Orthogonality threshold for the non-orthogonality graph of float-only
# inputs; integer inputs are decided exactly from integer inner products.
GRAPH_TOL = 1e-10

# Work cap for disjointness enumeration before reporting "unchecked".
DISJOINT_BUDGET = 200_000


@dataclass(frozen=True, eq=False)
class LatticeSubspace:
    """Integer-spanned subspace of R^d together with its orthocomplement."""

    ambient_dim: int
    integer_basis: tuple[tuple[int, ...], ...]
    ortho_basis: np.ndarray
    complement_basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.ortho_basis.shape[0]

    @classmethod
    def from_integer_basis(cls, vectors, ambient_dim: int) -> "LatticeSubspace":
        rows = []
        for v in vectors:
            row = tuple(int(x) for x in v)
            if any(float(b) != float(a) for a, b in zip(v, row)):
                raise ValueError(
                    f"non-integer basis vector {tuple(v)}: only subspaces of the "
                    "standard integer lattice are supported"
                )
            if len(row) != ambient_dim:
                raise DimensionMismatch(
                    f"basis vector has length {len(row)}, expected {ambient_dim}"
                )
            rows.append(row)
        if rational_rank(rows) != len(rows):
            raise DependentBasis("integer basis vectors are dependent over Q")
        return cls(ambient_dim, tuple(rows), *span_split(as_matrix(rows, ambient_dim), len(rows)))


def orthocomplement(basis, dim: int) -> np.ndarray:
    """Orthonormal basis (rows) of the orthocomplement of span(basis) in R^d.

    Empty input returns a full orthonormal basis of R^d. Integer input gets
    an exact rank so the returned count is always d - rank.
    """
    mat = as_matrix(basis, dim)
    rows = _integer_rows(mat)
    return span_split(mat, None if rows is None else rational_rank(rows))[1]


def _integer_rows(mat: np.ndarray) -> list[list[int]] | None:
    """The rows of ``mat`` as Python integers when every entry is a finite
    integral float, else None. ``int`` is exact on any integral float, where
    a cast to a fixed-width integer wraps past 2^63."""
    if not np.all(np.isfinite(mat) & (mat == np.rint(mat))):
        return None
    return [[int(x) for x in row] for row in mat.tolist()]


@dataclass(frozen=True, eq=False)
class Cylinder:
    """One scatterer: generator subspace, base data, translation, radius."""

    generator: LatticeSubspace
    base: LatticeSubspace
    base_dim: int
    translation: np.ndarray
    radius: float
    lattice: ProjectedLattice

    @property
    def ambient_dim(self) -> int:
        return self.generator.ambient_dim

    @property
    def base_basis(self) -> np.ndarray:
        """Orthonormal rows spanning the base space."""
        return self.generator.complement_basis

    @cached_property
    def base_projector(self) -> np.ndarray:
        """Orthogonal projector onto the base space, computed once."""
        b = self.base_basis
        return b.T @ b


def build_cylinder(integer_generator_basis, translation, radius: float, dim: int) -> Cylinder:
    """Construct a scatterer from integer axis directions.

    Raises BaseDimTooSmall when fewer than two directions remain transverse to
    the axis, and RadiusTooLarge when the tube would overlap its own lattice
    translates (2r must stay below the shortest nonzero projected-lattice
    vector; the comparison is exact).
    """
    generator = LatticeSubspace.from_integer_basis(integer_generator_basis, dim)
    base_dim = dim - generator.dim
    if base_dim < 2:
        raise BaseDimTooSmall(
            f"base space has dimension {base_dim}; need at least 2"
        )
    if radius <= 0:
        raise ValueError("radius must be positive")
    lattice = ProjectedLattice.from_generator(
        [list(r) for r in generator.integer_basis], dim, generator.complement_basis
    )
    if Fraction(2 * radius) ** 2 >= lattice.shortest_sq:
        raise RadiusTooLarge(
            f"2r = {2 * radius} reaches shortest projected-lattice vector "
            f"{lattice.shortest_norm:.6g}"
        )
    base = _base_subspace(generator)
    translation = np.mod(np.asarray(translation, dtype=float), 1.0)
    if translation.shape != (dim,):
        raise DimensionMismatch("translation length does not match ambient dimension")
    return Cylinder(
        generator=generator,
        base=base,
        base_dim=base_dim,
        translation=translation,
        radius=float(radius),
        lattice=lattice,
    )


def _base_subspace(generator: LatticeSubspace) -> LatticeSubspace:
    """The base space as a lattice subspace (integer basis from exact nullspace)."""
    d = generator.ambient_dim
    if not generator.integer_basis:
        return LatticeSubspace.from_integer_basis(np.eye(d, dtype=int), d)
    null = integer_nullspace([list(r) for r in generator.integer_basis])
    return LatticeSubspace.from_integer_basis(hermite_generating_rows(null), d)


@dataclass(frozen=True, eq=False)
class BilliardTable:
    """A torus minus cylindric scatterers, plus validation flags."""

    dim: int
    cylinders: tuple[Cylinder, ...]
    condition_1_3_disjoint: str = UNCHECKED
    condition_1_4_pairwise_base_intersection: bool = False
    transitive: bool = False
    validated: bool = False
    # Interior connectedness and positive spatial angle are assumed, never decided.
    interior_assumptions: str = "assumed"

    def cylinder(self, index: int) -> Cylinder:
        """Cylinder for a 1-based symbolic index."""
        if not 1 <= index <= len(self.cylinders):
            raise UnknownCylinderIndex(f"index {index} outside 1..{len(self.cylinders)}")
        return self.cylinders[index - 1]


class BaseRanks:
    """Exact ranks of a table's base spaces, each computed once: every pair
    intersection dimension up front and the span dimension of a set of
    cylinders on first request. Cylinder indices are 1-based, matching
    symbolic sequences."""

    def __init__(self, cylinders):
        self._bases = {i: [list(r) for r in c.base.integer_basis]
                       for i, c in enumerate(cylinders, start=1)}
        self._span_dims: dict[tuple[int, ...], int] = {}
        # dim(A ∩ B) = dim A + dim B - dim(A + B); integer bases are independent.
        self.pair_dims = {(a, b): len(self._bases[a]) + len(self._bases[b]) - self.span_dim((a, b))
                          for a, b in itertools.combinations(self._bases, 2)}

    def span_dim(self, indices: tuple[int, ...]) -> int:
        """Dimension of the span of the base spaces of these cylinders."""
        dim = self._span_dims.get(indices)
        if dim is None:
            dim = self._span_dims[indices] = rational_rank([row for i in indices for row in self._bases[i]])
        return dim


_BASE_RANKS: "weakref.WeakKeyDictionary[BilliardTable, BaseRanks]" = weakref.WeakKeyDictionary()


def base_ranks(table: BilliardTable) -> BaseRanks:
    """The table's base-space ranks: those ``validate_table`` computed, or
    computed now for a table it did not return."""
    ranks = _BASE_RANKS.get(table)
    if ranks is None:
        ranks = _BASE_RANKS[table] = BaseRanks(table.cylinders)
    return ranks


def build_table(cylinders) -> BilliardTable:
    cylinders = tuple(cylinders)
    if not cylinders:
        raise ValueError("a table needs at least one cylinder")
    dim = cylinders[0].ambient_dim
    if any(c.ambient_dim != dim for c in cylinders):
        raise DimensionMismatch("cylinders do not share an ambient dimension")
    return BilliardTable(dim=dim, cylinders=cylinders)


@dataclass(frozen=True, eq=False)
class TransitivityReport:
    """Orthogonal-splitting analysis of a system of base spaces."""

    span_dim: int
    generator_intersection_dim: int
    graph_components: tuple[tuple[int, ...], ...]
    onsp_holds: bool
    transitive: bool
    splitting_witness: tuple[np.ndarray, np.ndarray] | None


def transitivity_report(subspaces, dim: int | None = None) -> TransitivityReport:
    """Decide whether the base-space system admits no orthogonal splitting.

    The system is transitive iff the non-orthogonality graph (edge when two
    subspaces are not mutually orthogonal) is connected and the subspaces
    together span R^d. When it is not, a splitting witness (B1, B2) is
    returned: B1 spans one graph component, B2 is its orthocomplement, and
    every subspace lies entirely in one of them. When every subspace has an
    integer basis, orthogonality is decided exactly from integer inner
    products; ``GRAPH_TOL`` applies only to float input.

    Subspace indices in the report are 1-based, matching symbolic sequences.
    """
    bases = []
    int_bases = []
    for sub in subspaces:
        if isinstance(sub, LatticeSubspace):
            bases.append(sub.ortho_basis)
            int_bases.append([list(r) for r in sub.integer_basis])
        else:
            mat = as_matrix(sub, dim)
            bases.append(span_split(mat)[0])
            int_bases.append(_integer_rows(mat))
    if not bases:
        raise ValueError("need at least one subspace")
    d = bases[0].shape[1] if dim is None else dim
    if any(b.shape[1] != d for b in bases):
        raise DimensionMismatch("subspaces do not share an ambient dimension")
    if any(b.shape[0] == 0 for b in bases):
        raise ValueError("all subspaces must be nonzero")

    k = len(bases)
    exact = all(ib is not None for ib in int_bases)
    adjacency = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if exact:
                touching = any(sum(x * y for x, y in zip(ri, rj))
                               for ri in int_bases[i] for rj in int_bases[j])
            else:
                touching = bool(np.max(np.abs(bases[i] @ bases[j].T)) > GRAPH_TOL)
            adjacency[i][j] = adjacency[j][i] = touching
    components = _connected_components(adjacency)

    if exact:
        span_dim = rational_rank([row for ib in int_bases for row in ib])
    else:
        span_dim = len(span_split(np.vstack(bases))[0])
    onsp = len(components) == 1 and span_dim == d

    witness = None
    if not onsp:
        b1 = span_split(np.vstack([bases[i - 1] for i in components[0]]))[0]
        witness = (b1, span_split(b1)[1])
    return TransitivityReport(
        span_dim=span_dim,
        generator_intersection_dim=d - span_dim,
        graph_components=components,
        onsp_holds=onsp,
        transitive=onsp,
        splitting_witness=witness,
    )


def _connected_components(adjacency: list[list[bool]]) -> tuple[tuple[int, ...], ...]:
    k = len(adjacency)
    seen = [False] * k
    components = []
    for start in range(k):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            node = stack.pop()
            comp.append(node + 1)
            for other in range(k):
                if adjacency[node][other] and not seen[other]:
                    seen[other] = True
                    stack.append(other)
        components.append(tuple(sorted(comp)))
    return tuple(components)


def validate_table(table: BilliardTable, disjoint_budget: int = DISJOINT_BUDGET) -> BilliardTable:
    """Check pairwise base intersections exactly and closure disjointness
    by lattice-translate distance minimization; set the table flags.

    Disjointness of two tubes reduces to the distance between their axis
    subtori: the minimum over integer translates of the translation difference
    projected into the common base intersection. Enumeration beyond the budget
    reports "unchecked".
    """
    cylinders = table.cylinders
    k = len(cylinders)

    ranks = BaseRanks(cylinders)
    cond_1_4 = all(ranks.pair_dims.values())

    disjoint = HOLDS  # vacuous for a single cylinder
    if disjoint_budget <= 0 and k > 1:
        disjoint = UNCHECKED
    else:
        for i in range(k):
            for j in range(i + 1, k):
                verdict = _pair_disjoint(cylinders[i], cylinders[j], disjoint_budget)
                if verdict == FAILS:
                    disjoint = FAILS
                    break
                if verdict == UNCHECKED and disjoint == HOLDS:
                    disjoint = UNCHECKED
            if disjoint == FAILS:
                break

    report = transitivity_report([c.base for c in cylinders])
    validated = replace(
        table,
        condition_1_3_disjoint=disjoint,
        condition_1_4_pairwise_base_intersection=cond_1_4,
        transitive=report.transitive,
        validated=True,
    )
    _BASE_RANKS[validated] = ranks
    return validated


def _pair_disjoint(a: Cylinder, b: Cylinder, budget: int) -> str:
    try:
        dist = _axis_gap(a, b, budget)
    except BudgetExceeded:
        return UNCHECKED
    return HOLDS if dist > a.radius + b.radius + 1e-12 else FAILS


def axis_distance(a: Cylinder, b: Cylinder) -> float:
    """Torus distance between the two axis subtori (0 when they are dense)."""
    return _axis_gap(a, b)


def _axis_gap(a: Cylinder, b: Cylinder, max_points: int | None = None) -> float:
    """Distance from the translation difference to its nearest translate in
    the lattice projected along both generator spaces; 0 when the generators
    together span R^d, so that the axis subtori differ by a dense set of
    translates. Raises BudgetExceeded past ``max_points`` lattice points."""
    d = a.ambient_dim
    gen_rows = hermite_generating_rows(
        [list(r) for r in a.generator.integer_basis]
        + [list(r) for r in b.generator.integer_basis]
    )
    if len(gen_rows) == d:
        return 0.0
    lat = ProjectedLattice.from_generator(gen_rows, d)
    return lat.nearest(b.translation - a.translation, max_points)[1]


def hard_sphere_subspaces(n_particles: int, spatial_dim: int, reduced: bool) -> list[LatticeSubspace]:
    """Base spaces of the pair-collision cylinders for n unit-mass spheres.

    Each unordered pair (i, j) contributes the subspace of configuration
    displacements supported on blocks i and j only. With ``reduced=True`` the
    subspaces are first intersected with the zero-total-displacement
    hyperplane, which makes all pairwise intersections trivial.
    """
    if n_particles < 2 or spatial_dim < 2:
        raise ValueError("need at least 2 particles in at least 2 spatial dimensions")
    d = n_particles * spatial_dim
    out = []
    for i in range(n_particles):
        for j in range(i + 1, n_particles):
            rows = []
            if reduced:
                for s in range(spatial_dim):
                    row = [0] * d
                    row[i * spatial_dim + s] = 1
                    row[j * spatial_dim + s] = -1
                    rows.append(row)
            else:
                for block in (i, j):
                    for s in range(spatial_dim):
                        row = [0] * d
                        row[block * spatial_dim + s] = 1
                        rows.append(row)
            out.append(LatticeSubspace.from_integer_basis(rows, d))
    return out
