"""Structured triangulation of the unit square and P1/P2 Lagrange elements.

The mesh is uniform with southwest-northeast diagonals. The boundary is
split into gamma1 = {x=1} u {y=1} (Dirichlet, closed: shared corners
belong to gamma1) and gamma2 = {x=0} u {y=0} (natural/Neumann). The
triangles and the boundary edges come from index arithmetic on the vertex
numbering, and the P2 edge dofs from one ``np.unique`` of integer edge keys,
with no loop over cells.

Assembly is vectorized over elements. Each FeSpace owns its element data
as attributes formed on first use (areas, reference basis values N and
products, reference gradient products S_k with per-element weights, element
mass and stiffness matrices, physical quadrature points and weights), the
one ``gather`` of element values and the one ``scatter`` (one ``bincount``)
of element vectors into nodal fields. The kernels are matmuls between the
two: fields at the quadrature points ``gather(u) @ N^T``, loads of a
time-free f(x, y) ``scatter((f * w) @ N)``, and the stacked mass and stiffness
(``ElementOperator``) the element matrices times ``gather(u)``, scattered.
``assemble_elements`` sums element matrices into the tests' CSR references
(``assemble_mass``, ``assemble_stiffness`` and the values of
``assemble_reaction_jacobian_system``, all on one pattern), and
``assemble_reaction_system`` is the tests' reference for the reaction; none
runs in the pipeline. They stay only because the benchmark's tracer names
the ``assemble_reaction_*`` pair and linalg's CSR functions as targets,
which read 0 on every workload; they move to the tests once a benchmark
change drops those targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import CsrMatrix

GAMMA1 = "gamma1"
GAMMA2 = "gamma2"


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


@dataclass
class TriMesh:
    n_side: int
    vertices: np.ndarray  # (n_vert, 2)
    triangles: np.ndarray  # (n_tri, 3), positively oriented
    boundary_edges: list  # [(v0, v1, tag)]


def build_mesh(n_side: int) -> TriMesh:
    """Uniform triangulation of [0,1]^2 with SW-NE diagonals.

    Vertex (i, j) is j (n + 1) + i. Cell (i, j), in row-major order, has the
    lower-left vertex a and the triangles (a, a + 1, a + n + 2) below its
    diagonal and (a, a + n + 2, a + n + 1) above it. The boundary edges run,
    for each i, along y = 0 and x = 0 (gamma2), then y = 1 and x = 1 (gamma1).
    """
    if n_side < 1:
        raise ValueError("n_side must be at least 1")
    n = n_side
    grid = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(grid, grid, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    k = np.arange(n, dtype=np.int64)
    a = (k[:, None] * (n + 1) + k).reshape(-1, 1, 1)  # lower-left vertices, row-major
    triangles = (a + np.array([[0, 1, n + 2], [0, n + 2, n + 1]])).reshape(-1, 3)

    # edge i of each side starts i steps along it: 1 along a row, n + 1 up a column
    step = np.array([1, n + 1, 1, n + 1])
    starts = (k[:, None] * step + np.array([0, 0, n * (n + 1), n])).ravel()
    ends = starts + np.tile(step, n)
    tags = [GAMMA2, GAMMA2, GAMMA1, GAMMA1] * n
    edges = list(zip(starts.tolist(), ends.tolist(), tags))
    return TriMesh(n, vertices, triangles, edges)


def export_mesh(mesh: TriMesh, path):
    """Plain-text node / element / boundary-edge lists."""
    with open(path, "w") as fh:
        fh.write(f"# unit-square mesh, n_side = {mesh.n_side}\n")
        fh.write(f"nodes {len(mesh.vertices)}\n")
        np.savetxt(fh, mesh.vertices, fmt="%.17g")
        fh.write(f"triangles {len(mesh.triangles)}\n")
        np.savetxt(fh, mesh.triangles, fmt="%d")
        fh.write(f"boundary_edges {len(mesh.boundary_edges)}\n")
        np.savetxt(fh, mesh.boundary_edges, fmt="%s")


# ---------------------------------------------------------------------------
# quadrature on the reference triangle
# ---------------------------------------------------------------------------


@dataclass
class Quadrature:
    points: np.ndarray  # (nq, 3) barycentric
    weights: np.ndarray  # sum to 1 (reference measure normalized)


def quadrature_for_degree(degree: int) -> Quadrature:
    if degree <= 2:
        pts = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        w = np.full(3, 1.0 / 3.0)
        return Quadrature(pts, w)
    if degree <= 4:
        a = 0.445948490915964886318329253883254
        b = 0.091576213509770743459571463402202
        wa = 0.223381589678011471811203136894619
        wb = 0.109951743655321868602240736415305
        pts = np.array(
            [
                [a, a, 1 - 2 * a],
                [a, 1 - 2 * a, a],
                [1 - 2 * a, a, a],
                [b, b, 1 - 2 * b],
                [b, 1 - 2 * b, b],
                [1 - 2 * b, b, b],
            ]
        )
        w = np.array([wa, wa, wa, wb, wb, wb])
        return Quadrature(pts, w)
    raise ValueError(f"no quadrature rule of degree {degree}")


def _basis_values(degree: int, bary: np.ndarray) -> np.ndarray:
    """Lagrange basis values at barycentric points; shape (npts, nloc)."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    if degree == 1:
        return np.column_stack([l0, l1, l2])
    if degree == 2:
        return np.column_stack(
            [
                l0 * (2 * l0 - 1),
                l1 * (2 * l1 - 1),
                l2 * (2 * l2 - 1),
                4 * l1 * l2,  # edge opposite vertex 0
                4 * l0 * l2,  # edge opposite vertex 1
                4 * l0 * l1,  # edge opposite vertex 2
            ]
        )
    raise ValueError("degree must be 1 or 2")


def _basis_ref_grads(degree: int, bary: np.ndarray) -> np.ndarray:
    """Reference-coordinate gradients; shape (npts, nloc, 2), with x=l1, y=l2."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    one = np.ones_like(l0)
    zero = np.zeros_like(l0)
    # dl0 = (-1,-1), dl1 = (1,0), dl2 = (0,1)
    if degree == 1:
        gx = np.column_stack([-one, one, zero])
        gy = np.column_stack([-one, zero, one])
    elif degree == 2:
        gx = np.column_stack(
            [-(4 * l0 - 1), 4 * l1 - 1, zero, 4 * l2, -4 * l2, 4 * (l0 - l1)]
        )
        gy = np.column_stack(
            [-(4 * l0 - 1), zero, 4 * l2 - 1, 4 * l1, 4 * (l0 - l2), -4 * l1]
        )
    else:
        raise ValueError("degree must be 1 or 2")
    return np.stack([gx, gy], axis=-1)


# ---------------------------------------------------------------------------
# finite element space
# ---------------------------------------------------------------------------


@dataclass
class FeSpace:
    mesh: TriMesh
    degree: int
    dof_coords: np.ndarray  # (n_dof, 2)
    dirichlet_mask: np.ndarray  # bool per dof
    n_dof: int
    cell_dofs: np.ndarray  # (n_tri, nloc)
    quad: Quadrature
    _scatter_rows: dict = field(default_factory=dict, repr=False)  # (count, width) -> rows

    # -- element data, formed on first use -----------------------------------

    @cached_property
    def area(self) -> np.ndarray:
        """(ne,) element areas."""
        p = self.mesh.vertices[self.mesh.triangles]  # (ne, 3, 2)
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1])

    @cached_property
    def basis_values(self) -> np.ndarray:
        """(nq, nloc) basis values N at the reference quadrature points."""
        return _basis_values(self.degree, self.quad.points)

    @cached_property
    def quadrature_points(self) -> np.ndarray:
        """(ne, nq, 2) physical quadrature points."""
        return np.einsum("qv,eva->eqa", self.quad.points, self.mesh.vertices[self.mesh.triangles])

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        """(ne, nq) weights area_e * w_q of the physical quadrature rule."""
        return self.area[:, None] * self.quad.weights[None, :]

    @cached_property
    def basis_products(self) -> np.ndarray:
        """(nq, nloc^2) products N_i(q) N_j(q), row-major in (i, j)."""
        n = self.basis_values
        return (n[:, :, None] * n[:, None, :]).reshape(len(n), -1)

    @cached_property
    def gradient_products(self) -> np.ndarray:
        """(3, nloc, nloc) reference matrices S_xx, S_xy + S_yx and S_yy, with
        S_ab[i, j] = sum_q w_q d_a N_i(q) d_b N_j(q) on the reference triangle."""
        g = _basis_ref_grads(self.degree, self.quad.points)  # (nq, nloc, 2)
        s = np.einsum("q,qia,qjb->abij", self.quad.weights, g, g)
        return np.stack([s[0, 0], s[0, 1] + s[1, 0], s[1, 1]])

    @cached_property
    def gradient_weights(self) -> np.ndarray:
        """(ne, 3) weights area_e (G_xx, G_xy, G_yy) of G = J_e^-1 J_e^-T, the
        metric of the affine map J_e."""
        p = self.mesh.vertices[self.mesh.triangles]  # (ne, 3, 2)
        (j11, j21), (j12, j22) = (p[:, 1] - p[:, 0]).T, (p[:, 2] - p[:, 0]).T
        det = 2.0 * self.area
        # rows of the inverse of the affine Jacobian, per element
        inv_x, inv_y = np.stack([j22, -j12]) / det, np.stack([-j21, j11]) / det
        metric = np.stack([(inv_x * inv_x).sum(0), (inv_x * inv_y).sum(0), (inv_y * inv_y).sum(0)])
        return (self.area * metric).T.copy()

    @cached_property
    def element_mass(self) -> np.ndarray:
        """(ne, nloc, nloc) element mass matrices area_e sum_q w_q N_i(q) N_j(q)."""
        nvals = self.basis_values
        return self.area[:, None, None] * np.einsum("q,qi,qj->ij", self.quad.weights, nvals, nvals)

    @cached_property
    def element_stiffness(self) -> np.ndarray:
        """(ne, nloc, nloc) element stiffness matrices sum_k gradient_weights[e, k] S_k."""
        s = self.gradient_products
        return (self.gradient_weights @ s.reshape(3, -1)).reshape((-1,) + s.shape[1:])

    def gather(self, fields: np.ndarray, axis: int = -1) -> np.ndarray:
        """Element values: the n_dof axis ``axis`` of ``fields`` becomes (ne, nloc)."""
        return np.take(fields, self.cell_dofs, axis=axis)

    def scatter(self, elem: np.ndarray, width: int | None = None) -> np.ndarray:
        """Element vectors summed into nodal fields by one ``bincount``:
        (..., ne, nloc) -> (..., n_dof), or, for entries ``width`` columns
        wide, (..., ne, nloc, width) -> (..., n_dof, width). The bincount
        targets are kept per (number of fields, width): an operator product
        uses two widths, its block's and its last block's."""
        columns = () if width is None else (width,)
        fields = elem.shape[: elem.ndim - 2 - len(columns)]
        shape = fields + (self.n_dof,) + columns
        key = (math.prod(fields), width or 1)
        if key not in self._scatter_rows:
            stacked = self.cell_dofs + self.n_dof * np.arange(key[0])[:, None, None]
            self._scatter_rows[key] = (stacked[..., None] * key[1] + np.arange(key[1])).ravel()
        rows = self._scatter_rows[key]
        return np.bincount(rows, weights=elem.ravel(), minlength=math.prod(shape)).reshape(shape)

    def at_quadrature(self, states: np.ndarray) -> np.ndarray:
        """(n_comp, n_dof) nodal fields at the quadrature points, (n_comp, ne, nq)."""
        return self.gather(states) @ self.basis_values.T

    # -- stacked operators ---------------------------------------------------

    def mass_matrix(self, n_components: int = 1) -> ElementOperator:
        """The mass operator, block-diagonal over ``n_components`` stacked fields."""
        return ElementOperator(self, self.element_mass, n_components)

    def stiffness_matrix(self, n_components: int = 1) -> ElementOperator:
        """The stiffness operator, block-diagonal over ``n_components`` stacked fields."""
        return ElementOperator(self, self.element_stiffness, n_components)


#: column blocks of at most this many element values (512 kB) bound a product's temporaries
_BLOCK_ENTRIES = 1 << 16


@dataclass(eq=False)
class ElementOperator:
    """The (ne, nloc, nloc) element matrices in each diagonal block of
    ``n_components`` stacked fields, applied cell by cell (Kronbichler &
    Kormann, Comput. Fluids 63, 2012): gather, one batched matmul, scatter."""

    space: FeSpace
    elements: np.ndarray  # (ne, nloc, nloc)
    n_components: int

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError(f"n_components must be at least 1, got {self.n_components}")
        self.rows = self.cols = self.n_components * self.space.n_dof

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product with a vector or, column block by block, a matrix."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.cols:
            raise ValueError(f"dimension mismatch: {x.shape[0]} rows, expected {self.cols}")
        columns = x.reshape(self.n_components, self.space.n_dof, -1)
        out = np.empty(columns.shape)
        width = max(1, _BLOCK_ENTRIES // (self.n_components * self.elements[..., 0].size))
        for j in range(0, columns.shape[-1], width):
            block = self.space.gather(columns[..., j : j + width], axis=1)  # (nc, ne, nloc, w)
            out[..., j : j + width] = self.space.scatter(self.elements @ block, block.shape[-1])
        return out.reshape(x.shape)


def build_space(mesh: TriMesh, degree: int) -> FeSpace:
    """Lagrange space of degree 1 or 2 with Dirichlet dofs on gamma1."""
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    n_vert = len(mesh.vertices)
    if degree == 1:
        coords = mesh.vertices.copy()
        cell_dofs = mesh.triangles.copy()
    else:
        tri = mesh.triangles
        # the edges opposite vertices 0, 1, 2, keyed lo * n_vert + hi by their
        # endpoints lo < hi: the keys' numeric order is the pairs' lexicographic one
        ends = tri[:, [[1, 2], [0, 2], [0, 1]]].transpose(1, 0, 2)  # (3, ne, 2)
        keys = ends.min(axis=2) * n_vert + ends.max(axis=2)
        uniq, inverse = np.unique(keys, return_inverse=True)
        lo, hi = np.divmod(uniq, n_vert)
        cell_dofs = np.column_stack([tri, n_vert + inverse.reshape(3, -1).T])
        midpoints = 0.5 * (mesh.vertices[lo] + mesh.vertices[hi])
        coords = np.vstack([mesh.vertices, midpoints])
    mask = (np.abs(coords - 1.0) < 1e-12).any(axis=1)  # gamma1: x = 1 or y = 1
    quad = quadrature_for_degree(2 if degree == 1 else 4)
    return FeSpace(mesh, degree, coords, mask, len(coords), cell_dofs, quad)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def assemble_elements(space: FeSpace, elements: np.ndarray) -> CsrMatrix:
    """The (ne, nloc, nloc) element matrices, or their (ne, nloc^2) rows,
    summed into CSR. The pattern is the space's, whatever the values."""
    dofs, nloc = space.cell_dofs, space.cell_dofs.shape[1]
    rows, cols = np.repeat(dofs, nloc, axis=1).ravel(), np.tile(dofs, (1, nloc)).ravel()
    return CsrMatrix.from_coo(space.n_dof, space.n_dof, rows, cols, np.ravel(elements))


def assemble_mass(space: FeSpace) -> CsrMatrix:
    """The assembled mass matrix, a reference for ``space.mass_matrix()``."""
    return assemble_elements(space, space.element_mass)


def assemble_stiffness(space: FeSpace) -> CsrMatrix:
    """The assembled stiffness matrix, a reference for ``space.stiffness_matrix()``."""
    return assemble_elements(space, space.element_stiffness)


def assemble_load(space: FeSpace, f) -> np.ndarray:
    """Load vector with entries int f phi_i; f maps (x, y) -> values."""
    qc = space.quadrature_points
    fx = np.asarray(f(qc[..., 0], qc[..., 1]), dtype=np.float64)
    return space.scatter((fx * space.quadrature_weights) @ space.basis_values)


def assemble_reaction_system(space: FeSpace, states: np.ndarray, g) -> np.ndarray:
    """Vectors with entries int g_c(u) phi_i for a multi-component state.

    ``states`` is (n_comp, n_dof); ``g`` maps (n_comp, ...) values to
    (n_comp, ...) values pointwise. Returns (n_comp, n_dof).
    """
    gq = np.asarray(g(space.at_quadrature(states)), dtype=np.float64)
    return space.scatter((gq * space.quadrature_weights) @ space.basis_values)


def assemble_reaction_jacobian_system(space: FeSpace, states: np.ndarray, g_prime) -> np.ndarray:
    """Pattern-aligned value blocks of the reaction Jacobian, from its element
    matrices (g'(u_q) * w) @ P.

    ``g_prime`` maps (n_comp, ...) values to (n_comp, n_comp, ...) partial
    derivatives. Returns (n_comp, n_comp, nnz) values on the pattern of
    ``assemble_mass(space)``.
    """
    dq = np.asarray(g_prime(space.at_quadrature(states)), dtype=np.float64)
    elem = (dq * space.quadrature_weights) @ space.basis_products
    return np.array([[assemble_elements(space, block).values for block in row] for row in elem])


def interpolate(space: FeSpace, f) -> np.ndarray:
    """Nodal values f(dof_coords)."""
    return np.asarray(f(space.dof_coords[:, 0], space.dof_coords[:, 1]), dtype=np.float64)

