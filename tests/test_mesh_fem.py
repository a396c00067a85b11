"""Mesh and FEM assembly: structural mesh invariants, the mesh and the
space against their cell-by-cell oracles, quadrature exactness against
analytic monomial integrals, hand-computed P1 element matrices,
finite-difference Jacobian checks and a manufactured mixed-BC Poisson solve.
"""

from math import factorial

import numpy as np
import pytest

from helpers import as_dense, build_mesh_oracle, build_space_oracle, norms, on_pattern
from podrom import mesh_fem
from podrom.fom import brusselator_system
from podrom.linalg import CsrMatrix, krylov_solve, sym_eigen
from podrom.mesh_fem import (
    GAMMA1,
    GAMMA2,
    assemble_elements,
    assemble_load,
    assemble_mass,
    assemble_reaction_jacobian_system,
    assemble_reaction_system,
    assemble_stiffness,
    build_mesh,
    build_space,
    export_mesh,
    interpolate,
    quadrature_for_degree,
)

EPS = np.finfo(np.float64).eps


def apply_dirichlet(space, system, rhs, lift):
    """Symmetric elimination of the Dirichlet dofs of a scalar system: the
    solution equals lift on gamma1. Returns (constrained CsrMatrix, rhs)."""
    mask = space.dirichlet_mask
    lift_full = np.where(mask, np.asarray(lift, dtype=np.float64), 0.0)
    rhs = np.asarray(rhs, dtype=np.float64) - system.matvec(lift_full)
    rhs[mask] = lift_full[mask]
    ri = system.row_indices()
    ci = system.col_indices
    keep = ~(mask[ri] | mask[ci])
    rr = np.concatenate([ri[keep], np.flatnonzero(mask)])
    cc = np.concatenate([ci[keep], np.flatnonzero(mask)])
    vv = np.concatenate([system.values[keep], np.ones(int(mask.sum()))])
    return CsrMatrix.from_coo(system.rows, system.cols, rr, cc, vv), rhs


class TestMesh:
    def test_counts_n1(self):
        mesh = build_mesh(1)
        assert len(mesh.triangles) == 2
        assert len(mesh.vertices) == 4

    def test_counts_n2(self):
        mesh = build_mesh(2)
        assert len(mesh.triangles) == 8
        assert len(mesh.vertices) == 9
        assert len(mesh.boundary_edges) == 8

    def test_positive_orientation(self):
        mesh = build_mesh(4)
        v = mesh.vertices
        for a, b, c in mesh.triangles:
            e1, e2 = v[b] - v[a], v[c] - v[a]
            area2 = e1[0] * e2[1] - e1[1] * e2[0]
            assert area2 > 0

    def test_diagonals_run_southwest_northeast(self):
        mesh = build_mesh(3)
        v = mesh.vertices
        for tri in mesh.triangles:
            # the diagonal edge is the one with both coordinates changing
            for i in range(3):
                p, q = v[tri[i]], v[tri[(i + 1) % 3]]
                d = q - p
                if abs(d[0]) > 1e-12 and abs(d[1]) > 1e-12:
                    assert d[0] * d[1] > 0  # slope +1, never NW-SE

    def test_boundary_tags_partition(self):
        mesh = build_mesh(5)
        v = mesh.vertices
        seen = set()
        for a, b, tag in mesh.boundary_edges:
            mid = 0.5 * (v[a] + v[b])
            if tag == GAMMA1:
                assert np.isclose(mid[0], 1.0) or np.isclose(mid[1], 1.0)
            else:
                assert tag == GAMMA2
                assert np.isclose(mid[0], 0.0) or np.isclose(mid[1], 0.0)
            key = frozenset((a, b))
            assert key not in seen  # covered exactly once
            seen.add(key)
        assert len(seen) == 4 * 5

    def test_invalid_n_side(self):
        with pytest.raises(ValueError):
            build_mesh(0)

    def test_export_matches_the_arrays_line_by_line(self, tmp_path):
        mesh = build_mesh(2)
        lines = ["# unit-square mesh, n_side = 2", "nodes 9"]
        lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices]
        lines += ["triangles 8", *(" ".join(map(str, t)) for t in mesh.triangles.tolist())]
        lines += ["boundary_edges 8", *(f"{a} {b} {tag}" for a, b, tag in mesh.boundary_edges)]
        export_mesh(mesh, tmp_path / "mesh.txt")
        assert (tmp_path / "mesh.txt").read_text() == "\n".join(lines) + "\n"


class TestIndexArithmetic:
    """The mesh and the space equal their cell-by-cell oracles in value,
    dtype and order."""

    @staticmethod
    def assert_same_array(new, old):
        assert new.dtype == old.dtype and new.shape == old.shape
        assert np.array_equal(new, old)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("n_side", [*range(1, 33), 64])
    def test_matches_the_loop_oracle(self, n_side, degree):
        mesh, oracle = build_mesh(n_side), build_mesh_oracle(n_side)
        self.assert_same_array(mesh.vertices, oracle.vertices)
        self.assert_same_array(mesh.triangles, oracle.triangles)
        assert mesh.boundary_edges == oracle.boundary_edges
        assert all(type(a) is int and type(b) is int and type(tag) is str for a, b, tag in mesh.boundary_edges)
        space, want = build_space(mesh, degree), build_space_oracle(oracle, degree)
        for name in ("dof_coords", "cell_dofs", "dirichlet_mask"):
            self.assert_same_array(getattr(space, name), getattr(want, name))
        assert type(space.n_dof) is int and space.n_dof == want.n_dof

    def test_export_is_the_oracle_file(self, tmp_path):
        export_mesh(build_mesh(16), tmp_path / "mesh.txt")
        export_mesh(build_mesh_oracle(16), tmp_path / "oracle.txt")
        assert (tmp_path / "mesh.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("n_side", range(1, 9))
def test_assemble_elements_is_the_dense_scatter_on_one_pattern(n_side, degree):
    # the element mass, the element stiffness and a reaction block summed
    # into CSR: bit for bit the dense np.add.at scatter of the same entries in
    # the same (element, row, column) order, on the index arrays of
    # assemble_mass, whatever the values
    space = build_space(build_mesh(n_side), degree)
    rng = np.random.default_rng(n_side)
    states = np.array([1.0, 3.0])[:, None] + 0.3 * rng.standard_normal((2, space.n_dof))
    dq = brusselator_system(0.002).g_prime(space.at_quadrature(states))
    reaction = (dq[0, 1] * space.quadrature_weights) @ space.basis_products
    pattern = assemble_mass(space)
    shape = space.cell_dofs.shape + space.cell_dofs.shape[1:]
    rows = np.broadcast_to(space.cell_dofs[:, :, None], shape)
    cols = np.broadcast_to(space.cell_dofs[:, None, :], shape)
    for elements in (space.element_mass, space.element_stiffness, reaction.reshape(shape)):
        got = assemble_elements(space, elements)
        assert np.array_equal(got.row_offsets, pattern.row_offsets)
        assert np.array_equal(got.col_indices, pattern.col_indices)
        dense = np.zeros((space.n_dof, space.n_dof))
        np.add.at(dense, (rows, cols), elements)
        assert np.array_equal(as_dense(got), dense)


class TestSpace:
    def test_dof_counts(self):
        for n in (2, 5):
            assert build_space(build_mesh(n), 1).n_dof == (n + 1) ** 2
            assert build_space(build_mesh(n), 2).n_dof == (2 * n + 1) ** 2

    def test_dirichlet_mask_is_gamma1_closed(self):
        space = build_space(build_mesh(4), 2)
        x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
        on_gamma1 = np.isclose(x, 1.0) | np.isclose(y, 1.0)
        assert np.array_equal(space.dirichlet_mask, on_gamma1)
        # corners (1,0) and (0,1) belong to the closed Dirichlet set
        assert space.dirichlet_mask[np.isclose(x, 1.0) & np.isclose(y, 0.0)].all()

    def test_fine_p2_free_dof_reconciliation(self):
        # two-component P2 system on the 80-subdivision mesh: 51200 unknowns
        space = build_space(build_mesh(80), 2)
        free = space.n_dof - int(space.dirichlet_mask.sum())
        assert space.n_dof == 161**2
        assert 2 * free == 51200


class TestQuadrature:
    def test_monomial_exactness(self):
        # reference-triangle integral of x^p y^q is p! q! / (p + q + 2)!
        for degree in (2, 4):
            quad = quadrature_for_degree(degree)
            assert abs(quad.weights.sum() - 1.0) < 1e-15
            for p in range(degree + 1):
                for q in range(degree + 1 - p):
                    val = 0.5 * np.sum(
                        quad.weights * quad.points[:, 0] ** p * quad.points[:, 1] ** q
                    )
                    exact = factorial(p) * factorial(q) / factorial(p + q + 2)
                    assert abs(val - exact) <= 1e-14 * exact

    def test_unavailable_degree(self):
        with pytest.raises(ValueError):
            quadrature_for_degree(7)


class TestMass:
    def test_partition_of_unity(self):
        for degree in (1, 2):
            space = build_space(build_mesh(4), degree)
            m = assemble_mass(space)
            total = float(np.ones(space.n_dof) @ m.matvec(np.ones(space.n_dof)))
            assert abs(total - 1.0) < 1e-12

    def test_p1_single_triangle_element_matrix(self):
        # a 1-subdivision mesh consists of two right triangles of area 1/2;
        # the P1 element mass matrix of a triangle of area A is
        # A/6 on the diagonal, A/12 off it, so global entries are sums
        space = build_space(build_mesh(1), 1)
        m = as_dense(assemble_mass(space))
        area = 0.5
        # vertices 1 (=(1,0)) and 2 (=(0,1)) each belong to one triangle
        assert abs(m[1, 1] - area / 6) < 1e-14
        assert abs(m[2, 2] - area / 6) < 1e-14
        # vertices 0 and 3 are shared by both triangles
        assert abs(m[0, 0] - 2 * area / 6) < 1e-14
        assert abs(m[0, 1] - area / 12) < 1e-14

    def test_symmetry_and_positive_definite(self):
        space = build_space(build_mesh(3), 2)
        m = as_dense(assemble_mass(space))
        assert np.max(np.abs(m - m.T)) < 1e-14
        lam, _ = sym_eigen(m)
        assert lam[-1] > 0


class TestStiffness:
    def test_constants_in_kernel(self):
        for degree in (1, 2):
            space = build_space(build_mesh(4), degree)
            a = assemble_stiffness(space)
            assert np.max(np.abs(a.matvec(np.ones(space.n_dof)))) < 1e-12

    def test_p1_unit_right_triangle_element(self):
        # global stiffness on the 1-subdivision mesh restricted to one
        # triangle's interior couplings reproduces the hand-computed element
        # matrix [[1,-1/2,-1/2],[-1/2,1/2,0],[-1/2,0,1/2]] with the right
        # angle at the first vertex
        space = build_space(build_mesh(1), 1)
        a = as_dense(assemble_stiffness(space))
        # dof 1 = (1,0): right-angle coupling only within the lower triangle
        assert abs(a[1, 1] - 1.0) < 1e-14
        assert abs(a[1, 0] + 0.5) < 1e-14
        assert abs(a[1, 2] - 0.0) < 1e-14

    def test_symmetry(self):
        space = build_space(build_mesh(3), 2)
        a = as_dense(assemble_stiffness(space))
        assert np.max(np.abs(a - a.T)) < 1e-14

    def test_dirichlet_eliminated_positive_definite(self):
        space = build_space(build_mesh(3), 1)
        a, rhs = apply_dirichlet(
            space, assemble_stiffness(space), np.zeros(space.n_dof), np.zeros(space.n_dof)
        )
        lam, _ = sym_eigen(as_dense(a))
        assert lam[-1] > 0


class TestStackedOperators:
    @staticmethod
    def rounding_bound(space, reference):
        """Roundings per entry of the element operator and of the CSR
        reference, in units of u = eps / 2, each times the sum of the
        absolute element terms |E_e[i, j] x_j| of the entry. The operator
        rounds each product and the nloc - 1 sums of an element row, then
        the m - 1 sums of the m elements around a dof in ``bincount``; the
        reference rounds the m - 1 sums that assemble an entry, its product,
        and the nnz - 1 sums of the row, nnz its longest row."""
        nloc = space.cell_dofs.shape[1]
        m = int(np.bincount(space.cell_dofs.ravel()).max())
        nnz = int(np.diff(reference.row_offsets).max())
        return (nloc + m - 1) + (m + nnz - 1)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("nc", [1, 2, 3])
    def test_match_per_component_scalar_products(self, degree, nc):
        # the element operator against the assembled CSR reference applied
        # component by component, for a vector and for more columns than one
        # column block of the product, so the blocking runs: entries within
        # the rounding bound (measured: 5.0 u at worst against 20 u at P1 and
        # 35 u at P2), bit for bit the scalar operator's per component, and
        # the diagonal bit for bit the reference's
        space = build_space(build_mesh(3), degree)
        n = space.n_dof
        rng = np.random.default_rng(10 * degree + nc)
        width = mesh_fem._BLOCK_ENTRIES // (nc * space.cell_dofs.size)
        for stacked, scalar, reference, elements in (
            (space.mass_matrix(nc), space.mass_matrix(), assemble_mass(space), space.element_mass),
            (
                space.stiffness_matrix(nc),
                space.stiffness_matrix(),
                assemble_stiffness(space),
                space.element_stiffness,
            ),
        ):
            absolute = assemble_elements(space, np.abs(elements))
            k = self.rounding_bound(space, reference)
            assert (stacked.rows, stacked.cols) == (nc * n, nc * n)
            for x in (rng.standard_normal(nc * n), rng.standard_normal((nc * n, 2 * width + 3))):
                fields = x.reshape(nc, n, -1)
                want = np.concatenate([reference.matvec(f) for f in fields]).reshape(x.shape)
                scale = np.concatenate([absolute.matvec(np.abs(f)) for f in fields]).reshape(x.shape)
                got = stacked.matvec(x)
                assert got.shape == x.shape
                assert np.all(np.abs(got - want) <= k * EPS / 2 * scale)
                per_field = np.concatenate([scalar.matvec(f) for f in fields]).reshape(x.shape)
                assert np.array_equal(got, per_field)

    def test_built_once_per_count(self):
        # every operator applies the element matrices the space formed once
        space = build_space(build_mesh(2), 2)
        for nc in (1, 2, 3):
            for op, elements in (
                (space.mass_matrix(nc), space.element_mass),
                (space.stiffness_matrix(nc), space.element_stiffness),
            ):
                assert op.elements is elements
                assert op.n_components == nc
        assert space.mass_matrix().n_components == 1

    def test_rejects_a_count_below_one(self):
        space = build_space(build_mesh(2), 1)
        with pytest.raises(ValueError, match="n_components must be at least 1"):
            space.mass_matrix(0)

    def test_rejects_an_operand_of_the_wrong_row_count(self):
        space = build_space(build_mesh(2), 1)
        with pytest.raises(ValueError, match=f"dimension mismatch: 3 rows, expected {2 * space.n_dof}"):
            space.mass_matrix(2).matvec(np.ones(3))


class TestReaction:
    def test_zero_g(self):
        space = build_space(build_mesh(3), 2)
        state = np.random.default_rng(0).standard_normal(space.n_dof)
        out = assemble_reaction_system(space, state[None], lambda u: np.zeros_like(u))[0]
        assert np.array_equal(out, np.zeros(space.n_dof))

    def test_constant_g_gives_load(self):
        space = build_space(build_mesh(3), 2)
        state = np.zeros(space.n_dof)
        out = assemble_reaction_system(space, state[None], lambda u: np.ones_like(u))[0]
        m = assemble_mass(space)
        col_sums = m.matvec(np.ones(space.n_dof))
        assert np.max(np.abs(out - col_sums)) < 1e-13

    def test_linear_g_matches_mass_product(self):
        space = build_space(build_mesh(4), 1)
        rng = np.random.default_rng(1)
        state = rng.standard_normal(space.n_dof)
        out = assemble_reaction_system(space, state[None], lambda u: u)[0]
        m = assemble_mass(space)
        assert np.max(np.abs(out - m.matvec(state))) < 1e-12

    def test_jacobian_constant_gprime_is_mass(self):
        space = build_space(build_mesh(3), 2)
        state = np.zeros(space.n_dof)
        gp = lambda u: np.ones_like(u)[None]  # (1, 1, ne, nq) partials
        j = on_pattern(space, assemble_reaction_jacobian_system(space, state[None], gp)[0, 0])
        m = assemble_mass(space)
        assert np.max(np.abs(as_dense(j) - as_dense(m))) < 1e-12

    def test_jacobian_matches_finite_differences(self):
        space = build_space(build_mesh(3), 2)
        rng = np.random.default_rng(2)
        state = rng.standard_normal(space.n_dof)
        g = lambda u: u**3 - np.sin(u)
        gp = lambda u: (3 * u**2 - np.cos(u))[None]  # (1, 1, ne, nq) partials
        j = on_pattern(space, assemble_reaction_jacobian_system(space, state[None], gp)[0, 0])
        direction = rng.standard_normal(space.n_dof)
        eps = 1e-6
        fd = (
            assemble_reaction_system(space, (state + eps * direction)[None], g)[0]
            - assemble_reaction_system(space, (state - eps * direction)[None], g)[0]
        ) / (2 * eps)
        jd = j.matvec(direction)
        assert np.linalg.norm(fd - jd) <= 1e-5 * max(1.0, np.linalg.norm(jd))


class TestQuadratureKernels:
    """The matmul kernels against the einsum formulas they replaced."""

    @staticmethod
    def fields(degree):
        space = build_space(build_mesh(5), degree)
        rng = np.random.default_rng(degree)
        states = np.array([1.0, 3.0])[:, None] + 0.3 * rng.standard_normal((2, space.n_dof))
        return space, states, brusselator_system(0.002)

    @staticmethod
    def close(new, old):
        return np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_states_at_quadrature(self, degree):
        space, states, _ = self.fields(degree)
        old = np.einsum("cel,ql->ceq", states[:, space.cell_dofs], space.basis_values)
        assert self.close(space.at_quadrature(states), old)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_reaction_vectors(self, degree):
        space, states, system = self.fields(degree)
        area, nvals = space.area, space.basis_values
        uq = np.einsum("cel,ql->ceq", states[:, space.cell_dofs], nvals)
        elem = np.einsum("q,ceq,qi->cei", space.quad.weights, system.g(uq), nvals)
        elem *= area[None, :, None]
        dofs = space.cell_dofs.ravel()
        old = np.array([np.bincount(dofs, weights=e.ravel(), minlength=space.n_dof) for e in elem])
        assert self.close(assemble_reaction_system(space, states, system.g), old)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_reaction_jacobian_blocks(self, degree):
        space, states, system = self.fields(degree)
        area, nvals = space.area, space.basis_values
        uq = np.einsum("cel,ql->ceq", states[:, space.cell_dofs], nvals)
        elem = np.einsum("q,abeq,qi,qj->abeij", space.quad.weights, system.g_prime(uq), nvals, nvals)
        elem *= area[:, None, None]
        # scatter every element matrix into dense blocks, then read them off
        # on the shared pattern
        n, nloc = space.n_dof, space.cell_dofs.shape[1]
        rows = np.repeat(space.cell_dofs, nloc, axis=1).ravel()
        cols = np.tile(space.cell_dofs, (1, nloc)).ravel()
        pattern = assemble_mass(space)
        ri, ci = pattern.row_indices(), pattern.col_indices
        old = np.empty((2, 2, pattern.nnz))
        for a in range(2):
            for b in range(2):
                dense = np.zeros((n, n))
                np.add.at(dense, (rows, cols), elem[a, b].ravel())
                old[a, b] = dense[ri, ci]
        assert self.close(assemble_reaction_jacobian_system(space, states, system.g_prime), old)


class TestInterpolate:
    def test_constant(self):
        space = build_space(build_mesh(3), 2)
        v = interpolate(space, lambda x, y: np.ones_like(x))
        assert np.array_equal(v, np.ones(space.n_dof))

    def test_linear_exact(self):
        for degree in (1, 2):
            space = build_space(build_mesh(3), degree)
            v = interpolate(space, lambda x, y: 2 * x - 3 * y + 1)
            expect = 2 * space.dof_coords[:, 0] - 3 * space.dof_coords[:, 1] + 1
            assert np.max(np.abs(v - expect)) < 1e-13

    def test_p2_interpolation_order(self):
        f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        errs = []
        for n in (4, 8, 16):
            space = build_space(build_mesh(n), 2)
            v = interpolate(space, f) - interpolate(space, f)  # placeholder
            # L2 error of the interpolant measured by quadrature
            from podrom.harness import l2_error_vs_exact

            errs.append(l2_error_vs_exact(space, interpolate(space, f), f))
        slope = np.polyfit(np.log([1 / 4, 1 / 8, 1 / 16]), np.log(errs), 1)[0]
        assert slope >= 2.8


class TestDirichletAndNorms:
    def test_zero_lift_identity_rows(self):
        space = build_space(build_mesh(3), 1)
        a, rhs = apply_dirichlet(
            space, assemble_stiffness(space), np.zeros(space.n_dof), np.zeros(space.n_dof)
        )
        dense = as_dense(a)
        for i in np.flatnonzero(space.dirichlet_mask):
            row = np.zeros(space.n_dof)
            row[i] = 1.0
            assert np.array_equal(dense[i], row)
            assert rhs[i] == 0.0

    def test_constant_solution_laplace(self):
        # -Lap u = 0, u = 1 on gamma1, natural condition on gamma2 -> u = 1
        space = build_space(build_mesh(4), 2)
        lift = np.zeros(space.n_dof)
        lift[space.dirichlet_mask] = 1.0
        a, rhs = apply_dirichlet(space, assemble_stiffness(space), np.zeros(space.n_dof), lift)
        u, _ = krylov_solve(a, rhs, tol=1e-13)
        assert np.max(np.abs(u - 1.0)) < 1e-10

    def test_manufactured_mixed_bc_poisson_order(self):
        # u = cos(pi x / 2) cos(pi y / 2): vanishes on gamma1, has zero
        # normal derivative on gamma2, and -Lap u = (pi^2/2) u
        from podrom.harness import l2_error_vs_exact

        exact = lambda x, y: np.cos(np.pi * x / 2) * np.cos(np.pi * y / 2)
        errs, hs = [], []
        for n in (4, 8, 16):
            space = build_space(build_mesh(n), 2)
            f = lambda x, y: (np.pi**2 / 2) * exact(x, y)
            rhs = assemble_load(space, f)
            a, rhs = apply_dirichlet(space, assemble_stiffness(space), rhs, np.zeros(space.n_dof))
            u, _ = krylov_solve(a, rhs, tol=1e-13)
            errs.append(l2_error_vs_exact(space, u, exact))
            hs.append(1.0 / n)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 2.7  # theory: k + 1 = 3

    def test_norms_examples(self):
        space = build_space(build_mesh(32), 2)
        l2, h1 = norms(space, np.zeros(space.n_dof))
        assert (l2, h1) == (0.0, 0.0)
        l2, h1 = norms(space, np.ones(space.n_dof))
        # h1 is the square root of an O(eps)-sized accumulated quadratic form
        assert abs(l2 - 1.0) < 1e-12 and h1 < 1e-5
        v = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        l2, h1 = norms(space, v)
        assert abs(l2 - 0.5) < 0.005
        assert abs(h1 - np.pi / np.sqrt(2)) < 0.01 * np.pi / np.sqrt(2)
