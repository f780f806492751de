import dataclasses
import math
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from metricspin import (
    ModelParams,
    NumericalConsistencyError,
    bogoliubov_params,
    build_minimal_hamiltonian,
    coupling_strength,
    evolve,
    initial_state,
    metric_components,
    observable_trace,
    symmetry_check,
    truncation_convergence,
)
from metricspin import model, parallel
from metricspin.model import (
    _CHUNK_STEPS,
    ENERGY_DRIFT_RTOL,
    NORM_DRIFT_ATOL,
    ParityBlock,
    convergence_params,
)

from oracles import (
    dense_state_oracle,
    dense_trace_oracle,
    full_matrix_from_blocks,
    kronecker_parity_blocks,
    metric_expectations,
    minimal_hamiltonian_oracle,
    parity_isometry_oracle,
    state_columns_oracle,
)

SQRT2 = math.sqrt(2.0)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0])
TRACE_COLUMNS = ("sx", "sy", "sz", "n_alpha", "n_beta", "energy", "norm")
STARTS = [(direction, sign) for direction in "xyz" for sign in (1, -1)]


class MisfitBlock(ParityBlock):
    """A block whose eigensolve sees an entry at offset 2 that its bands lack."""

    def dense(self):
        m = super().dense()
        m[0, 2] += 1e-3
        m[2, 0] += 1e-3
        return m


def amplitudes(states) -> np.ndarray:
    """The states of ``evolve`` stacked as rows."""
    return np.array([s.amplitudes for s in states])


def assert_matches_oracle(h, psi0, tr, ref, stride=1):
    """The seven trace columns, and h11/h12 of ``evolve``'s states at every
    ``stride``-th grid time through ``metric_components``, against the dense
    oracle's columns ``ref`` to 1e-10."""
    for name in TRACE_COLUMNS:
        assert np.abs(getattr(tr, name) - ref[name]).max() <= 1e-10, name
    states = amplitudes(evolve(h, psi0, tr.times[::stride]))
    for name, got in zip(("h11", "h12"), metric_components(states, h.params.mu)):
        assert np.abs(got - ref[name][::stride]).max() <= 1e-10, name


class TestCouplingStrength:
    def test_crossover_value(self):
        # at G = pi the magnitude matches the bosonic self-interaction
        assert abs(coupling_strength(math.pi, 1.0)) == pytest.approx(SQRT2, abs=1e-12)
        assert coupling_strength(math.pi, 1.0) < 0

    def test_zero_coupling(self):
        assert coupling_strength(0.0, 1.0) == 0.0

    def test_weak_coupling_value(self):
        assert coupling_strength(0.05, 1.0) == pytest.approx(-0.17841241161527713,
                                                             abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            coupling_strength(-0.1, 1.0)
        with pytest.raises(ValueError):
            coupling_strength(1.0, 0.0)
        # mu^1.5 underflows to 0 (ZeroDivisionError) or overflows (OverflowError)
        for mu in (1e-300, 1e300):
            with pytest.raises(ValueError, match="mu=.*out of range"):
                coupling_strength(0.05, mu)

    @pytest.mark.parametrize("G,mu", [(math.nan, 1.0), (math.inf, 1.0),
                                      (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_rejected(self, G, mu):
        with pytest.raises(ValueError):
            coupling_strength(G, mu)


class TestModelParams:
    def test_time_grid(self):
        p = ModelParams(G=0.0, t_max=100.0, dt=0.02)
        t = p.times
        assert t.shape == (5001,)
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(100.0, abs=1e-9)

    @pytest.mark.parametrize("kwargs", [
        dict(G=-1.0), dict(G=1.0, mu=0.0), dict(G=1.0, N=1),
        dict(G=1.0, dt=0.0), dict(G=1.0, t_max=0.01, dt=0.02),
        dict(G=math.nan), dict(G=math.inf), dict(G=1.0, mu=math.nan),
        dict(G=1.0, mu=math.inf), dict(G=1.0, dt=math.nan),
        dict(G=1.0, t_max=math.inf), dict(G=1.0, t_max=math.nan),
        dict(G=1.0, mu=1e-300), dict(G=1.0, mu=1e300),
        # t_max/dt is inf, or past the largest array index
        dict(G=1.0, dt=1e-320), dict(G=1.0, dt=1e-300), dict(G=1.0, t_max=1e308, dt=1e-5),
        dict(G=1.0, t_max=1e19, dt=1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_grid_whose_phase_overflows_refused(self):
        # |E| t_max past the largest double, from a Gershgorin bound on |E|;
        # below it a trace runs with no numpy warning
        with pytest.raises(ValueError, match=r"t_max=1e\+308 overflows the phases E t"):
            ModelParams(G=0.05, N=3, t_max=1e308, dt=1e308)
        p = ModelParams(G=0.05, N=3, t_max=1e307, dt=1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = observable_trace(build_minimal_hamiltonian(p), initial_state("z", 1, p.N))
        assert np.abs(tr.norm - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("G, mu, N", [(0.0, 1.0, 2), (3.0, 1.0, 6), (100.0, 0.3, 9)])
    def test_gershgorin_bound_holds(self, G, mu, N):
        h = build_minimal_hamiltonian(ModelParams(G=G, mu=mu, N=N))
        bound = SQRT2 * (2 * N - 1) + 4.0 * abs(h.g) * math.sqrt(N - 1)
        top = max(np.abs(np.linalg.eigvalsh(b.dense())).max() for b in h.blocks)
        assert top <= bound

    @pytest.mark.parametrize("N", [14.0, 3.5, "14"])
    def test_non_integral_cutoff_refused(self, N):
        with pytest.raises(ValueError, match="cutoff N must be an integer"):
            ModelParams(G=1.0, N=N)

    def test_numpy_integer_cutoff_runs(self):
        p = ModelParams(G=1.0, N=np.int64(6), t_max=1.0, dt=0.5)
        assert type(p.N) is int and p.N == 6
        tr = observable_trace(build_minimal_hamiltonian(p), initial_state("z", 1, p.N))
        assert np.abs(tr.norm - 1.0).max() <= 1e-10

    #: the largest cutoff whose 2 N^2 states fit np.intp
    LARGEST_N = math.isqrt(np.iinfo(np.intp).max // 2)

    @pytest.mark.parametrize("N", [LARGEST_N + 1, 10 ** 19, 10 ** 400])
    def test_cutoff_past_an_array_index_refused(self, N):
        # checked before any array exists
        with pytest.raises(ValueError, match=rf"cutoff N must be at most {self.LARGEST_N}\b"):
            ModelParams(G=1.0, N=N)

    def test_largest_indexable_cutoff_constructs(self):
        # only allocating its states would fail
        assert ModelParams(G=1.0, N=self.LARGEST_N).N == self.LARGEST_N

    def test_largest_indexable_grid_constructs(self):
        # 10^18 steps fit np.intp; only allocating the grid would fail
        p = ModelParams(G=1.0, N=2, t_max=1e9, dt=1e-9)
        assert p.t_max / p.dt < np.iinfo(np.intp).max


class TestBuildHamiltonian:
    def test_decoupled_spectrum(self):
        # G = 0: eigenvalues are +-sqrt(2) + sqrt(2) (n_a + n_b)
        p = ModelParams(G=0.0, N=2, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        evals = np.sort(np.linalg.eigvalsh(full_matrix_from_blocks(h.blocks)))
        expected = np.sort([s * SQRT2 + SQRT2 * m
                            for s in (-1, 1) for m in (0, 1, 1, 2)])
        npt.assert_allclose(evals, expected, atol=1e-12)
        assert evals[0] == pytest.approx(-SQRT2, abs=1e-12)

    def test_dimension_and_hermiticity(self):
        p = ModelParams(G=math.pi, N=14, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        m = full_matrix_from_blocks(h.blocks)
        assert m.shape == (392, 392)
        npt.assert_allclose(m, minimal_hamiltonian_oracle(p.G, 1.0, p.N), atol=1e-14)
        assert np.abs(m - m.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("G,N", [(math.pi, 6), (0.05, 5), (10.0, 4)])
    def test_entrywise_oracle(self, G, N):
        p = ModelParams(G=G, N=N, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        ref = minimal_hamiltonian_oracle(G, 1.0, N)
        npt.assert_allclose(full_matrix_from_blocks(h.blocks), ref, atol=1e-14)

    def test_coupling_block_magnitude_at_crossover(self):
        # spin-offdiagonal entries from (b + b^dag) scale as sqrt(2) sqrt(n)
        p = ModelParams(G=math.pi, N=14, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        N = p.N
        m = full_matrix_from_blocks(h.blocks)
        for nb in range(5):
            i = nb                      # |up, 0, nb>
            j = N * N + nb + 1          # |down, 0, nb + 1>
            assert abs(m[i, j]) == pytest.approx(SQRT2 * math.sqrt(nb + 1), abs=1e-12)

    def test_g_override(self):
        p = ModelParams(G=5.0, N=4, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p, g=0.0)
        assert h.g == 0.0
        ref = minimal_hamiltonian_oracle(5.0, 1.0, 4, g=0.0)
        npt.assert_allclose(full_matrix_from_blocks(h.blocks), ref, atol=1e-14)

    def test_commutes_with_sigma_x_at_zero_coupling(self):
        p = ModelParams(G=0.0, N=8, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        sx = np.kron(SIGMA_X, np.eye(p.N * p.N))
        m = full_matrix_from_blocks(h.blocks)
        assert np.abs(m @ sx - sx @ m).max() == 0.0


class TestInitialState:
    def setup_method(self):
        self.N = ModelParams(G=0.0, N=3, t_max=1.0, dt=0.5).N

    def test_plus_x_amplitudes(self):
        psi = initial_state("x", +1, self.N)
        amp = psi.amplitudes
        assert amp[0] == pytest.approx(1 / SQRT2)        # |up, 0, 0>
        assert amp[9] == pytest.approx(1 / SQRT2)        # |down, 0, 0> at N = 3
        assert np.count_nonzero(amp) == 2

    def test_plus_z_is_basis_state(self):
        psi = initial_state("z", +1, self.N)
        expected = np.zeros(2 * self.N ** 2)
        expected[0] = 1.0
        npt.assert_array_equal(psi.amplitudes, expected)

    @pytest.mark.parametrize("direction", ["x", "y", "z"])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_modes_start_in_vacuum(self, direction, sign):
        psi = initial_state(direction, sign, self.N)
        n = np.diag([0.0, 1.0, 2.0])
        for n_op in (np.kron(np.eye(2), np.kron(n, np.eye(3))),
                     np.kron(np.eye(6), n)):
            mean = np.vdot(psi.amplitudes, n_op @ psi.amplitudes)
            assert mean == pytest.approx(0.0, abs=1e-14)

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            initial_state("w", +1, self.N)
        with pytest.raises(ValueError):
            initial_state("x", 0, self.N)


class TestEvolve:
    def test_time_zero_returns_input(self):
        p = ModelParams(G=0.3, N=4, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state("x", +1, p.N)
        out = evolve(h, psi0, [0.0])
        assert out[0] is psi0

    def test_matches_expm_oracle(self):
        p = ModelParams(G=0.3, N=4, t_max=5.0, dt=1.0)
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state("y", +1, p.N)
        t = 1.7
        state = evolve(h, psi0, [t])[0]
        H = minimal_hamiltonian_oracle(p.G, p.mu, p.N)
        ref = scipy.linalg.expm(-1j * H * t) @ psi0.amplitudes
        assert abs(np.vdot(ref, state.amplitudes)) >= 1.0 - 1e-12

    def test_composition(self):
        p = ModelParams(G=0.7, N=5, t_max=10.0, dt=1.0)
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state("z", -1, p.N)
        one_shot = evolve(h, psi0, [3.9])[0]
        stepped = evolve(h, evolve(h, psi0, [1.4])[0], [2.5])[0]
        fidelity = abs(np.vdot(stepped.amplitudes, one_shot.amplitudes))
        assert fidelity >= 1.0 - 1e-10

    def test_stationary_at_zero_coupling(self):
        p = ModelParams(G=0.0, N=6, t_max=20.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state("x", +1, p.N)
        tr = observable_trace(h, psi0)
        for name in ("sx", "sy", "sz", "n_alpha", "n_beta"):
            col = getattr(tr, name)
            assert np.abs(col - col[0]).max() <= 1e-10

    def test_precession_closed_form(self):
        p = ModelParams(G=1.0, N=4, t_max=10.0, dt=0.01)
        h = build_minimal_hamiltonian(p, g=0.0)
        psi0 = initial_state("y", +1, p.N)
        tr = observable_trace(h, psi0)
        npt.assert_allclose(tr.sy, np.cos(2 * SQRT2 * tr.times), atol=1e-8)

    def test_times_validation(self):
        p = ModelParams(G=0.3, N=4, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state("x", +1, p.N)
        with pytest.raises(ValueError):
            evolve(h, psi0, [1.0, 0.5])
        with pytest.raises(ValueError):
            evolve(h, psi0, [-1.0, 0.5])
        with pytest.raises(ValueError, match="1-D"):
            evolve(h, psi0, [[0.0, 0.5]])

    @pytest.mark.parametrize("times", [[0.5, math.nan, 0.2], [math.nan], [0.2, math.nan],
                                       [math.inf], [0.1, math.inf], [-math.inf, 0.5]],
                             ids=["nan-unsorted", "nan", "nan-last", "inf", "inf-last",
                                  "-inf"])
    def test_non_finite_times_rejected(self, times):
        p = ModelParams(G=0.3, N=4, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        with pytest.raises(ValueError, match="finite"):
            evolve(h, initial_state("x", +1, p.N), times)

    def test_space_mismatch(self):
        p = ModelParams(G=0.3, N=4, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        other = initial_state("x", +1, 5)
        with pytest.raises(ValueError, match="cutoff N=4"):
            evolve(h, other, [0.5])


@pytest.fixture(scope="module")
def weak_x_trace():
    p = ModelParams(G=0.05, mu=1.0, N=14, t_max=100.0, dt=0.02)
    h = build_minimal_hamiltonian(p)
    return observable_trace(h, initial_state("x", +1, p.N))


@pytest.fixture(scope="module")
def weak_y_trace():
    p = ModelParams(G=0.05, mu=1.0, N=14, t_max=100.0, dt=0.02)
    h = build_minimal_hamiltonian(p)
    return observable_trace(h, initial_state("y", +1, p.N))


class TestWeakCouplingTrace:
    """Frozen features of the G = 0.05 spin-x run (oracle-derived)."""

    @pytest.fixture
    def trace(self, weak_x_trace):
        return weak_x_trace

    def test_transverse_spin_stays_empty(self, trace):
        assert np.abs(trace.sy).max() <= 1e-10
        assert np.abs(trace.sz).max() <= 1e-10

    def test_population_exchange_with_modes(self, trace):
        assert trace.px.min() == pytest.approx(0.2812929128274046, abs=1e-6)
        assert trace.n_beta.max() == pytest.approx(0.7072723647608642, abs=1e-6)
        assert trace.n_alpha.max() == pytest.approx(0.7253549408811099, abs=1e-6)

    def test_conservation(self, trace):
        assert np.abs(trace.norm - 1.0).max() <= 1e-10
        drift = np.abs(trace.energy - trace.energy[0]).max()
        assert drift <= 1e-8 * (1.0 + abs(trace.energy[0]))

    def test_bloch_vector_bound(self, trace):
        purity = trace.sx ** 2 + trace.sy ** 2 + trace.sz ** 2
        assert purity.max() <= 1.0 + 1e-9


class TestSpinYTrace:
    """Frozen features of the G = 0.05 spin-y run (oracle-derived)."""

    @pytest.fixture
    def trace(self, weak_y_trace):
        return weak_y_trace

    def test_spin_x_grows_from_zero(self, trace):
        assert abs(trace.sx[0]) <= 1e-12
        assert np.abs(trace.sx).max() == pytest.approx(0.7180646600179326, abs=1e-6)

    def test_rapid_yz_oscillation(self, trace):
        flips = np.sum(np.signbit(trace.sy[1:]) != np.signbit(trace.sy[:-1]))
        assert flips >= 50
        assert trace.sy[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(trace.sz).max() > 0.9

    def test_modes_nearly_identical(self, trace):
        assert np.abs(trace.n_alpha - trace.n_beta).max() <= 0.06
        assert trace.n_alpha.max() > 0.3

    def test_z_follows_y_with_quarter_period_lag(self, trace):
        # cross-correlation peak: sz is sy delayed by a quarter of the
        # fast precession period (sz ~ sin where sy ~ cos)
        dt = trace.times[1] - trace.times[0]
        T_fast = 2.0 * math.pi / (2.0 * SQRT2)
        max_lag = int(round(0.5 * T_fast / dt))
        sy = trace.sy - trace.sy.mean()
        sz = trace.sz - trace.sz.mean()
        lags = np.arange(-max_lag, max_lag + 1)
        n = sy.size

        def corr(lag):
            if lag >= 0:
                return float(np.dot(sy[lag:], sz[:n - lag]))
            return float(np.dot(sy[:n + lag], sz[-lag:]))

        best = lags[int(np.argmax([corr(l) for l in lags]))] * dt
        assert abs(best + T_fast / 4.0) <= 0.1

    def test_bloch_vector_bound(self, trace):
        purity = trace.sx ** 2 + trace.sy ** 2 + trace.sz ** 2
        assert purity.max() <= 1.0 + 1e-9


class TestSymmetrySector:
    def test_commutator_vanishes_for_any_coupling(self):
        for G in (0.0, 0.46, math.pi):
            p = ModelParams(G=G, N=10, t_max=1.0, dt=0.5)
            residual = symmetry_check(build_minimal_hamiltonian(p))
            assert residual <= 1e-12

    def test_zero_coupling_residual_is_exactly_zero(self):
        p = ModelParams(G=0.0, N=14, t_max=1.0, dt=0.5)
        assert symmetry_check(build_minimal_hamiltonian(p)) == 0.0

    def test_wrong_symmetry_candidate_fails(self):
        # replacing sigma_x by sigma_y in S gives a residual of order g
        p = ModelParams(G=math.pi, N=14, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        N = p.N
        parity = np.diag((-1.0) ** np.arange(N))
        s_bad = np.kron(SIGMA_Y, np.kron(parity, np.eye(N)))
        m = minimal_hamiltonian_oracle(p.G, p.mu, N)
        residual = np.abs(m @ s_bad - s_bad @ m).max()
        assert residual > abs(h.g)

    def test_spin_x_start_keeps_transverse_components_zero(self):
        p = ModelParams(G=0.46, N=12, t_max=20.0, dt=0.05)
        h = build_minimal_hamiltonian(p)
        tr = observable_trace(h, initial_state("x", -1, p.N))
        assert np.abs(tr.sy).max() <= 1e-10
        assert np.abs(tr.sz).max() <= 1e-10


class TestParityBlocks:
    """The block kernel against the dense full-space path it replaced."""

    @pytest.mark.parametrize("N", [5, 6])
    @pytest.mark.parametrize("g", [0.0, -1.3])
    def test_blocks_are_compressions_of_dense_hamiltonian(self, N, g):
        p = ModelParams(G=1.0, N=N, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p, g=g)
        H = minimal_hamiltonian_oracle(1.0, 1.0, N, g=g)
        W = {s: parity_isometry_oracle(N, s) for s in (1, -1)}
        for block in h.blocks:
            W_s = W[block.sign]
            npt.assert_allclose(W_s.conj().T @ H @ W_s, block.dense(),
                                rtol=0, atol=1e-14)
        assert np.abs(W[1].conj().T @ H @ W[-1]).max() <= 1e-12

    @pytest.mark.parametrize("N", [2, 3, 5, 14, 20])
    @pytest.mark.parametrize("g", [0.0, coupling_strength(0.0, 1.0), -1.3,
                                   coupling_strength(100.0, 1.0)],
                             ids=["zero", "minus-zero", "-1.3", "G=100"])
    def test_blocks_bit_identical_to_kronecker_assembly(self, N, g):
        # the bands are written with the arithmetic of the Kronecker sums,
        # so every entry of the dense block has the same bits, the sign of
        # each zero included
        h = build_minimal_hamiltonian(ModelParams(G=1.0, N=N), g=g)
        for block, ref in zip(h.blocks, kronecker_parity_blocks(N, g)):
            npt.assert_array_equal(block.dense().view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("N,steps", [(2, 128), (14, 128), (15, 111), (20, 64), (32, 64)])
    def test_chunk_length_follows_the_byte_budget(self, monkeypatch, N, steps):
        # a chunk's phase block holds at most 196 x 128 states x steps, and
        # no chunk is shorter than 64 steps
        counts = []
        chunk = model._Propagator.chunk

        def counted(self, t0, count, phase, amps):
            counts.append(count)
            return chunk(self, t0, count, phase, amps)

        monkeypatch.setattr(model._Propagator, "chunk", counted)
        p = ModelParams(G=1.0, N=N, t_max=2.0, dt=0.01)         # 201 points
        observable_trace(build_minimal_hamiltonian(p), initial_state("x", 1, N))
        assert sorted(counts, reverse=True) == [steps] * (201 // steps) + [201 % steps]

    @pytest.mark.parametrize("N", [5, 6])
    @pytest.mark.parametrize("G", [0.0, 0.46, math.pi, 10.0, 100.0])
    @pytest.mark.parametrize("direction,sign", [("x", 1), ("x", -1), ("y", 1), ("z", -1)])
    def test_kernel_matches_dense_oracle(self, direction, sign, G, N):
        p = ModelParams(G=G, mu=1.3, N=N, t_max=10.0, dt=0.05)
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state(direction, sign, p.N)
        ref = dense_trace_oracle(G, 1.3, N, p.times, direction, sign)
        assert_matches_oracle(h, psi0, observable_trace(h, psi0), ref)
        if direction == "x":
            # the block kernel has sy = sz = 0 by construction; the dense
            # path measures how far the physics is from that
            assert np.abs(ref["sy"]).max() <= 1e-10
            assert np.abs(ref["sz"]).max() <= 1e-10

    @pytest.mark.parametrize("N", [5, 6])
    @pytest.mark.parametrize("G", [math.pi, 100.0])
    @pytest.mark.parametrize("direction,sign", [("x", 1), ("z", 1)])
    def test_long_trace_matches_dense_oracle(self, direction, sign, G, N):
        # 8,001 points out to t = 400: many chunks, the last one partial
        p = ModelParams(G=G, N=N, t_max=400.0, dt=0.05)
        assert p.times.size > 50 * _CHUNK_STEPS and p.times.size % _CHUNK_STEPS
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state(direction, sign, p.N)
        ref = dense_trace_oracle(G, 1.0, N, p.times, direction, sign)
        # evolve solves each time on its own, so 201 of them out to t = 400 suffice
        assert_matches_oracle(h, psi0, observable_trace(h, psi0), ref, stride=40)

    @settings(deadline=None, max_examples=50)
    @given(G=st.floats(0.0, 100.0), mu=st.floats(0.5, 3.0), N=st.integers(2, 6),
           start=st.sampled_from(STARTS))
    def test_kernel_property_matches_dense_oracle(self, G, mu, N, start):
        # 161 points, two chunks, the last one partial
        p = ModelParams(G=G, mu=mu, N=N, t_max=8.0, dt=0.05)
        tr = observable_trace(build_minimal_hamiltonian(p), initial_state(*start, N))
        ref = dense_trace_oracle(G, mu, N, p.times, *start)
        for name in TRACE_COLUMNS:
            assert np.abs(getattr(tr, name) - ref[name]).max() <= 1e-10, name
        assert np.abs(tr.norm - 1.0).max() <= NORM_DRIFT_ATOL
        assert (np.abs(tr.energy - tr.energy[0]).max()
                <= ENERGY_DRIFT_RTOL * (1.0 + abs(tr.energy[0])))

    @pytest.mark.parametrize("G", [0.46, 100.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_energy_column_matches_dense_energy(self, sign, G):
        # x+ lives in block +1 and x- in block -1, so each block's bands are used
        p = ModelParams(G=G, N=6, t_max=20.0, dt=0.05)
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state("x", sign, p.N)
        tr = observable_trace(h, psi0)
        states = np.array([s.amplitudes for s in evolve(h, psi0, p.times)])
        H = minimal_hamiltonian_oracle(G, 1.0, 6)
        dense = np.einsum("ti,ti->t", states.conj(), states @ H.T).real
        npt.assert_allclose(tr.energy, dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("N", [14, 20])
    @pytest.mark.parametrize("direction", ["x", "y", "z"])
    def test_energy_bits_match_dense_diagonal_views(self, monkeypatch, direction, N):
        # the energy products read strided column views of the stored bands;
        # read from the diagonal views of the dense block instead, they give
        # the same bits (a contiguous copy of the bands need not)
        p = ModelParams(G=3.0, N=N, t_max=5.0)
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state(direction, 1, N)
        banded = observable_trace(h, psi0).energy
        prepared = model._prepared

        def from_dense(h, psi0):
            params, propagator, bands = prepared(h, psi0)
            for i, (sign, _) in bands.items():
                m = h.blocks[i].dense()
                bands[i] = sign, (np.diagonal(m), np.diagonal(m, 1), np.diagonal(m, N))
            return params, propagator, bands

        monkeypatch.setattr(model, "_prepared", from_dense)
        dense = observable_trace(h, psi0).energy
        npt.assert_array_equal(banded.view(np.uint64), dense.view(np.uint64))

    @pytest.mark.parametrize("N", [5, 6, 14])
    @pytest.mark.parametrize("g", [0.0, -1.3, None], ids=["g=0", "g=-1.3", "G=100"])
    def test_blocks_are_real_symmetric(self, N, g):
        p = ModelParams(G=100.0, N=N, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p, g=g)
        for block in h.blocks:
            b = block.bands
            assert b.dtype == np.float64 and b.flags.c_contiguous and b.shape == (N * N, 3)
            # each upper band from the top of its column, zeros below it
            assert not b[N * N - 1:, 1].any() and not b[N * N - N:, 2].any()
            m = block.dense()
            assert m.dtype == np.float64 and np.array_equal(m, m.T)

    def test_bands_are_readonly(self):
        block = build_minimal_hamiltonian(ModelParams(G=1.0, N=4)).blocks[0]
        with pytest.raises(ValueError):
            block.bands[0, 0] = 5.0

    @pytest.mark.parametrize("bad", ["nan", "non-square", "inf", "minus-inf", "two-columns",
                                     "flat"])
    def test_block_refused_at_construction(self, monkeypatch, bad):
        b = build_minimal_hamiltonian(ModelParams(G=1.0, N=4, t_max=1.0, dt=0.5)) \
            .blocks[1].bands.copy()
        if bad == "nan":
            b[3, 0] = math.nan
        elif bad in ("inf", "minus-inf"):
            b[0, 2] = math.inf if bad == "inf" else -math.inf
        elif bad == "non-square":
            b = b[:-1]                  # 15 rows: no cutoff has 15 states in a block
        elif bad == "two-columns":
            b = b[:, :2]
        else:
            b = b.ravel()
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a))
        with pytest.raises(NumericalConsistencyError, match="parity block -1"):
            ParityBlock(-1, b)
        assert calls == []

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_coupling_refused_at_assembly(self):
        # sqrt(n) g overflows from n = 4: the top hops are infinite
        with pytest.raises(NumericalConsistencyError, match="parity block \\+1 has a non-finite"):
            build_minimal_hamiltonian(ModelParams(G=1.0), g=1e308)

    def test_off_band_entry_refused(self):
        # the eigensolver sees an entry at offset 2, neither an n_b nor an
        # n_a hop at N = 4, that the bands lack: the energy the bands measure
        # is not conserved by the propagation
        p = ModelParams(G=1.0, N=4, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        broken = dataclasses.replace(h, blocks=(MisfitBlock(1, h.blocks[0].bands), h.blocks[1]))
        with pytest.raises(NumericalConsistencyError, match="energy drifted"):
            observable_trace(broken, initial_state("x", +1, p.N))

    def test_x_start_diagonalizes_one_block(self, monkeypatch):
        p = ModelParams(G=1.0, N=5, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        solved = []
        eigh = np.linalg.eigh

        def counting(m):
            solved.append([np.array_equal(m, block.dense()) for block in h.blocks])
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        observable_trace(h, initial_state("x", -1, p.N))
        assert solved == [[False, True]]

    def test_two_blocks_diagonalize_at_once(self, monkeypatch):
        # each eigensolve waits until the other has started too
        h = build_minimal_hamiltonian(ModelParams(G=1.0, N=5, t_max=1.0, dt=0.5))
        both = threading.Barrier(2, timeout=10)
        eigh = np.linalg.eigh

        def meeting(m):
            both.wait()
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", meeting)
        with ThreadPoolExecutor(2) as pool:
            solved = [pool.submit(block.eigensystem) for block in h.blocks]
            for block, future in zip(h.blocks, solved):
                npt.assert_array_equal(future.result()[0], eigh(block.dense())[0])


class TestEvolveAgainstTrace:
    """``evolve`` runs the kernel with one-point chunks; the trace with full ones."""

    @pytest.mark.parametrize("direction,sign", [("x", -1), ("y", 1), ("z", 1)])
    def test_off_grid_states_match_dense_oracle(self, direction, sign):
        times = np.sort(np.random.default_rng(7).uniform(0.0, 80.0, 40))
        p = ModelParams(G=math.pi, N=5, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        states = evolve(h, initial_state(direction, sign, p.N), times)
        ref = dense_state_oracle(math.pi, 1.0, 5, times, direction, sign)
        got = np.array([s.amplitudes for s in states])
        assert np.abs(got - ref).max() <= 1e-10

    @pytest.mark.parametrize("direction,sign", [("x", 1), ("z", -1)])
    def test_grid_states_reproduce_trace_columns(self, direction, sign):
        p = ModelParams(G=2.0, mu=1.3, N=5, t_max=30.0, dt=0.1)   # 301 points, 3 chunks
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state(direction, sign, p.N)
        tr = observable_trace(h, psi0)
        states = amplitudes(evolve(h, psi0, p.times))
        ref = state_columns_oracle(states, 2.0, 1.3, 5)
        for name in TRACE_COLUMNS:
            assert np.abs(getattr(tr, name) - ref[name]).max() <= 1e-10, name
        h11, h12 = metric_components(states, p.mu)
        assert np.abs(h11 - ref["h11"]).max() <= 1e-10
        assert np.abs(h12 - ref["h12"]).max() <= 1e-10


class TestTruncationConvergence:
    def test_zero_coupling_deviation_vanishes(self):
        p = ModelParams(G=0.0, N=6, t_max=10.0, dt=0.1)
        pairs = truncation_convergence(p, "x", +1, [6, 9])
        assert pairs == [(6, 9, 0.0)]

    def test_weak_coupling_converged_at_default_cutoff(self):
        p = ModelParams(G=0.05, N=14, t_max=20.0, dt=0.05)
        pairs = truncation_convergence(p, "x", +1, [14, 18])
        assert pairs[0][2] <= 1e-9

    def test_strong_coupling_not_converged_at_small_cutoffs(self):
        # at G = 10 the populated levels overflow these cutoffs and the
        # deviations stay O(1); convergence requires far larger N
        p = ModelParams(G=10.0, N=10, t_max=10.0, dt=0.1)
        pairs = truncation_convergence(p, "x", +1, [10, 14, 20])
        assert all(dev > 0.1 for _, _, dev in pairs)

    def test_holds_only_the_two_traces_it_compares(self, monkeypatch):
        # before each trace's chunk map starts, at most the previous trace is
        # still alive
        made, alive = [], []
        trace = model._traced

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in made))
            tr = trace(*args)
            made.append(weakref.ref(tr))
            return tr

        monkeypatch.setattr(model, "_traced", tracked)
        p = ModelParams(G=1.0, N=3, t_max=1.0, dt=0.5)
        assert len(truncation_convergence(p, "x", +1, [3, 4, 5, 6])) == 3
        assert alive == [0, 1, 1, 1]

    def test_list_validation(self):
        p = ModelParams(G=0.0, N=6, t_max=1.0, dt=0.5)
        with pytest.raises(ValueError):
            truncation_convergence(p, "x", +1, [6])
        with pytest.raises(ValueError):
            truncation_convergence(p, "x", +1, [6, 6])

    @pytest.mark.parametrize("N_list", [[6.7, 9.9], [6, 9.0], [np.float64(6), 9]])
    def test_non_integral_cutoffs_refused(self, N_list):
        # a cast would run 6.7 and 9.9 at N = 6 and 9; ModelParams refuses floats
        p = ModelParams(G=0.0, N=6, t_max=1.0, dt=0.5)
        with pytest.raises(ValueError, match="must be an integer"):
            convergence_params(p, N_list)
        with pytest.raises(ValueError, match="must be an integer"):
            truncation_convergence(p, "x", +1, N_list)

    def test_numpy_integer_cutoffs_run(self):
        p = ModelParams(G=0.0, N=6, t_max=1.0, dt=0.5)
        assert [c.N for c in convergence_params(p, np.array([6, 9]))] == [6, 9]


class TestWorkingSet:
    """Peak memory the kernel allocates at N=20 (blocks of d = 400 states), one worker.

    tracemalloc sees numpy's array data, not LAPACK's workspace.
    """

    N = 20

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_assembly_holds_few_block_sized_arrays(self):
        # a block is its (d, 3) bands: assembly holds no d x d array, only a
        # few arrays of d entries (the bands, ParityBlock's copy of them and
        # the diagonal's temporaries)
        d = self.N ** 2
        peak = self.traced_peak(lambda: build_minimal_hamiltonian(ModelParams(G=10.0, N=self.N)))
        assert peak <= 128 * d

    def test_hamiltonian_keeps_only_its_bands(self):
        # both blocks' (d, 3) float64 bands, 48 B a state, and small objects
        d = self.N ** 2
        tracemalloc.start()
        try:
            h = build_minimal_hamiltonian(ModelParams(G=10.0, N=self.N))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert h.blocks[0].bands.nbytes == 24 * d
        assert kept <= 64 * d

    def test_z_start_trace_within_its_budget(self):
        # both eigensystems and step tables, one worker's 64-step buffers and
        # the trace's columns, above the blocks and the state it is given
        h = build_minimal_hamiltonian(ModelParams(G=10.0, N=self.N))
        psi0 = initial_state("z", 1, self.N)
        assert self.traced_peak(lambda: observable_trace(h, psi0)) <= 6.3 * 2 ** 20


class TestTraceAgainstScalarPath:
    """The vectorized trace engine must agree with naive per-time evaluation."""

    def test_columns_match_pointwise_expectations(self):
        p = ModelParams(G=0.8, N=5, t_max=4.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state("y", -1, p.N)
        trace = observable_trace(h, psi0)
        states = evolve(h, psi0, p.times)
        H = minimal_hamiltonian_oracle(p.G, p.mu, p.N)
        n = np.diag(np.arange(5.0))
        sx_op, sy_op, sz_op = (np.kron(s, np.eye(25)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
        na_op = np.kron(np.eye(2), np.kron(n, np.eye(5)))
        nb_op = np.kron(np.eye(10), n)

        def expectation(op, state):
            return np.vdot(state.amplitudes, op @ state.amplitudes).real

        for i, state in enumerate(states):
            assert trace.sx[i] == pytest.approx(expectation(sx_op, state), abs=1e-12)
            assert trace.sy[i] == pytest.approx(expectation(sy_op, state), abs=1e-12)
            assert trace.sz[i] == pytest.approx(expectation(sz_op, state), abs=1e-12)
            assert trace.n_alpha[i] == pytest.approx(expectation(na_op, state), abs=1e-12)
            assert trace.n_beta[i] == pytest.approx(expectation(nb_op, state), abs=1e-12)
            assert trace.energy[i] == pytest.approx(
                expectation(H, state), abs=1e-12)
            assert trace.norm[i] == pytest.approx(np.linalg.norm(state.amplitudes), abs=1e-12)


class TestMetricComponents:
    """``metric_components`` on ``evolve``'s states against the scalar readout."""

    @pytest.mark.parametrize("direction", ["x", "y", "z"])
    @pytest.mark.parametrize("mu", [0.7, 1.3, 2.0])
    @pytest.mark.parametrize("G", [0.0, 0.8, math.pi, 10.0])
    def test_match_scalar_readout(self, G, mu, direction):
        p = ModelParams(G=G, mu=mu, N=5, t_max=4.0, dt=0.5)
        states = evolve(build_minimal_hamiltonian(p), initial_state(direction, 1, p.N),
                        p.times)
        bp = bogoliubov_params(mu)
        want = np.array([metric_expectations(state, bp) for state in states])
        one_by_one = np.array([metric_components(state, mu) for state in states])
        stacked = np.transpose(metric_components(amplitudes(states), mu))
        assert np.abs(one_by_one - want).max() <= 1e-12
        assert np.abs(stacked - want).max() <= 1e-12
        if direction == "x":
            # the alpha mode never displaces in the symmetric sector
            assert np.abs(one_by_one[:, 0]).max() <= 1e-10
            if G > 0:
                assert np.abs(one_by_one[:, 1]).max() > 0.01

    @pytest.mark.parametrize("amps", [np.ones(4), np.ones(0), np.ones((3, 9)), 1.0])
    def test_state_of_no_cutoff_refused(self, amps):
        with pytest.raises(ValueError, match="not a spin"):
            metric_components(amps, 1.0)


class TestTraceValidation:
    def test_population_properties(self):
        p = ModelParams(G=0.0, N=4, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        tr = observable_trace(h, initial_state("x", +1, p.N))
        npt.assert_allclose(tr.px, 0.5 * (1 + tr.sx), atol=0)
        npt.assert_allclose(tr.pz, 0.5 * (1 + tr.sz), atol=0)

    def test_space_mismatch(self):
        p = ModelParams(G=0.1, N=4, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)
        other = initial_state("x", +1, 5)
        with pytest.raises(ValueError, match="cutoff N=4"):
            observable_trace(h, other)

    @pytest.mark.parametrize("corrupt,guard", [("eigenvalues", "norm"),
                                               ("eigenvectors", "energy")])
    def test_broken_spectrum_caught(self, monkeypatch, corrupt, guard):
        # NaN eigenvalues must trip the norm guard.  Rotating two eigenvectors
        # keeps every state normalized but moves <H> in time, which only an
        # energy evaluated from the block matrix (not from sum |c|^2 E) sees.
        from metricspin import NumericalConsistencyError

        p = ModelParams(G=0.8, N=4, t_max=5.0, dt=0.1)
        h = build_minimal_hamiltonian(p)
        real_eigh = np.linalg.eigh

        def broken(m):
            evals, evecs = real_eigh(m)
            if corrupt == "eigenvalues":
                return np.full_like(evals, math.nan), evecs
            c, s = math.cos(0.3), math.sin(0.3)
            mixed = evecs.copy()
            mixed[:, 0] = c * evecs[:, 0] - s * evecs[:, 1]
            mixed[:, 1] = s * evecs[:, 0] + c * evecs[:, 1]
            return evals, mixed

        monkeypatch.setattr(np.linalg, "eigh", broken)
        with pytest.raises(NumericalConsistencyError, match=guard):
            observable_trace(h, initial_state("z", +1, p.N))

    def test_eigensolver_failure_wrapped(self, monkeypatch):
        from metricspin import NumericalConsistencyError

        p = ModelParams(G=0.1, N=4, t_max=1.0, dt=0.5)
        h = build_minimal_hamiltonian(p)

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic non-convergence")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        with pytest.raises(NumericalConsistencyError):
            _ = h.eigensystem
