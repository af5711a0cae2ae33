"""Spectral representation of real, mean-zero scalar fields on [0, 2pi]^d.

Public fields expose full complex Fourier coefficient lattices (``coeffs``)
in numpy FFT layout under the convention

    theta(x) = sum_k theta_hat(k) exp(i k . x),

so that sum_k |theta_hat(k)|^2 equals the mean square of the physical
samples: Parseval is exact on the grid and single-mode examples have
closed-form norms.  Every field is real valued (Hermitian coefficient
symmetry), has exactly zero mean, and carries no energy on the Nyquist
rows k_j = -N/2, which are zeroed at all times because they break the
Hermitian pairing of odd derivatives.

Nonlinear products are dealiased with the 2/3 rule: all modes with any
|k_j| > N/3 are zeroed before and after the pseudospectral product, which
preserves the quadratic energy neutrality of advection by divergence-free
drifts.

Internally, transforms and time stepping work on the half spectrum of
``scipy.fft.rfftn`` (last axis k_d = 0..N/2, ``GridSpec.half_shape``): a
half spectrum stands for the real field whose full lattice is its Hermitian
extension, so realness holds in the storage and needs no re-projection.
``_project_half`` zeroes the mean and the Nyquist rows and symmetrises the
k_d = 0 plane, the only part of a half spectrum whose Hermitian pairing it
holds itself.  Fields produced by the solver and the operators hold such a
projected half spectrum (``SpectralField.half``); ``_from_half`` extends it
to the full lattice only when a caller first reads ``coeffs``, and the
lattice is kept from then on.  One etdrk2 step of a d-dimensional field
transforms 2(2d+1) real fields (14 in 3-D, half the cost of a complex
transform each), in one batched inverse and one batched forward transform
per stage.  The inverse, ``_half_to_physical``, consumes its input: it runs
the leading-axes ``ifftn`` in place in the caller's scratch spectra and
then the last-axis ``irfft``, so no copy of the stage spectra is made.
Transforms are looked up as ``scipy.fft.<name>`` at call time, with the
default worker count.

The public ``advect`` checks its drift for divergence-freeness on every
call.  The solver's stage right-hand sides call the unchecked kernels
(``_half_to_physical``, ``_flux_divergence``) instead and rely on the
certificate a ``SymbolTable`` takes once, when it is built
(``multipliers.SymbolTable.require_divergence_free``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.fft

from .errors import (
    ContractViolationError,
    GevreyOverflowError,
    GridMismatchError,
    InvalidFieldError,
)

__all__ = [
    "GridSpec",
    "SpectralField",
    "VectorField",
    "to_physical",
    "from_physical",
    "fractional_laplacian",
    "gradient",
    "sobolev_norm",
    "gevrey_norm",
    "linf_norm",
    "l2_inner",
    "h1_inner",
    "advect",
    "divergence_residual",
    "single_mode_field",
    "random_band_field",
    "analytic_decay_field",
]

# Relative tolerance for the divergence-free precondition of advect.
DIV_FREE_RTOL = 1e-12

# When True, every internally constructed field re-asserts its invariants
# (Hermitian symmetry, zero mean, zero Nyquist).  Off by default; meant for
# debugging sessions and the invariant-preservation tests.
DEBUG_VALIDATE = False


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, 2pi]^d with N retained modes per axis."""

    dimension: int
    modes_per_axis: int

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        n = self.modes_per_axis
        if n < 8 or n % 2 != 0:
            raise ValueError(f"modes_per_axis must be an even integer >= 8, got {n}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.modes_per_axis,) * self.dimension

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / self.modes_per_axis

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Integer wavenumber array per axis, shaped for broadcasting."""
        n = self.modes_per_axis
        k = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
        comps = []
        for ax in range(self.dimension):
            shape = [1] * self.dimension
            shape[ax] = n
            comps.append(k.reshape(shape))
        return tuple(comps)

    @cached_property
    def k_squared(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        for k in self.wavenumbers:
            out = out + k.astype(np.float64) ** 2
        return out

    @cached_property
    def k_abs(self) -> np.ndarray:
        return np.sqrt(self.k_squared)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True on rows with any k_j = -N/2 (zeroed at all times)."""
        half = self.modes_per_axis // 2
        mask = np.zeros(self.shape, dtype=bool)
        for k in self.wavenumbers:
            mask |= np.broadcast_to(k == -half, self.shape)
        return mask

    @cached_property
    def mode_mask(self) -> np.ndarray:
        """Retained modes: everything except Nyquist rows."""
        return ~self.nyquist_mask

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep modes with |k_j| <= N/3 on every axis."""
        cut = self.modes_per_axis / 3.0
        mask = np.ones(self.shape, dtype=bool)
        for k in self.wavenumbers:
            mask &= np.broadcast_to(np.abs(k) <= cut, self.shape)
        return mask

    @cached_property
    def shell_index(self) -> np.ndarray:
        """floor(|k|) per lattice site, used for shell statistics."""
        return np.floor(self.k_abs).astype(np.int64)

    @property
    def axes(self) -> tuple[int, ...]:
        """The trailing lattice axes, for batched transforms of stacked fields."""
        return tuple(range(-self.dimension, 0))

    @property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of an rfftn half spectrum: the last axis holds k_d = 0..N/2."""
        n = self.modes_per_axis
        return (n,) * (self.dimension - 1) + (n // 2 + 1,)

    def half(self, lattice: np.ndarray) -> np.ndarray:
        """Contiguous k_d >= 0 part of full-layout data (trailing axes = lattice)."""
        return np.ascontiguousarray(lattice[..., : self.modes_per_axis // 2 + 1])

    @cached_property
    def half_k_abs(self) -> np.ndarray:
        return self.half(self.k_abs)

    @cached_property
    def half_ik(self) -> tuple[np.ndarray, ...]:
        """i k_j per axis on the half spectrum, shaped for broadcasting."""
        return tuple(1j * self.half(k).astype(np.float64) for k in self.wavenumbers)

    @cached_property
    def half_mode_mask(self) -> np.ndarray:
        return self.half(self.mode_mask)

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        return self.half(self.dealias_mask)

    @cached_property
    def half_h1_weight(self) -> np.ndarray:
        """|k|^2 times the lattice sites each half-spectrum site stands for.

        That is 1 on the k_d = 0 and k_d = N/2 planes and 2 elsewhere, so
        sum(w |h|^2) over a half spectrum h is the squared H^1 norm of its field.
        """
        w = 2.0 * self.half(self.k_squared)
        w[..., 0] /= 2.0
        w[..., -1] /= 2.0
        return w

    @property
    def k_abs_max(self) -> float:
        """Largest |k| over retained (non-Nyquist) modes."""
        half = self.modes_per_axis // 2
        return float(np.sqrt(self.dimension) * (half - 1))

    def index_of(self, k: tuple[int, ...]) -> tuple[int, ...]:
        """FFT-layout index of integer wavevector k."""
        n = self.modes_per_axis
        if len(k) != self.dimension:
            raise ValueError(f"wavevector {k} has wrong dimension")
        half = n // 2
        for kj in k:
            if not (-half < kj < half):
                raise ValueError(f"wavevector {k} outside retained range (+-{half - 1})")
        return tuple(int(kj) % n for kj in k)


def _reflect(coeffs: np.ndarray, axes=None) -> np.ndarray:
    """Index map k -> -k in FFT layout, over the given axes (default all)."""
    out = coeffs
    for ax in range(coeffs.ndim) if axes is None else axes:
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def _cleaned(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Project onto the invariant set: Hermitian, zero mean, zero Nyquist."""
    c = 0.5 * (coeffs + np.conj(_reflect(coeffs)))
    c[grid.nyquist_mask] = 0.0
    c[(0,) * grid.dimension] = 0.0
    return c


def _project_half(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Project half spectra, stacked on the trailing axes, in place; returns half.

    The mean mode and the Nyquist rows are zeroed and the k_d = 0 plane is
    symmetrised, so the Hermitian extension of each projected half spectrum
    is a valid field.  Projecting again leaves every value unchanged, up to
    the sign of zeros.
    """
    np.multiply(half, grid.half_mode_mask, out=half)
    half[(...,) + (0,) * grid.dimension] = 0.0
    plane = half[..., 0]
    plane[...] = 0.5 * (plane + np.conj(_reflect(plane, axes=grid.axes[1:])))
    return half


def _from_half(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Full lattice of the real field with projected half spectrum ``half``.

    The k_d >= 0 columns are ``half`` itself and the k_d < 0 half is its
    conjugate reflection, so the result is exactly Hermitian.  ``half`` must
    come from ``_project_half``, which is not re-applied: a second projection
    could flip the sign of zeros, which checkpoint bytes would show.
    """
    n = grid.modes_per_axis
    full = np.empty(grid.shape, dtype=np.complex128)
    top = full[..., : n // 2 + 1]
    top[...] = half
    # full index n - j holds the conjugate of k_d = j, j = N/2-1 .. 1
    full[..., n // 2 + 1 :] = np.conj(
        _reflect(top[..., n // 2 - 1 : 0 : -1], axes=grid.axes[:-1])
    )
    return full


def _assert_invariants(grid: GridSpec, coeffs: np.ndarray) -> None:
    assert coeffs[(0,) * grid.dimension] == 0.0, "mean mode drifted off zero"
    assert np.all(coeffs[grid.nyquist_mask] == 0.0), "Nyquist rows populated"
    scale = max(float(np.max(np.abs(coeffs))), 1.0)
    herm = float(np.max(np.abs(coeffs - np.conj(_reflect(coeffs)))))
    assert herm <= 1e-12 * scale, f"Hermitian symmetry broken: {herm:.3e}"


@dataclass(frozen=True, init=False, eq=False)
class SpectralField:
    """Real, mean-zero scalar field held as complex Fourier coefficients.

    Instances are immutable values; ``coeffs`` (the full lattice) and
    ``half`` (its k_d >= 0 columns) are read-only arrays.  A field holds
    whichever of the two it was built from and derives the other once, on
    first read: solver output keeps its half spectrum until a caller reads
    ``coeffs``.  The derivation is idempotent, so fields shared between
    threads at worst build an array twice.  Use the module-level operations
    to derive new fields.
    """

    grid: GridSpec
    _coeffs: np.ndarray | None = field(repr=False)
    _half: np.ndarray | None = field(repr=False)

    def __init__(self, grid: GridSpec, coeffs: np.ndarray):
        if coeffs.shape != grid.shape:
            raise InvalidFieldError(
                f"coefficient shape {coeffs.shape} does not match grid {grid.shape}"
            )
        if not np.all(np.isfinite(coeffs.view(np.float64))):
            raise InvalidFieldError("non-finite Fourier coefficients")
        coeffs.flags.writeable = False
        self._set(grid=grid, _coeffs=coeffs, _half=None)

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def coeffs(self) -> np.ndarray:
        """Full Fourier coefficient lattice in numpy FFT layout."""
        if self._coeffs is None:
            c = _from_half(self.grid, self._half)
            c.flags.writeable = False
            self._set(_coeffs=c)
        return self._coeffs

    @property
    def half(self) -> np.ndarray:
        """The k_d >= 0 columns of ``coeffs``: the field's rfftn half spectrum."""
        if self._half is None:
            h = self.grid.half(self._coeffs)
            h.flags.writeable = False
            self._set(_half=h)
        return self._half

    @classmethod
    def _wrap(cls, grid: GridSpec, coeffs: np.ndarray) -> "SpectralField":
        """Fast path for internally produced, already-clean coefficients."""
        arr = np.ascontiguousarray(coeffs, dtype=np.complex128)
        if DEBUG_VALIDATE:
            _assert_invariants(grid, arr)
        return cls(grid, arr)

    @classmethod
    def _of_half(cls, grid: GridSpec, half: np.ndarray) -> "SpectralField":
        """Adopt a finite half spectrum that ``_project_half`` has projected.

        The array is marked read-only and kept; the lattice is built when
        ``coeffs`` is first read (at once with DEBUG_VALIDATE on).
        """
        half.flags.writeable = False
        f = cls.__new__(cls)
        f._set(grid=grid, _coeffs=None, _half=half)
        if DEBUG_VALIDATE:
            _assert_invariants(grid, f.coeffs)
        return f

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SpectralField":
        return cls._wrap(grid, np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def from_coeffs(cls, grid: GridSpec, coeffs: np.ndarray) -> "SpectralField":
        """Validate and adopt a raw coefficient lattice.

        Raises InvalidFieldError if the data is non-finite, has a nonzero
        mean mode, nonzero Nyquist rows, or breaks Hermitian symmetry
        beyond round-off; exact invariants are then enforced by projection.
        """
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.shape != grid.shape:
            raise InvalidFieldError(
                f"coefficient shape {c.shape} does not match grid {grid.shape}"
            )
        if not np.all(np.isfinite(c.view(np.float64))):
            raise InvalidFieldError("non-finite Fourier coefficients")
        scale = float(np.max(np.abs(c))) if c.size else 0.0
        tol = 1e-12 * max(scale, 1.0)
        if abs(c[(0,) * grid.dimension]) > tol:
            raise InvalidFieldError("mean mode is not zero")
        if np.any(np.abs(c[grid.nyquist_mask]) > tol):
            raise InvalidFieldError("Nyquist rows carry energy")
        if np.max(np.abs(c - np.conj(_reflect(c)))) > 2 * tol:
            raise InvalidFieldError("Hermitian symmetry violated (field not real)")
        return cls._wrap(grid, _cleaned(grid, c))

    @classmethod
    def from_modes(
        cls, grid: GridSpec, modes: dict[tuple[int, ...], complex]
    ) -> "SpectralField":
        """Build a field from {k: amplitude}; conjugate modes are added."""
        c = np.zeros(grid.shape, dtype=np.complex128)
        for k, a in modes.items():
            if all(kj == 0 for kj in k):
                raise InvalidFieldError("mean mode must stay zero")
            c[grid.index_of(k)] += a
            c[grid.index_of(tuple(-kj for kj in k))] += np.conj(a)
        c[grid.nyquist_mask] = 0.0
        return cls._wrap(grid, c)

    # Linear-space arithmetic (preserves all invariants).
    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField._wrap(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField._wrap(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField._wrap(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField._wrap(self.grid, -self.coeffs)


@dataclass(frozen=True)
class VectorField:
    """d spectral components sharing one grid (a drift velocity)."""

    components: tuple[SpectralField, ...]

    def __post_init__(self):
        grid = self.components[0].grid
        if len(self.components) != grid.dimension:
            raise GridMismatchError(
                f"{len(self.components)} components on a {grid.dimension}-d grid"
            )
        for comp in self.components[1:]:
            if comp.grid != grid:
                raise GridMismatchError("vector components on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.components[0].grid


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


# ---------------------------------------------------------------------------
# Transforms


def _half_to_physical(grid: GridSpec, spec: np.ndarray) -> np.ndarray:
    """Physical samples of the half spectra stacked on spec's trailing axes.

    Consumes ``spec``: the leading-axes inverse runs in place in it, so the
    caller hands over a scratch array (a read-only one makes scipy raise).
    The last-axis inverse then writes the samples to a new real array; the
    two calls give the same bits as ``irfftn`` without its input copy.
    """
    scipy.fft.ifftn(spec, axes=grid.axes[:-1], norm="forward", overwrite_x=True)
    return scipy.fft.irfft(spec, n=grid.modes_per_axis, axis=-1, norm="forward")


def _max_abs(a: np.ndarray) -> float:
    """max |a| without an |a| temporary."""
    return float(max(a.max(), -a.min()))


def to_physical(f: SpectralField) -> np.ndarray:
    """Sample theta(x) = sum_k theta_hat(k) e^{ikx} on the N^d lattice."""
    return _half_to_physical(f.grid, f.half.copy())


def from_physical(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """Inverse of to_physical; rejects non-finite or non-mean-zero data."""
    x = np.asarray(samples, dtype=np.float64)
    if x.shape != grid.shape:
        raise InvalidFieldError(f"sample shape {x.shape} does not match {grid.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidFieldError("non-finite physical samples")
    rms = float(np.sqrt(np.mean(x**2)))
    mean = float(np.mean(x))
    if abs(mean) > 1e-10 * max(rms, 1.0):
        raise InvalidFieldError(f"samples have nonzero mean {mean:.3g}")
    c = scipy.fft.rfftn(x, norm="forward")
    return SpectralField._of_half(grid, _project_half(grid, c))


# ---------------------------------------------------------------------------
# Multiplier operators and norms


def fractional_laplacian(f: SpectralField, gamma: float) -> SpectralField:
    """Coefficientwise |k|^gamma; the mean mode stays zero."""
    if not 0.0 < gamma <= 2.0:
        raise ValueError(f"gamma must lie in (0, 2], got {gamma}")
    return SpectralField._wrap(f.grid, f.coeffs * f.grid.k_abs**gamma)


def gradient(f: SpectralField) -> VectorField:
    """Spectral gradient: component j has coefficients i k_j theta_hat(k)."""
    comps = tuple(
        SpectralField._wrap(f.grid, 1j * k.astype(np.float64) * f.coeffs)
        for k in f.grid.wavenumbers
    )
    return VectorField(comps)


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Homogeneous H^s norm (sum_k |k|^{2s} |theta_hat|^2)^{1/2}; s=0 is L^2."""
    if s < 0:
        raise ValueError(f"Sobolev exponent must be >= 0, got {s}")
    w = f.grid.k_abs ** (2.0 * s) if s > 0 else 1.0
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def gevrey_norm(f: SpectralField, r: float, tau: float, s: float = 1.0) -> float:
    """Gevrey norm (sum |k|^{2r} e^{2 tau |k|^{1/s}} |theta_hat|^2)^{1/2}.

    tau = 0 reduces exactly to sobolev_norm(f, r).  The exponential weight
    is guarded against double overflow at the grid's top shell.
    """
    if r < 0 or tau < 0:
        raise ValueError("r and tau must be >= 0")
    if s < 1:
        raise ValueError(f"Gevrey class index s must be >= 1, got {s}")
    if tau == 0.0:
        return sobolev_norm(f, r)
    kmax = f.grid.k_abs_max
    top_exponent = 2.0 * tau * kmax ** (1.0 / s)
    if top_exponent > 700.0:
        raise GevreyOverflowError(shell=int(kmax), exponent=top_exponent)
    k = f.grid.k_abs
    w = k ** (2.0 * r) if r > 0 else 1.0
    w = w * np.exp(2.0 * tau * k ** (1.0 / s))
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def linf_norm(f: SpectralField, oversample: int = 2) -> float:
    """Max abs over physical samples, on an oversampled grid by default.

    Oversampling reduces the trigonometric-interpolation undershoot of the
    true supremum for band-limited fields.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    if oversample == 1:
        return _max_abs(to_physical(f))
    n = f.grid.modes_per_axis
    d = f.grid.dimension
    m = oversample * n
    top = n // 2  # retained |k_j| < N/2; the Nyquist rows are zero
    src = [np.r_[0:top, n - top + 1 : n]] * (d - 1) + [np.arange(top)]
    dst = [np.r_[0:top, m - top + 1 : m]] * (d - 1) + [np.arange(top)]
    big = np.zeros((m,) * (d - 1) + (m // 2 + 1,), dtype=np.complex128)
    big[np.ix_(*dst)] = f.half[np.ix_(*src)]
    return _max_abs(_half_to_physical(GridSpec(d, m), big))


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    """L^2 pairing under the sum-of-coefficients convention."""
    _check_same_grid(f, g)
    return float(np.real(np.sum(f.coeffs * np.conj(g.coeffs))))


def h1_inner(f: SpectralField, g: SpectralField) -> float:
    """Homogeneous H^1 pairing sum_k |k|^2 f_hat conj(g_hat)."""
    _check_same_grid(f, g)
    return float(np.real(np.sum(f.grid.k_squared * f.coeffs * np.conj(g.coeffs))))


# ---------------------------------------------------------------------------
# Dealiased advection


def divergence_residual(u: VectorField) -> float:
    """Relative spectral divergence max|k.u_hat| / max(|k||u_hat|)."""
    grid = u.grid
    div = np.zeros(grid.shape, dtype=np.complex128)
    mag_sq = np.zeros(grid.shape, dtype=np.float64)
    for k, comp in zip(grid.wavenumbers, u.components):
        div += k * comp.coeffs
        mag_sq += np.abs(comp.coeffs) ** 2
    scale = float(np.max(grid.k_abs * np.sqrt(mag_sq)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(div))) / scale


# Accepted dealias rules, each naming the GridSpec half-spectrum mask it keeps.
DEALIAS_RULES = {"2/3": "half_dealias_mask", "two_thirds": "half_dealias_mask",
                 "none": "half_mode_mask", None: "half_mode_mask"}


def _dealias_selector(grid: GridSpec, rule: str) -> np.ndarray:
    """Half-spectrum mask of the modes kept around a product under ``rule``."""
    if rule not in DEALIAS_RULES:
        raise ValueError(f"unknown dealias rule {rule!r}")
    return getattr(grid, DEALIAS_RULES[rule])


def _flux_divergence(grid: GridSpec, flux: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """mask * (i k . F_hat), F_hat the half spectra of the d physical fluxes.

    The flux components lie on axis -d-1, so leading axes batch stacks of
    fluxes.  The advection kernel behind ``advect`` and the solver's stage
    right-hand sides; it does not check the drift for divergence-freeness.
    """
    fh = scipy.fft.rfftn(flux, axes=grid.axes, norm="forward")
    fh = np.moveaxis(fh, -grid.dimension - 1, 0)
    acc = grid.half_ik[0] * fh[0]
    for ik, comp in zip(grid.half_ik[1:], fh[1:]):
        acc += ik * comp
    acc *= mask
    return acc


def advect(u: VectorField, theta: SpectralField, dealias: str = "2/3") -> SpectralField:
    """u . grad(theta), computed pseudospectrally in divergence form.

    Both inputs are truncated to the dealias band before the physical-space
    product, and the product is truncated again, so the output pairs to zero
    against theta whenever u is divergence-free (Galerkin energy neutrality).
    """
    _check_same_grid(u, theta)
    rel = divergence_residual(u)
    if rel > DIV_FREE_RTOL:
        raise ContractViolationError(
            f"drift is not divergence-free: relative residual {rel:.3e}"
        )
    grid = theta.grid
    mask = _dealias_selector(grid, dealias)
    stacked = np.stack([theta.half] + [comp.half for comp in u.components])
    phys = _half_to_physical(grid, stacked * mask)
    acc = _flux_divergence(grid, phys[1:] * phys[0], mask)
    return SpectralField._of_half(grid, _project_half(grid, acc))


# ---------------------------------------------------------------------------
# Field generators (used by the CLI and by tests)


def single_mode_field(
    grid: GridSpec, k: tuple[int, ...], amplitude: float = 1.0
) -> SpectralField:
    """amplitude * cos(k . x)."""
    return SpectralField.from_modes(grid, {tuple(k): amplitude / 2.0})


def _apply_band_profile(
    grid: GridSpec,
    magnitude: Callable[[np.ndarray], np.ndarray],
    seed: int,
    amplitude: float,
    zero_k3_plane: bool,
) -> SpectralField:
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.shape)
    c = np.exp(1j * phases)
    c[grid.nyquist_mask] = 0.0
    if zero_k3_plane:
        k3 = grid.wavenumbers[-1]
        c[np.broadcast_to(k3 == 0, grid.shape)] = 0.0
    # Hermitianize the phase factor, then restore the exact modulus profile
    # so shell maxima follow magnitude(|k|) without projection noise.
    c = _cleaned(grid, c)
    mod = np.abs(c)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(mod > 0, c / np.where(mod > 0, mod, 1.0), 0.0)
    c = magnitude(grid.k_abs) * unit
    norm = np.sqrt(np.sum(np.abs(c) ** 2))
    if norm == 0.0:
        raise InvalidFieldError("generator produced an identically zero field")
    return SpectralField._wrap(grid, c * (amplitude / norm))


def random_band_field(
    grid: GridSpec,
    kmin: float,
    kmax: float,
    amplitude: float,
    seed: int,
    zero_k3_plane: bool = False,
) -> SpectralField:
    """Random-phase field supported on kmin <= |k| <= kmax with L^2 norm amplitude."""
    if not 0 < kmin <= kmax:
        raise ValueError("need 0 < kmin <= kmax")

    def mag(k_abs):
        return ((k_abs >= kmin) & (k_abs <= kmax)).astype(np.float64)

    return _apply_band_profile(grid, mag, seed, amplitude, zero_k3_plane)


def analytic_decay_field(
    grid: GridSpec,
    tau0: float,
    amplitude: float,
    seed: int,
    zero_k3_plane: bool = False,
) -> SpectralField:
    """Random-phase field with |theta_hat(k)| proportional to e^{-tau0 |k|}.

    The modulus is deterministic so shell maxima decay exactly like
    e^{-tau0 |k|}; only phases are random.  L^2 norm equals amplitude.
    """
    if tau0 <= 0:
        raise ValueError("tau0 must be positive")

    def mag(k_abs):
        out = np.exp(-tau0 * k_abs)
        out[k_abs == 0] = 0.0
        return out

    return _apply_band_profile(grid, mag, seed, amplitude, zero_k3_plane)
