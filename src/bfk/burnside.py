"""The ring of finite group actions up to equivalence, with exact integers.

The free basis is indexed by conjugacy classes of subgroups in the fixed
deterministic order of the lattice analysis. Everything about an element is
a column vector over that basis; maps act as matrix-times-column.

Fixed-point counts against cyclic subgroups linearize the ring; the kernel
of that linearization is the lattice this package mostly studies. Concrete
bisets act through orbit counting, each orbit classed by its located
stabilizer; the sums of kernels induced from the sections of a family are
read off the families' section slots, with no quotient group built.
"""

from __future__ import annotations

import threading

import numpy as np

from .bisets import ConcreteBiset, opposite
from .groups import FiniteGroup, analysis, section_shape
from .zlinalg import IntegerLattice, _exact_matmul, obj_zeros, snf_diagonal


class RingData:
    """Per-group basis bookkeeping, linearization, kernel lattice."""

    def __init__(self, G: FiniteGroup):
        self.group = G
        self.ana = analysis(G)
        self.n_classes = len(self.ana.classes)
        self.cyclic_positions = list(self.ana.cyclic_class_positions)
        self._lock = threading.RLock()
        self._lin = None
        self._kernel = None

    def linearization(self) -> np.ndarray:
        """Rows are fixed-point counts against the cyclic classes.

        S fixes |G| / (|cls T| |T|) * #{T' in cls T : S <= T'} points of
        G/T, one product of the lattice rows with the class indicator.
        """
        with self._lock:
            if self._lin is None:
                ana = self.ana
                in_cls = np.zeros((ana.n_sub, self.n_classes), dtype=np.int64)
                in_cls[np.arange(ana.n_sub), ana.class_of_sub] = 1
                reps = np.asarray(ana.class_reps)
                hits = ana.leq[reps[self.cyclic_positions]] @ in_cls
                scale = self.group.order // (in_cls.sum(axis=0) * ana.sizes[reps])
                self._lin = (hits * scale).astype(object)
            return self._lin

    def kernel(self) -> IntegerLattice:
        """The kernel of the linearization, shared by every K system and
        the whole-group slots."""
        with self._lock:
            if self._kernel is None:
                self._kernel = IntegerLattice.kernel(self.linearization())
            return self._kernel


def ring_data(G: FiniteGroup) -> RingData:
    """The ring bookkeeping of G, built once and kept on its analysis."""
    ana = analysis(G)
    rd = ana._ring_data
    if rd is None:
        with G._lock:
            rd = ana._ring_data
            if rd is None:
                rd = ana._ring_data = RingData(G)
    return rd


# ---------------------------------------------------------------------------
# distinguished kernel elements

def _whole_group_shape(G: FiniteGroup) -> tuple:
    ana = analysis(G)
    return section_shape(ana, ana.n_sub - 1, 0)


def rank_two_kernel_element(G: FiniteGroup) -> np.ndarray:
    """For an elementary abelian group of rank 2: the generator of the
    linearization kernel, with the point orbit weighted 1, each index-p
    orbit weighted -1, and the trivial orbit weighted p."""
    p = G.prime
    if _whole_group_shape(G) != ("elab", 2):
        raise ValueError("needs an elementary abelian group of rank 2")
    ana = analysis(G)
    coeffs = [1 if order == 1 else (-1 if order == p else p)
              for order in ana.sizes[ana.class_reps].tolist()]
    return np.array(coeffs, dtype=object)


def extraspecial_kernel_element(G: FiniteGroup, first: int = 0,
                                second: int = 1) -> np.ndarray:
    """For the extraspecial group of order p^3 and exponent p: the kernel
    element supported on two chosen non-central order-p classes and the
    maximal subgroups they generate with the center."""
    if _whole_group_shape(G)[0] != "xsp":
        raise ValueError("needs the extraspecial group of exponent p")
    ana = analysis(G)
    noncentral = [j for j, r in enumerate(ana.class_reps)
                  if ana.sizes[r] == G.prime and r != ana.center]
    if first == second:
        raise ValueError("the two classes must differ")
    coeffs = [0] * len(ana.classes)
    for pos, sign in ((noncentral[first], 1), (noncentral[second], -1)):
        coeffs[pos] += sign
        coeffs[ana.class_of_sub[ana.join[ana.class_reps[pos], ana.center]]] -= sign
    return np.array(coeffs, dtype=object)


# ---------------------------------------------------------------------------
# biset action by orbit counting

def decompose_left_action(left: np.ndarray, dq: RingData) -> list:
    """Coefficients of a finite left action in the orbit basis: each orbit
    is counted once, at its least point, by the class of its stabilizer."""
    reps = np.unique(left.min(axis=0))
    stabs = (left[:, reps] == reps).T               # stabs[k, q]: q fixes reps[k]
    found = dq.ana.class_of_sub[dq.ana.locate(stabs)]
    return np.bincount(found, minlength=dq.n_classes).tolist()


def act_on_basis_element(U: ConcreteBiset, t_members, dq: RingData) -> list:
    """Image of the transitive right-group set with the given stabilizer:
    collapse U by the right subgroup action, then decompose the left set."""
    least = U.right[:, np.asarray(t_members, dtype=np.int32)].min(axis=1)
    roots, index = np.unique(least, return_inverse=True)
    left = index[U.left[:, roots]]
    return decompose_left_action(left, dq)


def biset_matrix(U: ConcreteBiset) -> np.ndarray:
    """Matrix of the induced map between the two orbit-basis modules,
    columns indexed by the right group's classes."""
    dq = ring_data(U.left_group)
    dp = ring_data(U.right_group)
    out = obj_zeros(dq.n_classes, dp.n_classes)
    for j, ti in enumerate(dp.ana.class_reps):
        out[:, j] = act_on_basis_element(U, dp.ana.subgroup_members[ti], dq)
    return out


# ---------------------------------------------------------------------------
# kernel-level and dual maps

def dual_action_matrix(U: ConcreteBiset) -> np.ndarray:
    """Action on dual modules: the transpose of the opposite biset's
    matrix, mapping functionals on the right side to the left side."""
    return biset_matrix(opposite(U)).T


def character_dual_sublattice(G: FiniteGroup) -> IntegerLattice:
    """Functionals that factor through the linearization: the pullbacks of
    the dual basis of the image lattice of fixed-point counts."""
    rd = ring_data(G)
    L = rd.linearization()
    image = IntegerLattice(L.shape[0], L.T)     # the image of the transpose
    if image.rank != len(rd.cyclic_positions):
        raise ValueError("linearization is rank-deficient")
    M, exact = image.coords(L)                  # image.basis.T @ M == L
    if not exact.all():
        raise AssertionError("dual basis pullback must be integral")
    return IntegerLattice(rd.n_classes, M)


def dual_exactness_report(G: FiniteGroup) -> dict:
    """How the dual module splits against the character side: quotient
    invariants, rank bookkeeping, and whether the character functionals
    are exactly the annihilator of the kernel."""
    rd = ring_data(G)
    n = rd.n_classes
    r = len(rd.cyclic_positions)
    K = rd.kernel()
    rstar = character_dual_sublattice(G)
    kperp = IntegerLattice.kernel(K.basis)
    # Z^n / rstar: its invariant factors, then one 0 per free rank
    inv = snf_diagonal(rstar.basis)
    inv += [0] * (n - len(inv))
    torsion = [d for d in inv if d not in (0,)]
    return {
        "basis_rank": n,
        "character_rank": r,
        "kernel_rank": K.rank,
        "rank_identity": K.rank == n - r,
        "dual_quotient_invariants": inv,
        "dual_quotient_free_rank": inv.count(0),
        "dual_quotient_torsion_free": all(d == 1 for d in torsion),
        "annihilator_matches": rstar == kperp,
    }


# ---------------------------------------------------------------------------
# sums of induced kernels

def sum_of_induced_kernels(G: FiniteGroup, label: str) -> IntegerLattice:
    """Sublattice of the kernel spanned by the images of the kernels of
    the quotients of all sections in the labeled family under
    induce-after-inflate.

    Each quotient kernel is its section slot's mark kernel, written over
    the slot's classes of intermediate subgroups S <= W <= T; inducing
    after inflating sends the class of W/S to the class of W in G.
    """
    from .limits import _selection_matrix, section_family

    family = section_family(G, label)
    rd = ring_data(G)
    images = [np.empty((0, rd.n_classes), dtype=np.int64)]
    for i, kern in enumerate(family.kernels):
        up = _selection_matrix(family.ana.class_of_sub[family.classes(i)], rd.n_classes)
        images.append(_exact_matmul(kern.working_basis, up.T))
    return IntegerLattice(rd.n_classes, np.vstack(images))
