"""One-off generator for the molecular-integral fixtures under tests/fixtures.

Computes STO-3G integrals (McMurchie-Davidson scheme, s and p shells),
runs a restricted Hartree-Fock loop, transforms to the canonical molecular
orbital basis, and writes FCIDUMP files plus JSON sidecars with the
mean-field reference data.  Not part of the installed package; the package
only ever ingests the generated files.

Run from the repository root:  python tools/make_fixtures.py
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import hyp1f1

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from corrvec.molham import MolecularIntegrals  # noqa: E402
from fcidump import write_fcidump  # noqa: E402

ANGSTROM_TO_BOHR = 1.0 / 0.529177210903

# Published STO-3G exponents and contraction coefficients.
STO3G = {
    "H": [("s", [3.42525091, 0.62391373, 0.16885540],
           [0.15432897, 0.53532814, 0.44463454])],
    "Li": [("s", [16.1195750, 2.9362007, 0.7946505],
            [0.15432897, 0.53532814, 0.44463454]),
           ("s", [0.6362897, 0.1478601, 0.0480887],
            [-0.09996723, 0.39951283, 0.70011547]),
           ("p", [0.6362897, 0.1478601, 0.0480887],
            [0.15591627, 0.60768372, 0.39195739])],
}
CHARGES = {"H": 1, "Li": 3}


def boys(n: int, x: float) -> float:
    return hyp1f1(n + 0.5, n + 1.5, -x) / (2.0 * n + 1.0)


@lru_cache(maxsize=None)
def e_coef(i: int, j: int, t: int, qd: float, a: float, b: float) -> float:
    """Hermite expansion coefficient of x^i x^j Gaussian product."""
    p = a + b
    q = a * b / p
    if t < 0 or t > i + j:
        return 0.0
    if i == j == t == 0:
        return float(np.exp(-q * qd * qd))
    if i > 0:
        return (e_coef(i - 1, j, t - 1, qd, a, b) / (2 * p)
                - q * qd / a * e_coef(i - 1, j, t, qd, a, b)
                + (t + 1) * e_coef(i - 1, j, t + 1, qd, a, b))
    return (e_coef(i, j - 1, t - 1, qd, a, b) / (2 * p)
            + q * qd / b * e_coef(i, j - 1, t, qd, a, b)
            + (t + 1) * e_coef(i, j - 1, t + 1, qd, a, b))


@lru_cache(maxsize=None)
def r_herm(t: int, u: int, v: int, n: int, p: float,
           x: float, y: float, z: float) -> float:
    """Auxiliary Hermite Coulomb integral R^n_{tuv}."""
    if t < 0 or u < 0 or v < 0:
        return 0.0
    if t == u == v == 0:
        return float((-2.0 * p) ** n * boys(n, p * (x * x + y * y + z * z)))
    if t > 0:
        return ((t - 1) * r_herm(t - 2, u, v, n + 1, p, x, y, z)
                + x * r_herm(t - 1, u, v, n + 1, p, x, y, z))
    if u > 0:
        return ((u - 1) * r_herm(t, u - 2, v, n + 1, p, x, y, z)
                + y * r_herm(t, u - 1, v, n + 1, p, x, y, z))
    return ((v - 1) * r_herm(t, u, v - 2, n + 1, p, x, y, z)
            + z * r_herm(t, u, v - 1, n + 1, p, x, y, z))


def overlap_prim(a, la, ra, b, lb, rb) -> float:
    p = a + b
    out = (np.pi / p) ** 1.5
    for ax in range(3):
        out *= e_coef(la[ax], lb[ax], 0, ra[ax] - rb[ax], a, b)
    return float(out)


def kinetic_prim(a, la, ra, b, lb, rb) -> float:
    l, m, n = lb

    def s_shift(dx, dy, dz):
        shifted = (l + dx, m + dy, n + dz)
        if min(shifted) < 0:
            return 0.0
        return overlap_prim(a, la, ra, b, shifted, rb)

    term0 = b * (2 * (l + m + n) + 3) * s_shift(0, 0, 0)
    term1 = -2.0 * b * b * (s_shift(2, 0, 0) + s_shift(0, 2, 0) + s_shift(0, 0, 2))
    term2 = -0.5 * (l * (l - 1) * s_shift(-2, 0, 0)
                    + m * (m - 1) * s_shift(0, -2, 0)
                    + n * (n - 1) * s_shift(0, 0, -2))
    return float(term0 + term1 + term2)


def nuclear_prim(a, la, ra, b, lb, rb, rc) -> float:
    p = a + b
    centroid = (a * np.asarray(ra) + b * np.asarray(rb)) / p
    pc = centroid - np.asarray(rc)
    out = 0.0
    for t in range(la[0] + lb[0] + 1):
        et = e_coef(la[0], lb[0], t, ra[0] - rb[0], a, b)
        for u in range(la[1] + lb[1] + 1):
            eu = e_coef(la[1], lb[1], u, ra[1] - rb[1], a, b)
            for v in range(la[2] + lb[2] + 1):
                ev = e_coef(la[2], lb[2], v, ra[2] - rb[2], a, b)
                out += et * eu * ev * r_herm(t, u, v, 0, p, *pc)
    return float(2.0 * np.pi / p * out)


def eri_prim(a, la, ra, b, lb, rb, c, lc, rc, d, ld, rd) -> float:
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    rp = (a * np.asarray(ra) + b * np.asarray(rb)) / p
    rq = (c * np.asarray(rc) + d * np.asarray(rd)) / q
    pq = rp - rq
    out = 0.0
    for t in range(la[0] + lb[0] + 1):
        et = e_coef(la[0], lb[0], t, ra[0] - rb[0], a, b)
        for u in range(la[1] + lb[1] + 1):
            eu = e_coef(la[1], lb[1], u, ra[1] - rb[1], a, b)
            for v in range(la[2] + lb[2] + 1):
                ev = e_coef(la[2], lb[2], v, ra[2] - rb[2], a, b)
                inner = 0.0
                for tau in range(lc[0] + ld[0] + 1):
                    ft = e_coef(lc[0], ld[0], tau, rc[0] - rd[0], c, d)
                    for nu in range(lc[1] + ld[1] + 1):
                        fu = e_coef(lc[1], ld[1], nu, rc[1] - rd[1], c, d)
                        for phi in range(lc[2] + ld[2] + 1):
                            fv = e_coef(lc[2], ld[2], phi, rc[2] - rd[2], c, d)
                            inner += (ft * fu * fv * (-1.0) ** (tau + nu + phi)
                                      * r_herm(t + tau, u + nu, v + phi, 0,
                                               alpha, *pq))
                out += et * eu * ev * inner
    return float(out * 2.0 * np.pi ** 2.5
                 / (p * q * np.sqrt(p + q)))


def prim_norm(alpha: float, powers) -> float:
    l, m, n = powers
    dfact = {0: 1.0, 1: 1.0, 2: 3.0}
    num = (2.0 * alpha / np.pi) ** 0.75 * (4.0 * alpha) ** ((l + m + n) / 2.0)
    return float(num / np.sqrt(dfact[l] * dfact[m] * dfact[n]))


class BasisFunction:
    def __init__(self, center, powers, exps, coefs):
        self.center = np.asarray(center, dtype=float)
        self.powers = tuple(powers)
        self.exps = list(exps)
        self.coefs = [c * prim_norm(a, powers) for c, a in zip(coefs, exps)]
        s_self = self._pair_sum(self, overlap_prim)
        self.coefs = [c / np.sqrt(s_self) for c in self.coefs]

    def _pair_sum(self, other, kernel, *extra):
        out = 0.0
        for ca, aa in zip(self.coefs, self.exps):
            for cb, ab in zip(other.coefs, other.exps):
                out += ca * cb * kernel(aa, self.powers, tuple(self.center),
                                        ab, other.powers, tuple(other.center),
                                        *extra)
        return out


def build_basis(atoms):
    basis = []
    for symbol, center in atoms:
        for kind, exps, coefs in STO3G[symbol]:
            if kind == "s":
                basis.append(BasisFunction(center, (0, 0, 0), exps, coefs))
            else:
                for powers in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    basis.append(BasisFunction(center, powers, exps, coefs))
    return basis


def one_electron_matrices(basis, atoms):
    n = len(basis)
    s = np.zeros((n, n))
    t = np.zeros((n, n))
    v = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            s[i, j] = s[j, i] = basis[i]._pair_sum(basis[j], overlap_prim)
            t[i, j] = t[j, i] = basis[i]._pair_sum(basis[j], kinetic_prim)
            vij = 0.0
            for symbol, center in atoms:
                vij -= CHARGES[symbol] * basis[i]._pair_sum(
                    basis[j], nuclear_prim, tuple(np.asarray(center, dtype=float)))
            v[i, j] = v[j, i] = vij
    return s, t, v


def eri_tensor(basis):
    n = len(basis)
    eri = np.zeros((n, n, n, n))
    done = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    key = tuple(sorted([tuple(sorted([i, j])), tuple(sorted([k, l]))]))
                    if key in done:
                        eri[i, j, k, l] = done[key]
                        continue
                    val = 0.0
                    bi, bj, bk, bl = basis[i], basis[j], basis[k], basis[l]
                    for ca, aa in zip(bi.coefs, bi.exps):
                        for cb, ab in zip(bj.coefs, bj.exps):
                            for cc, ac in zip(bk.coefs, bk.exps):
                                for cd, ad in zip(bl.coefs, bl.exps):
                                    val += ca * cb * cc * cd * eri_prim(
                                        aa, bi.powers, bi.center,
                                        ab, bj.powers, bj.center,
                                        ac, bk.powers, bk.center,
                                        ad, bl.powers, bl.center)
                    done[key] = val
                    eri[i, j, k, l] = val
    return eri


def nuclear_repulsion(atoms) -> float:
    out = 0.0
    for i, (si, ri) in enumerate(atoms):
        for j, (sj, rj) in enumerate(atoms):
            if j <= i:
                continue
            out += CHARGES[si] * CHARGES[sj] / np.linalg.norm(
                np.asarray(ri) - np.asarray(rj))
    return out


def rhf(s, h_core, eri, n_elec, max_iter=300, tol=1e-11):
    vals, vecs = np.linalg.eigh(s)
    x = vecs @ np.diag(vals ** -0.5) @ vecs.T
    n_occ = n_elec // 2
    f = h_core
    density = np.zeros_like(s)
    energy = 0.0
    for it in range(max_iter):
        fp = x.T @ f @ x
        eps, cp = np.linalg.eigh(fp)
        c = x @ cp
        c_occ = c[:, :n_occ]
        new_density = 2.0 * c_occ @ c_occ.T
        coulomb = np.einsum("ls,mnsl->mn", new_density, eri)
        exchange = np.einsum("ls,mlsn->mn", new_density, eri)
        f = h_core + coulomb - 0.5 * exchange
        new_energy = 0.5 * np.sum(new_density * (h_core + f))
        if it > 0 and abs(new_energy - energy) < tol \
                and np.max(np.abs(new_density - density)) < 1e-9:
            density, energy = new_density, new_energy
            break
        density, energy = new_density, new_energy
    else:
        raise RuntimeError("SCF failed to converge")
    fp = x.T @ f @ x
    eps, cp = np.linalg.eigh(fp)
    c = x @ cp
    return energy, eps, c


def mo_integrals(h_core, eri, c):
    h_mo = c.T @ h_core @ c
    g_mo = np.einsum("mnls,mp,nq,lr,st->pqrt", eri, c, c, c, c, optimize=True)
    return h_mo, g_mo


def make_system(name, atoms_angstrom, out_dir):
    atoms = [(s, np.asarray(r) * ANGSTROM_TO_BOHR) for s, r in atoms_angstrom]
    basis = build_basis(atoms)
    s, t, v = one_electron_matrices(basis, atoms)
    h_core = t + v
    eri = eri_tensor(basis)
    e_nuc = nuclear_repulsion(atoms)
    n_elec = sum(CHARGES[sym] for sym, _ in atoms)
    e_scf, eps, c = rhf(s, h_core, eri, n_elec)
    h_mo, g_chem = mo_integrals(h_core, eri, c)
    integrals = MolecularIntegrals(
        n_orb=len(basis), h=h_mo, g=g_chem.transpose(0, 2, 1, 3).copy(),
        e_const=e_nuc, n_elec=n_elec)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_fcidump(integrals, str(out_dir / f"{name}.fcidump"))
    sidecar = {
        "name": name,
        "basis": "STO-3G",
        "geometry_angstrom": [[sym, list(map(float, r))] for sym, r in atoms_angstrom],
        "n_orb": len(basis),
        "n_elec": n_elec,
        "nuclear_repulsion": float(e_nuc),
        "scf_energy": float(e_scf + e_nuc),
        "orbital_energies": [float(x) for x in eps],
        "generator": "tools/make_fixtures.py",
    }
    (out_dir / f"{name}.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"{name}: E_SCF = {e_scf + e_nuc:.8f} Ha, orbitals = {np.round(eps, 5)}")
    return e_scf + e_nuc


def main():
    out = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

    # consistency anchor: the textbook minimal-basis H2 at R = 1.4 bohr
    r_check = 1.4 / ANGSTROM_TO_BOHR
    e_check = make_system("h2_check_1p4bohr", [("H", (0, 0, 0)), ("H", (0, 0, r_check))], out)
    assert abs(e_check - (-1.11671)) < 2e-4, f"H2 anchor off: {e_check}"
    (out / "h2_check_1p4bohr.fcidump").unlink()
    (out / "h2_check_1p4bohr.json").unlink()

    make_system("h2_2.0", [("H", (0, 0, 0)), ("H", (0, 0, 2.0))], out)
    make_system("h2_3.0", [("H", (0, 0, 0)), ("H", (0, 0, 3.0))], out)
    e_lih = make_system("lih_2.0", [("Li", (0, 0, 0)), ("H", (0, 0, 2.0))], out)
    assert -8.0 < e_lih < -7.7, f"LiH SCF energy implausible: {e_lih}"
    e_lih3 = make_system("lih_3.0", [("Li", (0, 0, 0)), ("H", (0, 0, 3.0))], out)
    assert -8.0 < e_lih3 < -7.6, f"LiH 3.0 SCF energy implausible: {e_lih3}"


if __name__ == "__main__":
    main()
