"""Independent checks of the swdesign CLI's run directories.

Everything here is recomputed from first principles, without importing
swdesign: the treatment-effect covariance from the full (mT) x (mT)
generalized-least-squares model, power from the normal distribution in the
standard library, candidate counts from binomial coefficients.  Each
``check_*`` function returns a list of human-readable mismatches; an empty
list means the run directory is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

#: Relative agreement required for criterion values and covariance entries.
RTOL = 1e-9
#: Absolute agreement required for the quasi-Monte Carlo combined power.
COMBINED_ATOL = 5e-5


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def variance_components(model: dict) -> tuple[float, float, float, float]:
    """``(s_c, s_theta, s_s, s_eps)`` of a config's model block."""
    if "rho" in model:
        s2 = model.get("sigma2", 1.0)
        return (model["rho"] * s2, 0.0, 0.0, (1.0 - model["rho"]) * s2)
    return (
        model.get("sigma2_c", 0.0),
        model.get("sigma2_theta", 0.0),
        model.get("sigma2_s", 0.0),
        model.get("sigma2_eps", 1.0),
    )


def gls_lambda_q(X, m: int, D: int, vc) -> np.ndarray:
    """Treatment-effect covariance of a design from the full GLS model.

    Builds every cluster's (mT) x p fixed-effect matrix (columns: arm
    indicators ``1{X >= d}``, intercept, period dummies 2..T) and the
    (mT) x (mT) marginal covariance, and inverts ``sum_i A_i' V^-1 A_i``.
    """
    X = np.asarray(X, dtype=int)
    C, T = X.shape
    q = D - 1
    s_c, s_th, s_s, s_e = vc
    I_T, J_T, I_m, J_m = np.eye(T), np.ones((T, T)), np.eye(m), np.ones((m, m))
    V = (s_c * np.kron(J_T, J_m) + s_th * np.kron(I_T, J_m)
         + s_s * np.kron(J_T, I_m) + s_e * np.kron(I_T, I_m))
    period = np.repeat(np.arange(T), m)
    info = np.zeros((q + T, q + T))
    for row in X:
        A = np.zeros((m * T, q + T))
        for d in range(1, D):
            A[:, d - 1] = row[period] >= d
        A[:, q] = 1.0
        for j in range(1, T):
            A[period == j, q + j] = 1.0
        info += A.T @ np.linalg.solve(V, A)
    return np.linalg.inv(info)[:q, :q]


def criteria(Lq: np.ndarray) -> dict:
    return {"D": float(np.linalg.det(Lq)), "A": float(np.trace(Lq) / len(Lq)),
            "E": float(np.diag(Lq).max())}


def phi(x: float) -> float:
    """Standard normal distribution function, accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def critical_value(power: dict, q: int) -> float:
    tail = power.get("alpha", 0.05)
    if power.get("correction", "bonferroni") == "bonferroni":
        tail /= q
    return NormalDist().inv_cdf(1.0 - tail)


def bvn_lower(a: float, b: float, r: float) -> float:
    """``P(Z1 <= a, Z2 <= b)`` for a standard bivariate normal, by quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    lo = min(a, -12.0)
    edges = np.linspace(lo, a, 65)
    total = 0.0
    s = math.sqrt(1.0 - r * r)
    for x0, x1 in zip(edges[:-1], edges[1:]):
        x = 0.5 * (x1 - x0) * nodes + 0.5 * (x1 + x0)
        dens = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        cond = np.array([phi((b - r * xi) / s) for xi in x])
        total += 0.5 * (x1 - x0) * float(np.sum(weights * dens * cond))
    return total


def power_oracle(Lq: np.ndarray, power_cfg: dict) -> dict:
    """Critical value, per-hypothesis and (for q <= 2) combined power."""
    q = len(Lq)
    delta = np.asarray(power_cfg["delta"], dtype=float)
    e = critical_value(power_cfg, q)
    sd = np.sqrt(np.diag(Lq))
    per = [phi(d / s - e) for d, s in zip(delta, sd)]
    out = {"critical_value": e, "per_hypothesis": per, "combined": None}
    if q == 1:
        out["combined"] = per[0]
    elif q == 2:
        r = Lq[0, 1] / (sd[0] * sd[1])
        mu = delta / sd
        out["combined"] = 1.0 - bvn_lower(e - mu[0], e - mu[1], r)
    return out


def check_power(got: dict | None, Lq: np.ndarray, power_cfg: dict) -> list[str]:
    if got is None:
        return ["power block missing"]
    want = power_oracle(Lq, power_cfg)
    errs = []
    if not close(got["critical_value"], want["critical_value"]):
        errs.append(f"critical value {got['critical_value']!r} != "
                    f"{want['critical_value']!r}")
    for f, (g, w) in enumerate(zip(got["per_hypothesis"],
                                   want["per_hypothesis"]), start=1):
        if not close(g, w):
            errs.append(f"power of H0{f} {g!r} != oracle {w!r}")
    per = want["per_hypothesis"]
    comb = got["combined"]
    if want["combined"] is not None:
        if abs(comb - want["combined"]) > COMBINED_ATOL:
            errs.append(f"combined power {comb!r} != oracle {want['combined']!r}")
    elif not max(per) - COMBINED_ATOL <= comb <= min(1.0, sum(per)) + COMBINED_ATOL:
        errs.append(f"combined power {comb!r} outside [max P_f, sum P_f]")
    target = 1.0 - power_cfg.get("beta", 1.0)
    achieved = min(per) if power_cfg.get("power_type", "individual") == \
        "individual" else comb
    if got["meets_requirement"] != (achieved >= target):
        errs.append(f"meets_requirement {got['meets_requirement']} but "
                    f"achieved power {achieved!r} vs target {target!r}")
    return errs


def monotone_rows(X) -> bool:
    return all(all(a <= b for a, b in zip(r, r[1:])) for r in X)


def _load(out: Path, name: str):
    return json.loads((out / name).read_text())


def _read_csv_matrix(path: Path) -> list[list[int]]:
    return [[int(v) for v in line.split(",")]
            for line in path.read_text().splitlines() if line]


def _check_table(out: Path, crit: dict, cost: float) -> list[str]:
    header, values = (out / "table.csv").read_text().splitlines()
    row = dict(zip(header.split(","), map(float, values.split(","))))
    errs = []
    for key, col in (("D", "det"), ("A", "trace_over_q"), ("E", "max_diag")):
        if not close(row[col], crit[key]):
            errs.append(f"table.csv {col} {row[col]!r} != oracle {crit[key]!r}")
    if row["cost"] != cost:
        errs.append(f"table.csv cost {row['cost']!r} != {cost!r}")
    return errs


def search_candidates(space: dict) -> int:
    """Candidate matrices of a monotone ``space`` block, by binomials alone."""
    D = space["D"]
    total = 0
    for T in space["T"]:
        n_seq = math.comb(T + D - 1, D - 1)
        m = space["m"]
        n_m = (m["budget"] // T - m["min"] + 1) if isinstance(m, dict) else len(m)
        for C in space["C"]:
            total += n_m * math.comb(n_seq + C - 1, C)
    return total


def check_search(out: Path, cfg: dict) -> list[str]:
    res = _load(out, "result.json")
    errs = []
    if res["status"] != "ok":
        return [f"status {res['status']!r}"]
    want_n = search_candidates(cfg["space"])
    if res["n_evaluated"] != want_n:
        errs.append(f"n_evaluated {res['n_evaluated']} != {want_n}")
    if not 0 < res["n_feasible"] <= res["n_evaluated"]:
        errs.append(f"n_feasible {res['n_feasible']} out of range")
    best = res["best"]
    m, C, T, D, X = best["m"], best["C"], best["T"], best["D"], best["X"]
    space = cfg["space"]
    m_ok = (m * T <= space["m"]["budget"] and m >= space["m"]["min"]
            if isinstance(space["m"], dict) else m in space["m"])
    if not (T in space["T"] and C in space["C"] and m_ok and D == space["D"]):
        errs.append(f"(m, C, T, D) = {(m, C, T, D)} outside the space")
    if not monotone_rows(X) or X != sorted(X):
        errs.append("best X is not canonical monotone")
    if _read_csv_matrix(out / "design.csv") != X:
        errs.append("design.csv differs from result.json best X")
    Lq = gls_lambda_q(X, m, D, variance_components(cfg["model"]))
    crit = criteria(Lq)
    name = cfg["objective"]["criterion"]
    if not close(res["criterion_value"], crit[name]):
        errs.append(f"criterion {res['criterion_value']!r} != oracle "
                    f"{crit[name]!r}")
    if res["cost"] != m * C * T:
        errs.append(f"cost {res['cost']!r} != m*C*T")
    errs += _check_table(out, crit, float(m * C * T))
    errs += check_power(res["power"], Lq, cfg["power"])
    return errs


def check_ce(out: Path, cfg: dict) -> list[str]:
    res = _load(out, "result.json")
    if res["status"] != "ok":
        return [f"status {res['status']!r}"]
    ce = cfg["ce"]
    errs = []
    want_n = ce["population_size"] * ce["max_iterations"]
    if res["n_evaluated"] != want_n:
        errs.append(f"n_evaluated {res['n_evaluated']} != {want_n}")
    best = res["best"]
    X = best["X"]
    if not monotone_rows(X) or _read_csv_matrix(out / "design.csv") != X:
        errs.append("best X is not monotone or differs from design.csv")
    Lq = gls_lambda_q(X, best["m"], best["D"],
                      variance_components(cfg["model"]))
    crit = criteria(Lq)
    name = cfg["objective"]["criterion"]
    if not close(res["criterion_value"], crit[name]):
        errs.append(f"criterion {res['criterion_value']!r} != oracle "
                    f"{crit[name]!r}")
    errs += _check_table(out, crit, float(best["m"] * best["C"] * best["T"]))
    errs += check_power(res["power"], Lq, cfg["power"])
    return errs


def check_evaluate(out: Path, cfg: dict, X) -> list[str]:
    res = _load(out, "result.json")
    d = res["design"]
    errs = []
    if d["X"] != X:
        errs.append("result.json design differs from the input CSV")
    Lq = gls_lambda_q(X, d["m"], d["D"], variance_components(cfg["model"]))
    crit = criteria(Lq)
    for key in ("D", "A", "E"):
        if not close(res["criteria"][key], crit[key]):
            errs.append(f"criterion {key} {res['criteria'][key]!r} != "
                        f"oracle {crit[key]!r}")
    errs += _check_table(out, crit, float(d["m"] * d["C"] * d["T"]))
    errs += check_power(res["power"], Lq, cfg["power"])
    return errs


def check_sensitivity(out: Path, cfg: dict, X_fixed) -> list[str]:
    """Grid criterion values and variance ratios against the oracle.

    Every ratio must be at least one: the fixed design lies in the searched
    space, so it can never beat the per-point optimum.
    """
    res = _load(out, "result.json")
    g = cfg["sensitivity"]
    D = cfg["space"]["D"]
    xs = np.linspace(*g["sigma2_c_range"], g["steps"])
    ys = np.linspace(*g["sigma2_eps_range"], g["steps"])
    grid = (out / "grid.csv").read_text().splitlines()
    ratio = (out / "ratio.csv").read_text().splitlines()
    errs = []
    if len(grid) != xs.size * ys.size + 1 or len(ratio) != len(grid):
        return [f"grid.csv/ratio.csv have {len(grid)}/{len(ratio)} lines"]
    designs = res["designs"]
    m_fixed = cfg["design"]["m"]
    for k, (gline, rline) in enumerate(zip(grid[1:], ratio[1:])):
        sc2, se2, did, cval = gline.split(",")
        i, j = divmod(k, ys.size)
        if not (close(float(sc2), xs[i], 1e-12) and close(float(se2), ys[j], 1e-12)):
            errs.append(f"grid point {k} at ({sc2}, {se2}) is off the grid")
            continue
        vc = (xs[i], 0.0, 0.0, ys[j])
        opt = designs[did]
        v_opt = gls_lambda_q(opt["X"], opt["m"], D, vc)[0, 0]
        if not close(float(cval), v_opt):
            errs.append(f"grid point {k}: criterion {cval} != oracle {v_opt!r}")
        v_fix = gls_lambda_q(X_fixed, m_fixed, D, vc)[0, 0]
        r = float(rline.split(",")[2])
        if not close(r, v_fix / v_opt) or r < 1.0 - RTOL:
            errs.append(f"grid point {k}: ratio {r!r} != oracle "
                        f"{v_fix / v_opt!r} (or below 1)")
    return errs


def check_analytic(out: Path, cfg: dict) -> list[str]:
    """Li et al. proportions from their closed form."""
    a = cfg["analytic"]
    v = _load(out, "result.json")["value"]
    m, T, r0, r1, r2 = a["m"], a["T"], a["rho0"], a["rho1"], a["rho2"]
    psi = 1.0 + (m - 1) * r0 - (m - 1) * r1 - r2
    xi = (m - 1) * r1 + r2
    gamma = psi + T * xi
    p = [xi / gamma] * (T - 1)
    p[0] = p[-1] = (psi + 3 * xi) / (2 * gamma)
    errs = []
    if not all(close(g, w) for g, w in zip(v["p"] + [v["psi"], v["xi"], v["gamma"]],
                                          p + [psi, xi, gamma])):
        errs.append(f"li-proportions {v!r} differ from the closed form")
    if not close(sum(v["p"]), 1.0):
        errs.append(f"proportions sum to {sum(v['p'])!r}")
    return errs


def outcome(command: str, out: Path) -> dict:
    """The optimum designs and criterion values of a run directory.

    These are the values frozen for the default seed: designs must match
    exactly and numbers within ``RTOL``.
    """
    res = _load(out, "result.json")
    if command in ("search", "ce-search"):
        return {"best": res["best"], "criterion_value": res["criterion_value"]}
    if command == "evaluate":
        return {"criteria": res["criteria"]}
    if command == "analytic":
        return {"value": res["value"]}
    grid = [line.split(",") for line in
            (out / "grid.csv").read_text().splitlines()[1:]]
    ratio = [line.split(",")[2] for line in
             (out / "ratio.csv").read_text().splitlines()[1:]]
    return {
        "designs": res["designs"],
        "design_ids": [row[2] for row in grid],
        "criterion_values": [float(row[3]) for row in grid],
        "ratios": [float(r) for r in ratio],
    }


def diff_frozen(got, want, path: str = "") -> list[str]:
    """Differences between an outcome and its frozen value."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [e for k in sorted(want)
                for e in diff_frozen(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in diff_frozen(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        return [] if close(float(got), want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]
