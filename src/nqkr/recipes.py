"""Canned runs that regenerate the headline data sets with pinned parameters.

Every recipe writes plain CSV/JSON data plus a small matplotlib script (data
and script, never rendered images) and returns a list of threshold checks with
pass/fail verdicts. Physical defaults: eta=0.75, epsilon=1e-5, hbar=2.89,
lattice 4096 (8192 for the fig3c norm scan).

Where a recipe's data set is a CLI command's result, the recipe runs that
command's pipeline: fig3c calls `cli.norm_scan_files`, the body of `nqkr
norm-scan`, and fig4 calls `cli.spectrum_files`, the body of `nqkr spectrum
--with-fidelity`. Those recipes keep only their configs and their checks,
which read what the body returns or the files it wrote. Both fig4 panels come
from one run, so `fig4a` and `fig4b` name the same recipe.

The diffusion-law fits use the early window t in [1, 75]: that window lies
inside the normal-diffusion epoch for every K scanned here, whereas by the
second half of a 1000-kick run the smaller K have already dynamically
localized and their late-time slope measures saturation instead. fig1a and
fig1d compare against one law, `_diffusion_rate`; fig1d runs only the kicks
that window holds.

fig1a, fig1b, fig2a, fig2b and fig3a are parameter ladders and run on one
runner, `_run_ladder`. Each gives its ladder, a value -> config function, one
file name such as 'otoc_lam{lam:g}.csv', its draw lines and its checks. The
runner writes each run's OTOC series, or its momentum profile at the last
kick, under that name with the value filled in, and the plot script loops
over the values it ran, reading each file through the same name. So every
data file is named once, for its writer and its plot script alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from string import Formatter
from typing import Callable, Collection

import numpy as np

from .constants import (
    EPSILON_DEFAULT,
    HBAR_DEFAULT,
    LATTICE_DEFAULT,
    SPECTRUM_DIM_DEFAULT,
)
from .fileio import _write_table, read_distribution_csv, write_distribution_csv, write_series_csv
from .lattice import MomentumLattice
from .observables import (
    _linear_fit,
    compare_profiles,
    fit_exponential_profile,
    fit_norm_growth,
    record_series,
    scrambling_rate,
)
from .phases import LAMBDA_C_TOLERANCE, extract_features
from .propagator import KickSchedule, SimConfig
from .spectrum import SpectrumError

DIFFUSION_WINDOW = (1.0, 75.0)
QUASIENERGY_TARGET = 2.454
XI_TARGET_OVERLAP = 3.4


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def base_config(
    K: float, lam: float, kicks: int, lattice_size: int = LATTICE_DEFAULT
) -> SimConfig:
    return SimConfig(
        lattice=MomentumLattice(lattice_size, HBAR_DEFAULT),
        schedule=KickSchedule(K=K, lam=lam),
        kick_count=kicks,
    )


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def _diffusion_rate(K: float) -> float:
    """The normal-diffusion scrambling rate (eps*K)^2/2 at the default shift."""
    return (EPSILON_DEFAULT * K) ** 2 / 2.0


def _ladder(values) -> str:
    """The values a recipe ran, as the tuple literal its plot script loops over."""
    return f"({', '.join(f'{v:g}' for v in values)})"


def _emit_plot_script(path: Path, body: str) -> None:
    script = (
        "#!/usr/bin/env python3\n"
        '"""Generated plotting script; run next to the data files."""\n'
        "import numpy as np\n"
        "import matplotlib.pyplot as plt\n\n"
        + body
        + "\nplt.tight_layout()\nplt.savefig(__file__.replace('.py', '.png'), dpi=200)\n"
    )
    path.write_text(script, encoding="utf-8")


def _run_ladder(outdir: Path, figure: str, name: str, values: Collection[float],
                config_of: Callable[[float], SimConfig], plot: str,
                profile: bool = False) -> dict:
    """Run config_of(v) for each ladder value v; write each run's file and the plot script.

    name's one field is the ladder variable: each run's OTOC series, or with
    profile its momentum profile at its last kick, is written to name with
    v filled in. plot_<figure>.py loops that variable over the values and
    loads each file into d from the same name, so a file and the name its
    plot reads cannot differ; plot follows, its first line the loop body.
    Returns the series or profiles keyed by value.
    """
    var = next(field for _, field, _, _ in Formatter().parse(name) if field)
    write = write_distribution_csv if profile else write_series_csv
    runs = {}
    for v in values:
        config = config_of(v)
        t = config.kick_count
        record = record_series(config, snapshot_times=(t,) if profile else ())
        runs[v] = record.snapshots[t] if profile else record.series
        write(outdir / name.format(**{var: v}), runs[v])
    _emit_plot_script(
        outdir / f"plot_{figure}.py",
        f"for {var} in {_ladder(values)}:\n"
        f"    d = np.loadtxt(f{name!r}, delimiter=',', skiprows=1)\n" + plot,
    )
    return runs


def recipe_fig1a(outdir: Path) -> list[Check]:
    """OTOC growth curves across kick strengths in the Hermitian case."""
    theory = _diffusion_rate(10)
    series = _run_ladder(
        outdir, "fig1a", "otoc_K{K}.csv", (1, 4, 5, 7, 10), lambda K: base_config(K, 0.0, 1000),
        "    plt.plot(d[:, 0], d[:, 1], label=f'K={K}')\n"
        "t = np.arange(1, 1001)\n"
        f"plt.plot(t, {theory!r} * t, 'r--', label='(eps K)^2 t / 2')\n"
        "plt.xlabel('t'); plt.ylabel('C(t)'); plt.legend(); plt.loglog()\n",
    )
    d10 = scrambling_rate(series[10], DIFFUSION_WINDOW)
    return [
        Check(
            "K=10 scrambling rate within 30% of (eps*K)^2/2",
            _within(d10, theory, 0.30),
            f"D={d10:.3e}, theory={theory:.3e}",
        )
    ]


def recipe_fig1b(outdir: Path) -> list[Check]:
    """Momentum profiles at t=1000: localized (K=4) vs diffusive (K=10)."""
    expected = {4: "exponential", 10: "gaussian"}
    profiles = _run_ladder(
        outdir, "fig1b", "profile_K{K}_t1000.csv", expected, lambda K: base_config(K, 0.0, 1000),
        "    plt.semilogy(d[:, 0], d[:, 1], '.', ms=2, label=f'K={K}')\n"
        "plt.xlabel('p'); plt.ylabel('|psi(p)|^2'); plt.legend()\n",
        profile=True,
    )
    checks = []
    for K, expect in expected.items():
        exp_fit, gauss_fit, winner = compare_profiles(profiles[K])
        checks.append(
            Check(
                f"K={K} profile best fit is {expect}",
                winner == expect,
                f"r2_exp={exp_fit.r_squared:.4f}, r2_gauss={gauss_fit.r_squared:.4f}",
            )
        )
    return checks


def recipe_fig1d(outdir: Path) -> list[Check]:
    """Scrambling rate versus kick strength against the (eps*K)^2/2 law."""
    checks = []
    rows = []
    for K in (5, 6, 7, 8, 9, 10):
        # the fit reads only the window, so the run stops at its last kick
        series = record_series(base_config(K, 0.0, int(DIFFUSION_WINDOW[1]))).series
        d = scrambling_rate(series, DIFFUSION_WINDOW)
        theory = _diffusion_rate(K)
        rows.append((K, d, theory))
        checks.append(
            Check(
                f"D(K={K}) within 30% of theory",
                _within(d, theory, 0.30),
                f"D={d:.3e}, theory={theory:.3e}, ratio={d / theory:.3f}",
            )
        )
    _write_table(outdir / "d_vs_k.csv", "K,D,theory", list(zip(*rows)))
    _emit_plot_script(
        outdir / "plot_fig1d.py",
        "d = np.loadtxt('d_vs_k.csv', delimiter=',', skiprows=1)\n"
        "plt.plot(d[:, 0], d[:, 1], 'o', label='fitted D')\n"
        "plt.plot(d[:, 0], d[:, 2], '-', label='(eps K)^2 / 2')\n"
        "plt.xlabel('K'); plt.ylabel('D'); plt.legend()\n",
    )
    return checks


def recipe_fig2a(outdir: Path) -> list[Check]:
    """OTOC curves versus non-Hermiticity: growth shuts down at large lambda."""
    series = _run_ladder(
        outdir, "fig2a", "otoc_lam{lam:g}.csv", (0.0, 1.5, 2.0, 5.0),
        lambda lam: base_config(10, lam, 1000),
        "    plt.plot(d[:, 0], d[:, 1], label=f'lambda={lam}')\n"
        "plt.xlabel('t'); plt.ylabel('C(t)'); plt.legend(); plt.loglog()\n",
    )
    ratios = {lam: extract_features(s).doubling_ratio for lam, s in series.items()}
    return [
        Check(
            "lambda=0 series keeps growing (doubling ratio > 1.8)",
            ratios[0.0] > 1.8,
            f"R={ratios[0.0]:.3f}",
        ),
        Check(
            "lambda=5 series saturates (doubling ratio < 1.2)",
            ratios[5.0] < 1.2,
            f"R={ratios[5.0]:.3f}",
        ),
    ]


def recipe_fig2b(outdir: Path) -> list[Check]:
    """Exponential localization lengths in the frozen phase."""
    targets = {2.0: 14.0, 5.0: 4.5}
    profiles = _run_ladder(
        outdir, "fig2b", "profile_lam{lam:g}_t1000.csv", targets,
        lambda lam: base_config(10, lam, 1000),
        "    plt.semilogy(d[:, 0], d[:, 1], '.', ms=2, label=f'lambda={lam}')\n"
        "plt.xlabel('p'); plt.ylabel('|psi(p)|^2'); plt.legend()\n",
        profile=True,
    )
    checks = []
    for lam, target in targets.items():
        fit = fit_exponential_profile(profiles[lam])
        checks.append(
            Check(
                f"xi(lambda={lam:g}) within 30% of {target}",
                _within(fit.xi_or_sigma, target, 0.30),
                f"xi={fit.xi_or_sigma:.2f}, r2={fit.r_squared:.4f}",
            )
        )
    return checks


def recipe_fig3a(outdir: Path) -> list[Check]:
    """Norm growth versus time for a ladder of lambda values.

    The flatness check below 0.5 is reported for completeness; the kick
    operator's angular gain profile makes the norm grow (slowly) at any
    nonzero lambda, so expect it to read FAIL while the monotonicity and
    linearity of the growing branch hold.
    """
    series = _run_ladder(
        outdir, "fig3a", "norm_lam{lam:g}.csv", (0.0, 0.3, 0.5, 1.0, 1.5, 2.0),
        lambda lam: base_config(10, lam, 1000),
        "    plt.semilogy(d[:, 0], np.exp(d[:, 3]), label=f'lambda={lam}')\n"
        "plt.xlabel('t'); plt.ylabel('N(t)'); plt.legend()\n",
    )
    mus = {lam: fit_norm_growth(s).mu for lam, s in series.items()}
    _write_table(
        outdir / "mu_vs_lambda.csv", "lambda,mu", list(zip(*sorted(mus.items())))
    )
    growing = [mus[lam] for lam in (1.0, 1.5, 2.0)]
    r2 = _linear_fit(np.array([1.0, 1.5, 2.0]), np.array(growing))[2]
    return [
        Check(
            "mu < 1e-4 for lambda <= 0.5",
            all(mus[lam] < 1e-4 for lam in (0.0, 0.3, 0.5)),
            f"mu(0)={mus[0.0]:.2e}, mu(0.3)={mus[0.3]:.2e}, mu(0.5)={mus[0.5]:.2e}",
        ),
        Check(
            "mu strictly increasing over lambda in {1, 1.5, 2}",
            growing[0] < growing[1] < growing[2],
            f"mu={growing}",
        ),
        Check("mu vs lambda linear on the growing branch (r^2 > 0.9)",
              r2 > 0.9, f"r2={r2:.4f}"),
    ]


def recipe_fig3c(outdir: Path) -> list[Check]:
    """Threshold estimate lambda_c versus hbar via the mean-norm criterion.

    lambda_c is a finite-time crossover estimate, not a sharp threshold: the
    norm grows at a rate of order lambda^2 at any lambda > 0, so lambda_c falls
    as the run gets longer. At K = 10 and hbar = 2.89, on a lambda grid of step
    0.005, it measured 0.045, 0.030 and 0.025 at T = 500, 1000 and 2000 kicks;
    this recipe runs T = 500.
    """
    from .cli import norm_scan_files  # not at module level: cli imports this module

    hbars = (0.5, 1.5, 2.89)
    lambdas = np.linspace(0.0, 0.15, 16)
    # hbar=0.5 outgrows 4096 sites before t=500; at 8192 no run wraps around
    base = base_config(10, 0.0, 500, lattice_size=8192)
    result = norm_scan_files(outdir, base, lambdas, hbars)
    lc = [result.lambda_c[h] for h in hbars]
    ordered = all(a is not None for a in lc) and lc[0] < lc[2] and lc[0] <= lc[1] <= lc[2]
    checks = [
        Check(
            "lambda_c non-decreasing in hbar (strict between 0.5 and 2.89)",
            ordered,
            f"lambda_c(0.5)={lc[0]}, lambda_c(1.5)={lc[1]}, lambda_c(2.89)={lc[2]}",
        )
    ]
    _emit_plot_script(
        outdir / "plot_fig3c.py",
        "d = np.loadtxt('norm_scan.csv', delimiter=',', skiprows=1)\n"
        f"for h in {_ladder(hbars)}:\n"
        "    sel = d[:, 0] == h\n"
        "    plt.semilogy(d[sel, 1], np.exp(d[sel, 4]), 'o-', label=f'hbar={h}')\n"
        f"plt.axhline({1 + LAMBDA_C_TOLERANCE:g}, color='k', ls=':')\n"
        "plt.xlabel('lambda'); plt.ylabel('mean N'); plt.legend()\n",
    )
    return checks


def recipe_fig4(outdir: Path) -> list[Check]:
    """Both Fig. 4 panels at t=200, K=10, lambda=5, from one run.

    (a) Fidelity against every quasi-eigenstate; (b) profile overlap of the
    evolved state and the best quasi-eigenstate. Runs the body of `nqkr
    spectrum --K 10 --lambda 5 --t 200 --dim 1024 --with-fidelity`; the
    eigenvalue checks read its summary and the overlap checks its two
    profile files.
    """
    from .cli import spectrum_files  # not at module level: cli imports this module

    cfg = base_config(10, 5.0, 200, lattice_size=SPECTRUM_DIM_DEFAULT)
    summary = spectrum_files(outdir, cfg, with_fidelity=True)
    top_valid = summary["max_valid_eps_i"]
    if top_valid is None:
        raise SpectrumError("no tail-safe eigenstates; enlarge the dimension")
    best_eps, best_f = summary["best_fidelity_eps_i"], summary["best_fidelity"]
    xi_state, xi_eig = (
        fit_exponential_profile(read_distribution_csv(outdir / name)).xi_or_sigma
        for name in ("evolved_state.csv", "best_eigenstate.csv")
    )
    _emit_plot_script(
        outdir / "plot_fig4.py",
        "import json\n"
        "fig, (ax_a, ax_b) = plt.subplots(1, 2, figsize=(10, 4))\n"
        "with open('fidelity.json') as fh:\n"
        "    rec = json.load(fh)\n"
        "eps = [o['eps_i'] for o in rec['overlaps']]\n"
        "f = [o['fidelity'] for o in rec['overlaps']]\n"
        "ax_a.plot(eps, f, '.', ms=3)\n"
        "ax_a.set_xlabel('eps_i'); ax_a.set_ylabel('F')\n"
        "for name in ('evolved_state.csv', 'best_eigenstate.csv'):\n"
        "    d = np.loadtxt(name, delimiter=',', skiprows=1)\n"
        "    ax_b.semilogy(d[:, 0], d[:, 1], '.', ms=2, label=name)\n"
        "ax_b.set_xlabel('p'); ax_b.set_ylabel('prob'); ax_b.legend()\n",
    )
    return [
        Check("best fidelity exceeds 0.99", best_f > 0.99, f"F={best_f:.5f}"),
        Check(
            "best-fidelity state lies in the top tail-safe quasienergy multiplet",
            best_eps >= top_valid - 1e-3,
            f"eps_i(best)={best_eps:.6f}, max valid eps_i={top_valid:.6f}, "
            f"literal max eps_i={summary['max_eps_i']:.6f} "
            f"(tail weight {summary['max_eps_i_tail_weight']:.2e})",
        ),
        Check(
            f"top tail-safe eps_i within 10% of {QUASIENERGY_TARGET}",
            _within(top_valid, QUASIENERGY_TARGET, 0.10),
            f"eps_i={top_valid:.6f}",
        ),
        Check(
            "evolved and quasi-eigenstate localization lengths agree within 20%",
            abs(xi_state - xi_eig) <= 0.20 * max(xi_state, xi_eig),
            f"xi_state={xi_state:.3f}, xi_eig={xi_eig:.3f}",
        ),
        Check(
            f"both localization lengths within 30% of {XI_TARGET_OVERLAP}",
            _within(xi_state, XI_TARGET_OVERLAP, 0.30)
            and _within(xi_eig, XI_TARGET_OVERLAP, 0.30),
            f"xi_state={xi_state:.3f}, xi_eig={xi_eig:.3f}",
        ),
    ]


RECIPES: dict[str, Callable[[Path], list[Check]]] = {
    "fig1a": recipe_fig1a,
    "fig1b": recipe_fig1b,
    "fig1d": recipe_fig1d,
    "fig2a": recipe_fig2a,
    "fig2b": recipe_fig2b,
    "fig3a": recipe_fig3a,
    "fig3c": recipe_fig3c,
    # one run draws both panels; fig4b stays so that its manifests rerun
    "fig4a": recipe_fig4,
    "fig4b": recipe_fig4,
}
FIGURE_IDS = tuple(RECIPES)


def run_recipe(figure_id: str, outdir: Path) -> list[Check]:
    return RECIPES[figure_id](outdir)
