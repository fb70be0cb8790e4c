"""End-to-end acceptance suite.

Each check prints one PASS/FAIL line with the measured numbers (run with
``pytest tests/test_acceptance.py -v -s`` to see them as they happen).  The
heavyweight benchmark fixtures are session-scoped so the whole suite stays
inside a few minutes.
"""

import numpy as np
import pytest

from mlcascade.cli import main as cli_main
from mlcascade.data import Dataset, SynthNetSpec, gen_logical, gen_synthetic, shuffle_split
from mlcascade.evaluate import equivalence_oracle, exact_match, hamming_score, run_experiment
from mlcascade.logistic import LinearModel, cross_entropy, cross_entropy_grad
from mlcascade.methods import MethodConfig, train_ccasl, train_elm_br
from mlcascade.transforms import train_br, train_cc

MASTER_SEED = 1
ALL_METHODS = ["br", "cc", "ccasl", "ccasl+br", "ccasl+aml", "elm"]

# Feature dimension for the synthetic-data contrast.  The generator's input
# dimensionality is a free parameter of the replica; 2 concentrates the
# nonlinearity where random threshold units can reach it.
CONTRAST_D = 2
CONTRAST_DATASETS = 20


def _gate(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number} ({name}): {detail}")
    assert ok, f"acceptance {number} ({name}): {detail}"


@pytest.fixture(scope="session")
def logical_report():
    """10 shuffled 60/40 iterations of all six methods on the logical dataset."""
    return run_experiment(
        {"logical": gen_logical(20)}, ALL_METHODS, iterations=10,
        split_fraction=0.6, master_seed=MASTER_SEED,
    )


@pytest.fixture(scope="session")
def contrast_means():
    """Mean exact match of br and ccasl over 20 complex and 20 linear datasets."""
    out = {}
    for variant, hidden in (("complex", 100), ("linear", 0)):
        datasets = [
            (
                f"{variant}{i}",
                gen_synthetic(
                    SynthNetSpec(D=CONTRAST_D, L=10, N=2000, hidden_units=hidden, seed=i)
                ),
            )
            for i in range(CONTRAST_DATASETS)
        ]
        report = run_experiment(
            datasets, ["br", "ccasl"], iterations=1,
            split_fraction=0.5, master_seed=MASTER_SEED,
        )
        out[variant] = {
            "br": float(report.exact_mean[:, 0].mean()),
            "ccasl": float(report.exact_mean[:, 1].mean()),
        }
    return out


def test_1_logical_benchmark_exact_match(logical_report):
    m = {name: logical_report.mean("exact", "logical", name) for name in ALL_METHODS}
    ranks = dict(zip(logical_report.method_names, logical_report.exact_rank[0]))
    stacked_on_top = max(ranks["ccasl+br"], ranks["ccasl+aml"]) <= 2
    ok = (
        m["ccasl+br"] >= 0.95
        and m["ccasl+aml"] >= 0.95
        and 0.35 <= m["br"] <= 0.70
        and m["ccasl"] > m["cc"]
        and m["elm"] > m["br"]
        and stacked_on_top
    )
    detail = " ".join(f"{k}={v:.3f}" for k, v in m.items()) + (
        f"; stacked methods hold the top ranks: {stacked_on_top}"
    )
    _gate(1, "logical exact match", ok, detail)


def test_2_logical_benchmark_hamming(logical_report):
    m = {name: logical_report.mean("hamming", "logical", name) for name in ALL_METHODS}
    ok = m["ccasl+br"] >= 0.95 and m["ccasl+aml"] >= 0.95 and 0.70 <= m["br"] <= 0.92
    detail = " ".join(f"{k}={v:.3f}" for k, v in m.items())
    _gate(2, "logical hamming score", ok, detail)


def test_3_synthetic_data_contrast(contrast_means):
    cx = contrast_means["complex"]
    ln = contrast_means["linear"]
    complex_gap = cx["ccasl"] - cx["br"]
    linear_gap = ln["br"] - ln["ccasl"]
    ok = complex_gap >= 0.03 and linear_gap >= -0.01
    detail = (
        f"complex: ccasl={cx['ccasl']:.3f} br={cx['br']:.3f} "
        f"(ccasl-br={complex_gap:+.3f}, direction "
        f"{'held' if complex_gap > 0 else 'reversed'}); "
        f"linear: br={ln['br']:.3f} ccasl={ln['ccasl']:.3f} "
        f"(br-ccasl={linear_gap:+.3f}, direction "
        f"{'held' if linear_gap > 0 else 'reversed'})"
    )
    _gate(3, "synthetic contrast", ok, detail)


def test_synthetic_contrast_means_are_the_readme_numbers(contrast_means):
    """The README quotes gate 3's four means to 3 decimals; they must not drift."""
    got = {variant: {name: f"{mean:.3f}" for name, mean in means.items()}
           for variant, means in contrast_means.items()}
    assert got == {"complex": {"br": "0.159", "ccasl": "0.249"},
                   "linear": {"br": "0.942", "ccasl": "0.747"}}


def test_4_hidden_unit_sweep():
    logical = gen_logical(20)
    aml = run_experiment(
        {"logical": logical}, [("ccasl+aml", MethodConfig(synthetic_count=1))],
        10, 0.6, MASTER_SEED,
    ).exact_mean[0, 0]
    sweep = []
    for h in (1, 2, 3, 6):
        rep = run_experiment(
            {"logical": logical}, [("ccasl", MethodConfig(synthetic_count=h))],
            10, 0.6, MASTER_SEED,
        )
        sweep.append(float(rep.exact_mean[0, 0]))
    monotone = all(b >= a - 0.05 for a, b in zip(sweep, sweep[1:]))
    ok = aml >= 0.9 and monotone
    detail = (
        f"ccasl+aml H=1 -> {aml:.3f}; ccasl means over H in (1,2,3,6): "
        + ", ".join(f"{v:.3f}" for v in sweep)
    )
    _gate(4, "hidden-unit sweep", ok, detail)


def test_5_joint_marginal_equivalence():
    logical = gen_logical(20)
    results = {}
    for L in (1, 3, 10):
        if L == 1:
            ds = Dataset(logical.X, logical.Y[:, :1])
        elif L == 3:
            ds = logical
        else:
            ds = gen_synthetic(SynthNetSpec(D=2, L=10, N=400, hidden_units=100, seed=2))
        train, test = shuffle_split(ds, 0.6, seed=MASTER_SEED)
        br = train_br(train)
        results[L] = equivalence_oracle(br, test.X)
    ok = all(results.values())
    _gate(5, "joint vs per-label argmax", ok, f"oracle by L: {results}")


def test_6_metric_oracles():
    rng = np.random.default_rng(MASTER_SEED)
    dominated = 0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        L = int(rng.integers(1, 8))
        t = rng.integers(0, 2, size=(n, L))
        p = rng.integers(0, 2, size=(n, L))
        if exact_match(t, p) <= hamming_score(t, p) + 1e-15:
            dominated += 1
    matched = 0
    for _ in range(100):
        n = int(rng.integers(1, 15))
        L = int(rng.integers(1, 6))
        t = rng.integers(0, 2, size=(n, L))
        p = rng.integers(0, 2, size=(n, L))
        rows = sum(
            1 for ti, pi in zip(t.tolist(), p.tolist())
            if all(a == b for a, b in zip(ti, pi))
        )
        bits = sum(
            int(a == b)
            for ti, pi in zip(t.tolist(), p.tolist())
            for a, b in zip(ti, pi)
        )
        if exact_match(t, p) == rows / n and hamming_score(t, p) == bits / (n * L):
            matched += 1
    ok = dominated == 1000 and matched == 100
    _gate(6, "metric oracles", ok, f"dominated {dominated}/1000, brute-force match {matched}/100")


def test_7_gradient_check():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 11))
        n = int(rng.integers(1, 51))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        w = rng.normal(scale=0.5, size=d + 1)
        analytic = cross_entropy_grad(LinearModel(w), X, y)
        h = 1e-5
        fd = np.zeros(d + 1)
        for j in range(d + 1):
            up, down = w.copy(), w.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (
                cross_entropy(LinearModel(up), X, y)
                - cross_entropy(LinearModel(down), X, y)
            ) / (2 * h)
        rel = float(np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic)))
        worst = max(worst, rel)
    ok = worst < 1e-5
    _gate(7, "gradient vs central differences", ok, f"worst relative error {worst:.2e}")


def test_8_bench_determinism(tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        code = cli_main([
            "bench", "--dataset", "logical",
            "--methods", ",".join(ALL_METHODS),
            "--iters", "10", "--seed", str(MASTER_SEED), "--out", str(d),
        ])
        assert code == 0
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("logical-exactmatch.csv", "logical-hamming.csv", "logical-report.txt")
    )
    _gate(8, "bench byte determinism", identical, "two runs with one seed compared byte-for-byte")


def test_9_degenerate_equivalences():
    logical = gen_logical(20)
    cfg = MethodConfig(synthetic_count=0, seed=MASTER_SEED)
    train, test = shuffle_split(logical, 0.6, seed=MASTER_SEED)

    ccasl0 = train_ccasl(train, cfg)
    cc = train_cc(train, None, cfg.base)
    ccasl_is_cc = np.array_equal(ccasl0.predict(test.X), cc.predict(test.X))

    elm0 = train_elm_br(train, cfg)
    br = train_br(train, cfg.base)
    elm_is_br = np.array_equal(elm0.predict(test.X), br.predict(test.X))

    one = Dataset(logical.X, logical.Y[:, :1])
    tr1, te1 = shuffle_split(one, 0.6, seed=MASTER_SEED)
    single_collapse = np.array_equal(
        train_br(tr1).predict(te1.X), train_cc(tr1).predict(te1.X)
    )

    ok = ccasl_is_cc and elm_is_br and single_collapse
    _gate(
        9, "degenerate equivalences", ok,
        f"ccasl(H=0)==cc: {ccasl_is_cc}, elm(H=0)==br: {elm_is_br}, "
        f"L=1 br==cc: {single_collapse}",
    )
