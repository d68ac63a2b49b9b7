"""The README's library example runs as documented, and the solver counts
it quotes are those a run writes, so neither can rot."""
import importlib
import json
import re
from pathlib import Path

from edslab.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = README.parent / "perfbench"


def test_library_quick_tour_runs(capsys):
    section = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library quick tour", "exec"), {})
    *report, last = capsys.readouterr().out.strip().splitlines()
    assert report
    rho, passed = last.split()
    assert 0.0 < float(rho) < 1.0 and passed in ("True", "False")


def test_quoted_lock_step_counts_match_the_manifest(tmp_path, monkeypatch):
    # the benchmark's lq_many_perturbations config, read from perfbench
    monkeypatch.syspath_prepend(str(PERFBENCH))
    cfg = importlib.import_module("workloads").config("lq_many_perturbations", 0)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(str(tmp_path / "cfg.json"), out_dir=str(tmp_path / "out")) == 0
    counts = json.loads((tmp_path / "out" / "manifest.json").read_text())["cases"]["base"]["experiments"]
    text = " ".join(README.read_text().split())
    quoted = re.search(
        r"on `lq_many_perturbations` (\d+) factorization for the (\d+) profiles' (\d+) Newton steps, "
        r"in (\d+) rounds \(chunks of up to (\d+) profiles, `chunk_points`\) with (\d+) batched residual "
        r"evaluations, the shared start's (\d+) \+ (\d+) = (\d+) stage rows",
        text,
    )
    assert quoted, "the README no longer quotes the lq_many_perturbations counts"
    factorizations, profiles, steps, rounds, chunk, evals, N, own, rows = map(int, quoted.groups())
    assert profiles == len(cfg["stages"]) * cfg["replicates"] and N == cfg["params"]["N"] and N + own == rows
    assert (factorizations, steps, rounds, chunk, evals, rows) == (
        counts["factorizations"],
        counts["solved_columns"],
        counts["newton_rounds"],
        counts["chunk_points"],
        counts["residual_evals"],
        counts["start_rows"],
    )
    assert f"(7 of the N = {N} chain" in text and chunk == 7


def test_quoted_gram_counts_match_the_manifest(tmp_path, monkeypatch):
    # the benchmark's lq_horizon config, read from perfbench; the beta,
    # L_observed and gamma counts of one run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    cfg = importlib.import_module("workloads").config("lq_horizon", 0)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(str(tmp_path / "cfg.json"), out_dir=str(tmp_path / "out")) == 0
    base = json.loads((tmp_path / "out" / "manifest.json").read_text())["cases"]["base"]
    gram = base["gram"]
    text = " ".join(README.read_text().split())
    quoted = re.search(
        r"On `lq_horizon` \(N = (\d+)\) `L_observed` takes (\d+) factorizations and (\d+) solves, "
        r"and `beta` (\d+) factorizations",
        text,
    )
    assert quoted, "the README no longer quotes the lq_horizon search counts"
    N, factorizations, solves, beta = map(int, quoted.groups())
    assert N == cfg["params"]["N"]
    assert (factorizations, solves, beta) == (
        gram["L_observed"]["factorizations"],
        gram["L_observed"]["solves"],
        gram["beta"]["factorizations"],
    )
    assert gram["L_observed"]["proved"] is True and gram["beta"]["proved"] is None
    # gamma's counts, from the same run
    quoted = re.search(r"On `lq_horizon` \(N = (\d+)\) gamma takes (\d+) factorizations and (\d+) block steps", text)
    assert quoted, "the README no longer quotes the lq_horizon gamma counts"
    N, factorizations, steps = map(int, quoted.groups())
    assert N == cfg["params"]["N"]
    assert base["gamma"] == {"source": "riccati", "factorizations": factorizations, "steps": steps}
