"""Mutation check: does the test suite catch a broken engine or input rule?

Each mutant is a source patch: one snippet that must occur exactly once in
a file under ``src/replicaplan``, and its replacement.  For each mutant the
script copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` to
a temporary directory, applies the patch there, runs the tests named for
the mutant, and prints one line:

    killed     the tests failed, as they should
    SURVIVED   the tests passed on the broken code
    ERROR      the patch no longer applies, or pytest could not run

Usage, from the repository root::

    python tests/mutants.py              # every mutant
    python tests/mutants.py -k row-skip  # mutants whose name contains "row-skip"
    python tests/mutants.py --list       # names and tests only

The exit status is 0 only if every mutant run was killed.  The file name
does not match ``test_*.py``, so pytest never collects it.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/replicaplan
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, run from the copy's root


HEURISTICS = "tests/test_heuristics.py"
WORK = "tests/test_engine_work.py"  # the work pins: each work-only mutant must fail one
TRAFFIC = "tests/test_workload.py::TestTrafficBytes"

MUTANTS = (
    # The one eligibility rule, ``_columns``.
    Mutant("columns-no-veto", "heuristics.py",
           "            net[veto] = 0\n",
           "            net[veto] = net[veto]\n",
           (HEURISTICS, "-k", "Literal")),
    Mutant("columns-no-transfer-term", "heuristics.py",
           "net -= st.objects.sizes[cols] * st.d[:, cols]",
           "net -= 0 * st.d[:, cols]",
           (HEURISTICS, "-k", "TestAgainstReference")),
    Mutant("veto-slack-0", "heuristics.py",
           "slack = before * self.weight[:, None], 4 * m * np.finfo(float).eps * before",
           "slack = before * self.weight[:, None], 0 * before",
           (HEURISTICS, "-k", "Literal")),
    Mutant("veto-no-exact-recompute", "heuristics.py",
           "for c in near.any(axis=0).nonzero()[0].tolist():",
           "for c in []:",
           (HEURISTICS, "-k", "Literal")),
    # Evictable lists and the eviction prefix.
    Mutant("store-stable-argsort", "heuristics.py",
           "order = np.lexsort((objs, damages))",
           'order = np.argsort(damages, kind="stable")',
           (HEURISTICS, "-k", "TestEvictionCache")),
    Mutant("entries-keep-own-row", "heuristics.py",
           "        others[i] = False\n",
           "        others[i] = others[i]\n",
           (HEURISTICS, "-k", "TestEvictionEntries")),
    Mutant("resolve-searchsorted-right", "heuristics.py",
           "t = ev.cum_size.searchsorted(st.objects.sizes[ks] - st.free[i])",
           't = ev.cum_size.searchsorted(st.objects.sizes[ks] - st.free[i], side="right")',
           (HEURISTICS, "-k", "TestAgainstReference")),
    Mutant("resolve-no-clip", "heuristics.py",
           "np.maximum(self.net[i, ks] - ev.price[t], 0) * self.weight[i]",
           "(self.net[i, ks] - ev.price[t]) * self.weight[i]",
           (HEURISTICS, "-k", "TestPrice")),
    # The price: BLOCKED from the first refused eviction on, and past the end.
    Mutant("price-no-blocked-fold", "heuristics.py",
           "price[np.append(lowers, True).argmax():] = BLOCKED",
           "price[-1:] = BLOCKED",
           (HEURISTICS, "-k", "TestEvictionCache or TestAgainstReference or TestPrice")),
    Mutant("price-sentinel-0", "heuristics.py",
           "= BLOCKED  # from the first blocked entry on\n",
           "= BLOCKED\n        price[-1] = 0\n",
           (HEURISTICS, "-k", "TestAgainstReference or TestPrice")),
    # The floor: a pending bound takes off its server's cheapest eviction.
    Mutant("floor-from-last-entry", "heuristics.py",
           "self._floor[i] = price[0]",
           "self._floor[i] = price[-2:][0]",
           (HEURISTICS, "-k", "TestSweepCache or TestRescoredSuffix")),
    Mutant("floor-ignores-blocked", "heuristics.py",
           "self._floor[i] = price[0]",
           "self._floor[i] = damages[:1].sum()",
           (HEURISTICS, "-k", "TestSweepCache or TestRescoredSuffix")),
    Mutant("floor-on-fitting-cells", "heuristics.py",
           "np.subtract(gain, self._floor[rows, None], out=gain, where=pending)",
           "np.subtract(gain, self._floor[rows, None], out=gain)",
           (HEURISTICS, "-k", "TestSweepCache or TestRescoredSuffix")),
    # The reach: a list is kept sorted only as far as its server can evict.
    Mutant("reach-one-short", "heuristics.py",
           "reach=int(cum_size.searchsorted(self._largest - self.st.free[i])) + 1,",
           "reach=int(cum_size.searchsorted(self._largest - self.st.free[i])),",
           (HEURISTICS, "-k", "TestEvictionCache")),
    Mutant("in-place-drops-lowers", "heuristics.py",
           "ev.damages[pos], ev.lowers[pos] = damages, lowers",
           "ev.damages[pos] = damages",
           (HEURISTICS, "-k", "TestEvictionCache")),
    Mutant("in-place-for-committing-server", "heuristics.py",
           "                if j == i:\n",
           "                if False:\n",
           (HEURISTICS, "-k", "TestEvictionCache")),
    Mutant("in-place-ignores-position", "heuristics.py",
           "if (pos.min() < ev.reach or",
           "if (pos.min() < 0 or",
           (HEURISTICS, "-k", "TestEvictionCache")),
    Mutant("in-place-ignores-new-keys", "heuristics.py",
           "if (pos.min() < ev.reach or min(",
           "if (pos.min() < ev.reach or False and min(",
           (HEURISTICS, "-k", "TestEvictionCache")),
    # The engine's self-checks: each must fire when its invariant breaks.
    Mutant("commit-skips-placement-check", "heuristics.py",
           "        if bad:\n            raise RuntimeError(f\"commit produced",
           "        if False:\n            raise RuntimeError(f\"commit produced",
           (HEURISTICS, "-k", "TestCommitCheck")),
    Mutant("result-skips-drift-check", "heuristics.py",
           "        if ground_truth != self.c:\n",
           "        if False:\n",
           (HEURISTICS, "-k", "TestCommitCheck")),
    # Row maxima of the swept window.
    Mutant("sweep-no-window-refresh", "heuristics.py",
           "self.st.objects.sizes[cs])\n            self._refresh(slice(None))\n",
           "self.st.objects.sizes[cs])\n",
           (HEURISTICS, "-k", "TestColumnCaches or TestSweepCache")),
    # The row skip and the maxima merge in ``_invalidate``.
    Mutant("row-skip-own-row-not-rescored", "heuristics.py",
           "        rows = {i}\n",
           "        rows = set()\n",
           (HEURISTICS, "-k", "TestRescoredSuffix")),
    Mutant("row-skip-holders-not-rescored", "heuristics.py",
           "                rows.add(j)\n",
           "                rows.add(i)\n",
           (HEURISTICS, "-k", "TestRescoredSuffix or TestSweepCache")),
    Mutant("row-skip-touched-best-not-refreshed", "heuristics.py",
           "stale = stale | ((arg == c) & (s < best))",
           "stale = stale | ((arg == c) & (s < best) & (s != s))",
           (HEURISTICS, "-k", "TestRescoredSuffix or TestSweepCache or TestColumnCaches")),
    Mutant("row-skip-tie-to-higher-column", "heuristics.py",
           "((s == best) & (arg > c))",
           "((s == best) & (arg < c))",
           (HEURISTICS, "-k", "TestRescoredSuffix or TestSweepCache")),
    Mutant("merge-tie-keeps-higher-column", "heuristics.py",
           "wins = (s > best) | ((s == best) & (arg > c))",
           "wins = s > best",
           (HEURISTICS, "-k", "TestRescoredSuffix or TestSweepCache")),
    Mutant("row-skip-rescored-not-refreshed", "heuristics.py",
           "            stale[rows] = True\n",
           "            stale[rows] = stale[rows]\n",
           (HEURISTICS, "-k", "TestRescoredSuffix or TestSweepCache")),
    Mutant("row-skip-off-by-one-byte", "heuristics.py",
           "if int(st.free[j]) < self._largest]",
           "if int(st.free[j]) + 1 < self._largest]",
           (HEURISTICS, "-k", "TestRescoredSuffix or TestSweepCache")),
    Mutant("refresh-last-maximum", "heuristics.py",
           "arg = block.argmax(axis=1)",
           "arg = block.shape[1] - 1 - block[:, ::-1].argmax(axis=1)",
           (HEURISTICS, "-k", "TestSweepCache or TestColumnCaches")),
    # Work-only mutants: each undoes one skip rule and keeps every plan.
    Mutant("sweep-rescores-window", "heuristics.py",
           "        if cs != self._window:\n",
           "        if True:\n",
           (WORK,)),
    Mutant("invalidate-remaxes-every-row", "heuristics.py",
           "        stale = stale.nonzero()[0]\n",
           "        stale = np.arange(stale.size)\n",
           (WORK,)),
    Mutant("invalidate-rescores-skipped-rows", "heuristics.py",
           "rows = [j for j in rows if int(st.free[j]) < self._largest]",
           "rows = sorted(rows)",
           (WORK,)),
    Mutant("run-sweeps-dead-windows", "heuristics.py",
           "            if self.net[:, window].max() <= 0:\n                continue\n",
           "",
           (WORK,)),
    Mutant("score-no-floor", "heuristics.py",
           "        if self._evict_cache:  # else every floor is 0\n",
           "        if False:\n",
           (WORK,)),
    Mutant("every-holder-list-stored", "heuristics.py",
           "if (pos.min() < ev.reach or",
           "if (True or",
           (WORK,)),
    # Set-up computes ``net`` in blocks; only a check at size spans several.
    Mutant("setup-skips-block-start", "heuristics.py",
           "self._columns(np.arange(start, min(start + width, n)))",
           "self._columns(np.arange(start + (start > 0), min(start + width, n)))",
           (HEURISTICS,)),
    # Placement state.
    Mutant("nearest-ties-to-higher-id", "model.py",
           "pos = sub.argmin(axis=1)",
           "pos = sub.shape[1] - 1 - sub[:, ::-1].argmin(axis=1)",
           ("tests/test_model.py", "-k", "TestNearest or TestIncrementalIndex")),
    Mutant("subset-accepts-count", "topology.py",
           "max(initial=0) >= count:",
           "max(initial=0) > count:",
           ("tests/test_model.py", "-k", "TestValidate")),
    Mutant("remove-reads-negative-ids", "model.py",
           "        i, k = self._ids(i, k)\n        if not self.x[i, k]:",
           "        if not self.x[i, k]:",
           ("tests/test_model.py", "-k", "TestIncrementalIndex")),
    Mutant("save-placement-any-nonzero", "model.py",
           '    """\n    x = _binary(x, "placement")\n',
           '    """\n    x = np.asarray(x)\n',
           ("tests/test_model.py", "-k", "TestPlacementFiles")),
    Mutant("copy-without-replica-counts", "model.py",
           'for name in ("x", "n", "d", "free", "replica_counts"):',
           'for name in ("x", "n", "d", "free"):',
           ("tests/test_model.py", "-k", "TestIncrementalIndex")),
    # The input rules.
    Mutant("index-accepts-count", "topology.py",
           "    if not 0 <= i < count:\n",
           "    if not 0 <= i <= count:\n",
           ("tests/test_model.py", "-k", "TestPlacementFiles")),
    Mutant("count-accepts-0", "topology.py",
           "    if count < 1:\n",
           "    if count < 0:\n",
           ("tests/test_topology.py", "-k", "TestGenerate")),
    Mutant("range-accepts-inverted", "topology.py",
           "    if lo > hi:\n",
           "    if False:\n",
           ("tests/test_topology.py", "tests/test_workload.py", "-k", "range or bad_parameters")),
    Mutant("positive-accepts-0", "model.py",
           "    if (arr <= 0).any():\n",
           "    if (arr < 0).any():\n",
           ("tests/test_model.py", "-k", "TestCatalogs")),
    Mutant("freeze-leaves-writable", "topology.py",
           "        array.setflags(write=False)\n",
           "",
           ("tests/test_model.py", "-k", "TestScenario")),
    Mutant("traffic-any-kind", "topology.py",
           "    if not (isinstance(value, str) and value in options):\n",
           "    if False:\n",
           ("tests/test_workload.py", "-k", "TestTrafficModelValidation")),
    Mutant("choice-returns-first-option", "topology.py",
           "        raise ParameterError(f\"unknown {what} {value!r}\")\n    return value\n",
           "        raise ParameterError(f\"unknown {what} {value!r}\")\n    return options[0]\n",
           ("tests/test_costs.py", "-k", "literal")),
    Mutant("nonnegative-accepts-negative", "topology.py",
           "if math.isfinite(value) and value >= 0:",
           "if math.isfinite(value):",
           ("tests/test_workload.py", "-k", "TestTrafficModelValidation")),
    Mutant("nonnegative-lets-overflow-escape", "topology.py",
           "        except OverflowError:\n",
           "        except ZeroDivisionError:\n",
           ("tests/test_workload.py", "-k", "TestTrafficModelValidation")),
    Mutant("nonnegative-keeps-numpy-type", "topology.py",
           "                return float(value)\n",
           "                return value\n",
           ("tests/test_workload.py", "-k", "TestTrafficModelValidation")),
    Mutant("rng-accepts-any-seed", "topology.py",
           'return random.Random(_whole(seed, "seed", ParameterError))',
           "return random.Random(seed)",
           ("tests/test_fuzz_loaders.py", "-k", "test_generators")),
    Mutant("trace-availability-any-trace", "workload.py",
           "    if not isinstance(trace, FailureTrace):\n",
           "    if False:\n",
           ("tests/test_workload.py", "-k", "TestTraceFolding")),
    Mutant("cost-matrix-accepts-negative", "topology.py",
           "        if (arr < 0).any():\n",
           "        if False:\n",
           ("tests/test_topology.py", "-k", "TestShortestPaths")),
    Mutant("load-placement-no-count", "model.py",
           '    m, n = _count(m, "server count"), _count(n, "object count")\n',
           "",
           ("tests/test_model.py", "-k", "TestPlacementFiles")),
    Mutant("validate-reads-any-value", "model.py",
           '_loads(_binary(x[rows], "placement"), objects.sizes)',
           "_loads(x[rows], objects.sizes)",
           ("tests/test_model.py", "-k", "TestValidatePlacement")),
    Mutant("nearest-no-replicated-check", "costs.py",
           "    _replicated(x)\n",
           "",
           ("tests/test_model.py", "-k", "TestNearest")),
    Mutant("access-cost-unchecked-traffic", "costs.py",
           "    r = _traffic(r, *x.shape)\n",
           '    r = np.asarray(_integral(r, "traffic"), dtype=np.int64)\n',
           ("tests/test_costs.py", "-k", "TestAccessCost")),
    Mutant("access-cost-no-headroom", "costs.py",
           "    _check_headroom(l, np.empty(0, dtype=np.int64), r, INT64_LIMIT)\n",
           "",
           ("tests/test_costs.py", "-k", "TestAccessCost")),
    Mutant("traffic-volume-unbounded", "workload.py",
           "    if total_volume >= INT64_LIMIT:\n",
           "    if False:\n",
           ("tests/test_workload.py", "-k", "TestTrafficModelValidation")),
    # Traffic: whole-array writes that keep the per-entry loop's draws and bytes.
    Mutant("traffic-base-in-rank-order", "workload.py",
           "    r[:, perm] = base\n",
           "    r[:] = base\n",
           (TRAFFIC,)),
    Mutant("traffic-ones-in-id-order", "workload.py",
           "r[rows, np.repeat(perm, rem)] += 1",
           "r[rows, np.repeat(np.arange(n_objects), rem)] += 1",
           (TRAFFIC,)),
    Mutant("traffic-draws-in-size-order", "workload.py",
           "for c in rem.tolist()",
           "for c in sorted(rem.tolist())",
           (TRAFFIC, "-k", "draws")),
    Mutant("traffic-uniform-drops-remainder", "workload.py",
           "r.flat[rng.sample(range(cells), rem)] += 1",
           "rng.sample(range(cells), rem)",
           (TRAFFIC,)),
    Mutant("csv-no-newline", "topology.py",
           '                fh.write("\\n")\n',
           "",
           ("tests/test_cli.py", "-k", "test_bytes_are_pinned")),
    Mutant("load-placement-merges-objects", "model.py",
           "            if k in listed:\n",
           "            if False:\n",
           ("tests/test_model.py", "-k", "TestPlacementFiles")),
    Mutant("load-placement-merges-servers", "model.py",
           "                if x[i, k]:\n",
           "                if False:\n",
           ("tests/test_model.py", "-k", "TestPlacementFiles")),
    Mutant("trace-records-unchecked", "workload.py",
           'records = _items(self.records, "trace records", TraceError)',
           "records = tuple(self.records)",
           ("tests/test_workload.py", "-k", "TestTraceInCode")),
    Mutant("edge-cost-whole", "topology.py",
           'cost = _count(cost, f"cost of edge ({u}, {v})")',
           'cost = _whole(cost, f"cost of edge ({u}, {v})")',
           ("tests/test_topology.py", "-k", "TestGraphValidation")),
)


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply ``mutant`` to a fresh copy of the tree and run its tests; (verdict, detail)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tmp / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, tmp / name)
        target = tmp / "src" / "replicaplan" / mutant.file
        text = target.read_text()
        found = text.count(mutant.old)
        if found != 1:
            return "ERROR", f"snippet found {found} times in {mutant.file}"
        target.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, capture_output=True, text=True,
        )
    lines = proc.stdout.strip().splitlines()
    failed = next((line for line in lines if line.startswith("FAILED")), "")
    summary = failed or (lines[-1] if lines else proc.stderr.strip()[-200:])
    if proc.returncode == 1:
        return "killed", summary
    if proc.returncode == 0:
        return "SURVIVED", summary
    return "ERROR", f"pytest exit {proc.returncode}: {summary}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", default="", help="run only mutants whose name contains this")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.k in m.name]
    if args.list:
        for m in chosen:
            print(f"{m.name}: {' '.join(m.tests)}")
        return 0
    verdicts = []
    for m in chosen:
        started = time.perf_counter()
        verdict, detail = run(m)
        verdicts.append(verdict)
        print(f"{verdict:8} {m.name} ({time.perf_counter() - started:.0f} s): {detail}",
              flush=True)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(verdicts)} mutants killed")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
